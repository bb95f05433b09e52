// Fixture: the serialize body has been edited to drop dropped_ (the
// "deleted field" scenario docs/static-analysis.md describes); cache_
// is deliberately not named, covered by the justified allow at its
// declaration.
#include "src/core/ckpt_cover.hh"

namespace piso {

template <class Ar>
void
CoverDemo::serialize(Ar &ar)
{
    ar(value_);
}

} // namespace piso

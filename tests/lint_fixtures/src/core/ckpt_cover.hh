#ifndef PISO_CORE_CKPT_COVER_HH
#define PISO_CORE_CKPT_COVER_HH

// Fixture: checkpoint-field-coverage. CoverDemo's serialize body
// lives in ckpt_cover.cc; the project rule joins it by class name
// across files and checks every non-static data member.

namespace piso {

class CkptWriter;
class CkptReader;

class CoverDemo
{
  public:
    template <class Ar>
    void serialize(Ar &ar);

  private:
    int value_ = 0;    // clean: named in serialize
    int dropped_ = 0;  // hit: serialize no longer names it
    int ghost_ = 0;    // hit: never named
    // piso-lint: allow(checkpoint-field-coverage) -- fixture: derived
    // cache, rebuilt on first use after restore.
    int cache_ = 0;
};

} // namespace piso

#endif // PISO_CORE_CKPT_COVER_HH

#ifndef PISO_CORE_CKPT_PAIR_HH
#define PISO_CORE_CKPT_PAIR_HH

// Fixture: a hand-written save/load pair. Both bodies name every
// field, yet each is reported: two bodies can drift apart, which one
// serialize(Ar&) body cannot.

namespace piso {

class PairDemo
{
  public:
    void
    save(CkptWriter &w) const
    {
        w.i64(value_);
    }

    void
    load(CkptReader &r)
    {
        value_ = r.i64();
    }

  private:
    int value_ = 0;
};

} // namespace piso

#endif // PISO_CORE_CKPT_PAIR_HH

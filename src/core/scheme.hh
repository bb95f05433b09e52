#ifndef PISO_CORE_SCHEME_HH
#define PISO_CORE_SCHEME_HH

/**
 * @file
 * The three resource-allocation schemes of Table 2 and the three disk
 * policies of Section 4.5.
 */

namespace piso {

/** Machine-wide resource-allocation scheme (paper Table 2). */
enum class Scheme
{
    Smp,    //!< unconstrained sharing, no isolation (IRIX 5.3)
    Quota,  //!< fixed quota per SPU, no sharing ("Quo")
    PIso,   //!< performance isolation: isolation + careful sharing
};

/** Disk-request scheduling policy (Section 4.5). */
enum class DiskPolicy
{
    HeadPosition,   //!< C-SCAN only — IRIX "Pos"
    BlindFair,      //!< fairness only, ignores the head — "Iso"
    FairPosition,   //!< fairness criterion + head position — "PIso"
};

/** Short display name ("SMP", "Quo", "PIso") as used in the paper. */
inline const char *
schemeName(Scheme s)
{
    switch (s) {
      case Scheme::Smp:
        return "SMP";
      case Scheme::Quota:
        return "Quo";
      case Scheme::PIso:
        return "PIso";
    }
    return "?";
}

/** Short display name ("Pos", "Iso", "PIso") as used in the paper. */
inline const char *
diskPolicyName(DiskPolicy p)
{
    switch (p) {
      case DiskPolicy::HeadPosition:
        return "Pos";
      case DiskPolicy::BlindFair:
        return "Iso";
      case DiskPolicy::FairPosition:
        return "PIso";
    }
    return "?";
}

} // namespace piso

#endif // PISO_CORE_SCHEME_HH

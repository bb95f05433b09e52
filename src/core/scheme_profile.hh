#ifndef PISO_CORE_SCHEME_PROFILE_HH
#define PISO_CORE_SCHEME_PROFILE_HH

/**
 * @file
 * Per-resource policy composition.
 *
 * The paper defines isolation *per resource* — CPU scheduling (§3.1),
 * memory (§3.2), disk bandwidth (§3.3 / §4.5), and the sketched
 * network extension (§5) — but Table 2's machine-wide SMP/Quo/PIso
 * schemes tie all of them together. A SchemeProfile unties them: one
 * independently selectable policy per resource, so mixed experiments
 * (PIso CPU with Quota memory, say) are expressible without new code.
 * A SchemeProfile built from a Scheme reproduces the paper's three
 * columns exactly.
 *
 * Policy names are resolved through a string-keyed PolicyRegistry so
 * the `.piso` workload format, reports, and JSON output all agree on
 * spelling (`smp | quota | piso`, plus the §4.5 disk aliases
 * `pos | iso`).
 */

#include <optional>
#include <string>
#include <vector>

#include "src/core/scheme.hh"

namespace piso {

/** CPU scheduling policy (§3.1): one value per Table 2 column. */
enum class CpuPolicy
{
    Smp,    //!< shared global run queue, no partition
    Quota,  //!< fixed CPU partition, idle CPUs never loaned
    PIso,   //!< partition + loaning of idle CPUs, revocable
};

/** Memory policy (§3.2). */
enum class MemoryPolicy
{
    Smp,    //!< global replacement, no per-SPU limits
    Quota,  //!< fixed per-SPU quotas, idle memory never lent
    PIso,   //!< entitled/allowed sharing with the Reserve Threshold
};

/** Network-link policy (§5's sketched extension). */
enum class NetPolicy
{
    Smp,    //!< FIFO link, no isolation
    Quota,  //!< fair usage-to-share scheduling (no work conservation
            //!< to give up: an idle link serves whoever is queued)
    PIso,   //!< fair usage-to-share scheduling
};

/** The resource a policy name is being looked up for. */
enum class PolicyResource
{
    Scheme,  //!< a Table 2 column: all four resources at once
    Cpu,
    Memory,
    Disk,
    Net,
};

/**
 * One independently selectable policy per resource. `disk` reuses the
 * §4.5 DiskPolicy (Pos/Iso/PIso). The default is Table 2's PIso
 * column.
 */
struct SchemeProfile
{
    CpuPolicy cpu = CpuPolicy::PIso;
    MemoryPolicy memory = MemoryPolicy::PIso;
    DiskPolicy disk = DiskPolicy::FairPosition;
    NetPolicy net = NetPolicy::PIso;

    SchemeProfile() = default;

    /** The profile Table 2's machine-wide @p scheme denotes. Implicit,
     *  so `cfg.scheme = Scheme::Smp` picks a whole column. */
    SchemeProfile(Scheme scheme);

    /** The Scheme this profile is the uniform expansion of, if any. */
    std::optional<Scheme> asUniform() const;

    /** True when no single Scheme describes this profile. */
    bool mixed() const { return !asUniform().has_value(); }

    /** Machine-line form: "cpu=piso memory=quota disk_policy=piso
     *  network=piso" (paste-able into a workload spec). */
    std::string str() const;

    friend bool operator==(const SchemeProfile &,
                           const SchemeProfile &) = default;
};

/**
 * String-keyed registry of per-resource policy names: canonical names
 * plus aliases, one namespace per resource. The built-in policies are
 * registered at construction; parsing is case-sensitive and fails
 * with the list of valid names.
 */
class PolicyRegistry
{
  public:
    /** The process-wide registry (built-ins pre-registered). */
    static const PolicyRegistry &instance();

    PolicyRegistry();

    /** Register @p name for @p resource mapping onto enum value
     *  @p value. Canonical names are what printing produces. */
    void add(PolicyResource resource, const std::string &name,
             int value, bool canonical);

    /** Look up a name; std::nullopt when unknown. */
    std::optional<int> tryParse(PolicyResource resource,
                                const std::string &name) const;

    /** Canonical name of @p value ("?" when unregistered). */
    const char *canonicalName(PolicyResource resource, int value) const;

    /** Every registered name for @p resource (canonical and alias),
     *  in registration order — for error messages and tests. */
    std::vector<std::string> names(PolicyResource resource) const;

  private:
    struct Binding
    {
        PolicyResource resource;
        std::string name;
        int value;
        bool canonical;
    };

    std::vector<Binding> bindings_;
};

/** @name Canonical policy names (registry-backed)
 *  "smp" | "quota" | "piso" for CPU/memory/network, "pos" | "iso" |
 *  "piso" for disk. */
/// @{
const char *policyName(CpuPolicy p);
const char *policyName(MemoryPolicy p);
const char *policyName(NetPolicy p);
/** Lowercase spec spelling of the §4.5 disk policy (unlike
 *  diskPolicyName(), which prints the paper's "Pos"/"Iso"/"PIso"). */
const char *policySpecName(DiskPolicy p);
/// @}

} // namespace piso

#endif // PISO_CORE_SCHEME_PROFILE_HH

/**
 * @file
 * Tests for the per-resource policy layer: the PolicyRegistry, the
 * SchemeProfile/Scheme equivalence, the ResourceLedger invariants, and
 * the `.piso` machine keys that feed them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "src/config/workload_spec.hh"
#include "src/exp/experiment.hh"
#include "src/piso.hh"

using namespace piso;

// ---------------------------------------------------------------- registry

namespace {

/** The profile a default config holds after one machine key. */
SchemeProfile
withKey(const std::string &key, const std::string &value)
{
    SystemConfig cfg;
    EXPECT_TRUE(applyMachineKey(cfg, key, value, "test key"));
    return cfg.scheme;
}

} // namespace

TEST(PolicyRegistry, RoundTripsCanonicalNames)
{
    for (CpuPolicy p :
         {CpuPolicy::Smp, CpuPolicy::Quota, CpuPolicy::PIso})
        EXPECT_EQ(withKey("cpu", policyName(p)).cpu, p);
    for (MemoryPolicy p : {MemoryPolicy::Smp, MemoryPolicy::Quota,
                           MemoryPolicy::PIso})
        EXPECT_EQ(withKey("memory", policyName(p)).memory, p);
    for (NetPolicy p :
         {NetPolicy::Smp, NetPolicy::Quota, NetPolicy::PIso})
        EXPECT_EQ(withKey("network", policyName(p)).net, p);
    for (DiskPolicy p : {DiskPolicy::HeadPosition, DiskPolicy::BlindFair,
                         DiskPolicy::FairPosition})
        EXPECT_EQ(withKey("disk_policy", policySpecName(p)).disk, p);
}

TEST(PolicyRegistry, AcceptsAliases)
{
    EXPECT_EQ(withKey("cpu", "quo").cpu, CpuPolicy::Quota);
    EXPECT_EQ(withKey("memory", "quo").memory, MemoryPolicy::Quota);
    EXPECT_EQ(withKey("network", "fifo").net, NetPolicy::Smp);
    EXPECT_EQ(withKey("scheme", "quo"), SchemeProfile(Scheme::Quota));
    // Disk accepts the generic scheme spellings on top of §4.5 names.
    EXPECT_EQ(withKey("disk_policy", "smp").disk, DiskPolicy::HeadPosition);
    EXPECT_EQ(withKey("disk_policy", "quota").disk, DiskPolicy::BlindFair);
    EXPECT_EQ(withKey("disk_policy", "piso").disk,
              DiskPolicy::FairPosition);
}

TEST(PolicyRegistry, RejectsUnknownNames)
{
    EXPECT_THROW(withKey("cpu", "fair"), std::runtime_error);
    EXPECT_THROW(withKey("memory", "POS"), std::runtime_error);
    EXPECT_THROW(withKey("disk_policy", "cscan"), std::runtime_error);
    EXPECT_THROW(withKey("network", ""), std::runtime_error);
    EXPECT_THROW(withKey("scheme", "iso"), std::runtime_error);
    // The sentinel that once meant "follow scheme" is gone.
    EXPECT_THROW(withKey("disk_policy", "default"), std::runtime_error);
}

TEST(PolicyRegistry, ListsNamesForErrorMessages)
{
    const auto names =
        PolicyRegistry::instance().names(PolicyResource::Cpu);
    EXPECT_NE(std::find(names.begin(), names.end(), "smp"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "piso"),
              names.end());
}

// ---------------------------------------------------------------- profile

TEST(SchemeProfile, UniformMatchesTable2)
{
    const SchemeProfile smp = SchemeProfile(Scheme::Smp);
    EXPECT_EQ(smp.cpu, CpuPolicy::Smp);
    EXPECT_EQ(smp.memory, MemoryPolicy::Smp);
    EXPECT_EQ(smp.disk, DiskPolicy::HeadPosition);
    EXPECT_EQ(smp.net, NetPolicy::Smp);

    const SchemeProfile quo = SchemeProfile(Scheme::Quota);
    EXPECT_EQ(quo.cpu, CpuPolicy::Quota);
    EXPECT_EQ(quo.disk, DiskPolicy::BlindFair);

    const SchemeProfile piso = SchemeProfile(Scheme::PIso);
    EXPECT_EQ(piso.memory, MemoryPolicy::PIso);
    EXPECT_EQ(piso.disk, DiskPolicy::FairPosition);
}

TEST(SchemeProfile, UniformRoundTripsThroughAsUniform)
{
    for (Scheme s : {Scheme::Smp, Scheme::Quota, Scheme::PIso}) {
        const SchemeProfile p = SchemeProfile(s);
        ASSERT_TRUE(p.asUniform().has_value());
        EXPECT_EQ(*p.asUniform(), s);
        EXPECT_FALSE(p.mixed());
    }
}

TEST(SchemeProfile, MixedProfileIsNotUniform)
{
    SchemeProfile p = SchemeProfile(Scheme::PIso);
    p.memory = MemoryPolicy::Quota;
    EXPECT_FALSE(p.asUniform().has_value());
    EXPECT_TRUE(p.mixed());
    EXPECT_EQ(p.str(),
              "cpu=piso memory=quota disk_policy=piso network=piso");
}

TEST(SchemeProfile, ConfigResolvesSchemeAndOverrides)
{
    SystemConfig cfg;
    cfg.scheme = Scheme::Quota;
    EXPECT_EQ(cfg.scheme, SchemeProfile(Scheme::Quota));

    cfg.scheme.memory = MemoryPolicy::PIso;
    cfg.scheme.disk = DiskPolicy::HeadPosition;
    const SchemeProfile p = cfg.scheme;
    EXPECT_EQ(p.cpu, CpuPolicy::Quota);
    EXPECT_EQ(p.memory, MemoryPolicy::PIso);
    EXPECT_EQ(p.disk, DiskPolicy::HeadPosition);
    EXPECT_TRUE(p.mixed());

    SystemConfig viaProfile;
    viaProfile.scheme = p;
    EXPECT_EQ(viaProfile.scheme, p);
}

// ----------------------------------------------------------------- ledger

TEST(ResourceLedger, TryUseNeverExceedsAllowed)
{
    ResourceLedger l("test");
    l.registerSpu(2);
    l.setAllowed(2, 3);
    int charged = 0;
    for (int i = 0; i < 10; ++i)
        charged += l.tryUse(2) ? 1 : 0;
    EXPECT_EQ(charged, 3);
    EXPECT_EQ(l.levels(2).used, 3u);
    EXPECT_TRUE(l.atLimit(2));
    l.release(2);
    EXPECT_FALSE(l.atLimit(2));
    EXPECT_TRUE(l.tryUse(2));
}

TEST(ResourceLedger, TransferConservesUsedTotal)
{
    ResourceLedger l("test");
    l.setShare(2, 1.0);
    l.setShare(3, 1.0);
    l.setAllowed(2, 8);
    l.use(2, 5);
    l.transfer(2, 3, 2);
    EXPECT_EQ(l.levels(2).used, 3u);
    EXPECT_EQ(l.levels(3).used, 2u);
    EXPECT_EQ(l.usedTotal(), 5u);
}

TEST(ResourceLedger, EntitledFloorMatchesTruncation)
{
    EXPECT_EQ(ResourceLedger::entitledFloor(0.5, 101), 50u);
    EXPECT_EQ(ResourceLedger::entitledFloor(1.0 / 3.0, 100), 33u);
    EXPECT_EQ(ResourceLedger::entitledFloor(0.0, 100), 0u);
    EXPECT_EQ(ResourceLedger::entitledFloor(1.0, 100), 100u);
}

TEST(ResourceLedger, EntitleByShareSumsExactlyToDivisible)
{
    ResourceLedger l("test");
    l.setShare(2, 1.0);
    l.setShare(3, 1.0);
    l.setShare(4, 1.0);
    l.entitleByShare(100); // 100/3 does not divide evenly
    EXPECT_EQ(l.entitledTotal(), 100u);
    // Floor gives 33 each; the 1-unit residue goes to the lowest id.
    EXPECT_EQ(l.levels(2).entitled, 34u);
    EXPECT_EQ(l.levels(3).entitled, 33u);
    EXPECT_EQ(l.levels(4).entitled, 33u);

    // Rebalance after a share change: the sum invariant must hold for
    // any divisible and any share mix, zero shares getting nothing.
    l.setShare(3, 5.0);
    l.setShare(4, 0.0);
    for (std::uint64_t divisible : {0u, 1u, 7u, 100u, 4096u}) {
        l.entitleByShare(divisible);
        EXPECT_EQ(l.entitledTotal(), divisible);
        EXPECT_EQ(l.levels(4).entitled, 0u);
    }
}

TEST(ResourceLedger, ReleaseBelowZeroPanics)
{
    ResourceLedger l("test");
    l.registerSpu(2);
    EXPECT_DEATH(l.release(2), "zero used");
}

// ------------------------------------------------------------ spec keys

TEST(ProfileSpecKeys, MachineLineSetsPerResourcePolicies)
{
    const WorkloadSpec s = parseWorkloadSpec(R"(
machine cpus=2 memory_mb=16 scheme=piso cpu=smp memory=quota network=fifo disk_policy=iso
spu u
job u compute cpu_ms=1
)");
    const SchemeProfile p = s.config.scheme;
    EXPECT_EQ(p.cpu, CpuPolicy::Smp);
    EXPECT_EQ(p.memory, MemoryPolicy::Quota);
    EXPECT_EQ(p.disk, DiskPolicy::BlindFair);
    EXPECT_EQ(p.net, NetPolicy::Smp);
    EXPECT_TRUE(p.mixed());
}

TEST(ProfileSpecKeys, SchemeStillSetsAllFour)
{
    const WorkloadSpec s = parseWorkloadSpec(
        "machine scheme=quota\nspu u\njob u compute cpu_ms=1\n");
    EXPECT_EQ(s.config.scheme, SchemeProfile(Scheme::Quota));
}

TEST(ProfileSpecKeys, UnknownPolicyNamesAreErrors)
{
    EXPECT_THROW(parseWorkloadSpec(
                     "machine cpu=bogus\nspu u\njob u compute\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec(
                     "machine memory=pos\nspu u\njob u compute\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec(
                     "machine network=cscan\nspu u\njob u compute\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec(
                     "machine disk_policy=nope\nspu u\njob u compute\n"),
                 std::runtime_error);
    // Error text names the offending line and the valid spellings.
    try {
        parseWorkloadSpec("machine cpu=bogus\nspu u\njob u compute\n");
        FAIL() << "expected parse failure";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 1"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("smp|quota|quo|piso"),
                  std::string::npos);
    }
}

// ------------------------------------------------------------ key table

namespace {

const char *const kKeyBody = "spu u\nspu v share=2 disk=1\n"
                             "job u compute cpu_ms=1\n";

std::uint64_t
digestOf(const WorkloadSpec &spec)
{
    Simulation sim(spec.config);
    populateWorkloadSpec(sim, spec);
    return sim.configDigest();
}

} // namespace

// The machine line and --grid share one table: for every key, setting
// a non-default value either way builds the same simulation.
TEST(MachineKeys, MachineLineAndGridAgreeOnEveryKey)
{
    const std::map<std::string, std::string> kValues = {
        {"scheme", "smp"},         {"cpu", "quota"},
        {"memory", "smp"},         {"disk_policy", "iso"},
        {"network", "smp"},        {"cpus", "4"},
        {"memory_mb", "32"},       {"disks", "3"},
        {"seed", "7"},             {"max_time_s", "30"},
        {"network_mbps", "10"},    {"bw_threshold", "512"},
        {"bw_halflife_ms", "250"}, {"seek_scale", "0.5"},
        {"ipi_revocation", "1"},   {"loan_holdoff_ms", "20"},
        {"tick_ms", "5"},          {"slice_ms", "20"},
        {"reserve_frac", "0.1"},   {"numa_domains", "2"},
        {"numa_local_us", "1"},    {"numa_remote_us", "3"},
        {"bus_mbps", "800"},       {"bus_saturation", "2"},
        {"bus_halflife_ms", "50"},
    };
    const std::vector<std::string> names = machineKeyNames();
    ASSERT_EQ(names.size(), kValues.size());
    ASSERT_EQ(names.front(), kSchemeKey);

    // Two disks so the SPUs' placement is valid on every variant.
    const WorkloadSpec base =
        parseWorkloadSpec(std::string("machine disks=2\n") + kKeyBody);
    const std::uint64_t baseDigest = digestOf(base);
    for (const std::string &key : names) {
        ASSERT_EQ(kValues.count(key), 1u) << key << " has no test value";
        const std::string &value = kValues.at(key);
        const std::string disks = key == "disks" ? "" : " disks=2";
        const WorkloadSpec byLine = parseWorkloadSpec(
            "machine " + key + "=" + value + disks + "\n" + kKeyBody);
        WorkloadSpec byGrid = base;
        exp::applyGridKey(byGrid.config, key, value);
        EXPECT_EQ(digestOf(byLine), digestOf(byGrid)) << key;
        // The run horizon is run control, outside the digest.
        if (key == "max_time_s") {
            EXPECT_EQ(byLine.config.maxTime, 30 * kSec);
            EXPECT_EQ(byGrid.config.maxTime, 30 * kSec);
        } else {
            EXPECT_NE(digestOf(byGrid), baseDigest) << key;
        }
    }
}

TEST(MachineKeys, SchemeGoesBeforePerResourceKeys)
{
    const SchemeProfile want = [] {
        SchemeProfile p = Scheme::Smp;
        p.disk = DiskPolicy::BlindFair;
        return p;
    }();
    for (const char *line : {"machine disk_policy=iso scheme=smp\n",
                             "machine scheme=smp disk_policy=iso\n"})
        EXPECT_EQ(parseWorkloadSpec(line + std::string(kKeyBody))
                      .config.scheme,
                  want)
            << line;

    for (const bool schemeFirst : {true, false}) {
        exp::ExperimentPlan plan;
        plan.base = parseWorkloadSpec(kKeyBody);
        plan.axes = {exp::parseGridAxis("disk_policy=iso"),
                     exp::parseGridAxis("scheme=smp")};
        if (schemeFirst)
            std::swap(plan.axes[0], plan.axes[1]);
        const auto tasks = exp::expandPlan(plan);
        ASSERT_EQ(tasks.size(), 1u);
        EXPECT_EQ(tasks[0].spec.config.scheme, want) << schemeFirst;
    }
}

// A grid `scheme` axis picks a whole column, replacing per-resource
// keys the base spec set (its rows are then truly uniform).
TEST(MachineKeys, GridSchemeReplacesBasePerResourceKeys)
{
    exp::ExperimentPlan plan;
    plan.base = parseWorkloadSpec(
        std::string("machine disk_policy=piso cpu=piso\n") + kKeyBody);
    plan.axes = {exp::parseGridAxis("scheme=smp,quota")};
    const auto tasks = exp::expandPlan(plan);
    ASSERT_EQ(tasks.size(), 2u);
    EXPECT_EQ(tasks[0].spec.config.scheme, SchemeProfile(Scheme::Smp));
    EXPECT_EQ(tasks[1].spec.config.scheme,
              SchemeProfile(Scheme::Quota));
}

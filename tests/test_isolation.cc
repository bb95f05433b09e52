/**
 * @file
 * End-to-end isolation/sharing tests: scaled-down versions of the
 * paper's claims, one per resource.
 *
 * Terminology from the paper: "isolation" means a lightly-loaded
 * SPU's response time must not degrade when other SPUs add load;
 * "sharing" means an overloaded SPU must benefit from idle resources.
 */

#include <gtest/gtest.h>

#include "src/piso.hh"

using namespace piso;

namespace {

SystemConfig
machine(Scheme scheme, int cpus = 4, std::uint64_t memMb = 32,
        int disks = 2)
{
    SystemConfig cfg;
    cfg.cpus = cpus;
    cfg.memoryBytes = memMb * kMiB;
    cfg.diskCount = disks;
    cfg.scheme = scheme;
    cfg.seed = 1234;
    return cfg;
}

/** Light job in SPU A alone vs. with a heavy SPU B: returns the pair
 *  (solo response, loaded response) for the light job. */
std::pair<double, double>
cpuIsolationProbe(Scheme scheme)
{
    ComputeSpec light;
    light.totalCpu = 400 * kMs;
    light.wsPages = 64;

    Simulation solo(machine(scheme));
    const SpuId a1 = solo.addSpu({.name = "a", .homeDisk = 0});
    solo.addSpu({.name = "b", .homeDisk = 1});
    solo.addJob(a1, makeComputeJob("light", light));
    const double soloSec = solo.run().job("light").responseSec();

    Simulation loaded(machine(scheme));
    const SpuId a2 = loaded.addSpu({.name = "a", .homeDisk = 0});
    const SpuId b2 = loaded.addSpu({.name = "b", .homeDisk = 1});
    loaded.addJob(a2, makeComputeJob("light", light));
    for (int i = 0; i < 6; ++i) {
        ComputeSpec hog;
        hog.totalCpu = 2 * kSec;
        hog.wsPages = 64;
        loaded.addJob(b2, makeComputeJob("hog" + std::to_string(i), hog));
    }
    const double loadedSec = loaded.run().job("light").responseSec();
    return {soloSec, loadedSec};
}

} // namespace

TEST(CpuIsolation, SmpDegradesLightSpuUnderLoad)
{
    const auto [solo, loaded] = cpuIsolationProbe(Scheme::Smp);
    // 7 runnable processes on 4 CPUs: the light job degrades badly.
    EXPECT_GT(loaded, 1.4 * solo);
}

TEST(CpuIsolation, QuotaIsolatesLightSpu)
{
    const auto [solo, loaded] = cpuIsolationProbe(Scheme::Quota);
    EXPECT_LT(loaded, 1.15 * solo);
}

TEST(CpuIsolation, PisoIsolatesLightSpu)
{
    const auto [solo, loaded] = cpuIsolationProbe(Scheme::PIso);
    // The paper's Isolation goal: no degradation (modulo revocation
    // ticks) regardless of others' load.
    EXPECT_LT(loaded, 1.15 * solo);
}

namespace {

/** Overloaded SPU B next to an idle SPU A: mean hog response. */
double
cpuSharingProbe(Scheme scheme)
{
    Simulation sim(machine(scheme));
    sim.addSpu({.name = "a", .homeDisk = 0}); // idle SPU
    const SpuId b = sim.addSpu({.name = "b", .homeDisk = 1});
    for (int i = 0; i < 4; ++i) {
        ComputeSpec hog;
        hog.totalCpu = kSec;
        hog.wsPages = 64;
        sim.addJob(b, makeComputeJob("hog" + std::to_string(i), hog));
    }
    const SimResults r = sim.run();
    return r.meanResponseSecByPrefix("hog");
}

} // namespace

TEST(CpuSharing, PisoUsesIdleCpusLikeSmp)
{
    const double smp = cpuSharingProbe(Scheme::Smp);
    const double piso = cpuSharingProbe(Scheme::PIso);
    EXPECT_LT(piso, 1.2 * smp);
}

TEST(CpuSharing, QuotaWastesIdleCpus)
{
    const double quota = cpuSharingProbe(Scheme::Quota);
    const double piso = cpuSharingProbe(Scheme::PIso);
    // 4 hogs on 2 quota CPUs vs 4 borrowed CPUs: ~2x.
    EXPECT_GT(quota, 1.6 * piso);
}

namespace {

/**
 * Memory probe: SPU A runs a fixed job while SPU B oversubscribes
 * memory. Returns A's job response.
 */
double
memIsolationProbe(Scheme scheme, bool heavyNeighbor)
{
    // 16 MiB machine = 4096 pages; each B hog wants 1800 pages.
    SystemConfig cfg = machine(scheme, 4, 16);
    Simulation sim(cfg);
    const SpuId a = sim.addSpu({.name = "a", .homeDisk = 0});
    const SpuId b = sim.addSpu({.name = "b", .homeDisk = 1});

    ComputeSpec lightJob;
    lightJob.totalCpu = 600 * kMs;
    lightJob.wsPages = 1200; // fits A's half (2048) comfortably
    sim.addJob(a, makeComputeJob("light", lightJob));

    if (heavyNeighbor) {
        for (int i = 0; i < 2; ++i) {
            ComputeSpec hog;
            hog.totalCpu = 2 * kSec;
            hog.wsPages = 1800;
            sim.addJob(b,
                       makeComputeJob("hog" + std::to_string(i), hog));
        }
    }
    return sim.run().job("light").responseSec();
}

} // namespace

TEST(MemoryIsolation, SmpThrashesLightSpu)
{
    const double solo = memIsolationProbe(Scheme::Smp, false);
    const double loaded = memIsolationProbe(Scheme::Smp, true);
    // Global replacement steals the light job's pages: it refaults.
    EXPECT_GT(loaded, 1.15 * solo);
}

TEST(MemoryIsolation, PisoProtectsLightSpu)
{
    const double solo = memIsolationProbe(Scheme::PIso, false);
    const double loaded = memIsolationProbe(Scheme::PIso, true);
    EXPECT_LT(loaded, 1.2 * solo);
}

TEST(MemoryIsolation, QuotaProtectsLightSpu)
{
    const double solo = memIsolationProbe(Scheme::Quota, false);
    const double loaded = memIsolationProbe(Scheme::Quota, true);
    EXPECT_LT(loaded, 1.2 * solo);
}

namespace {

/** Memory sharing probe: B needs more than its half while A idles. */
double
memSharingProbe(Scheme scheme)
{
    SystemConfig cfg = machine(scheme, 4, 16);
    Simulation sim(cfg);
    sim.addSpu({.name = "a", .homeDisk = 0}); // idle
    const SpuId b = sim.addSpu({.name = "b", .homeDisk = 1});
    ComputeSpec big;
    big.totalCpu = kSec;
    big.wsPages = 2800; // > B's half (2048), < machine
    sim.addJob(b, makeComputeJob("big", big));
    return sim.run().job("big").responseSec();
}

} // namespace

TEST(MemorySharing, PisoLendsIdleMemory)
{
    const double piso = memSharingProbe(Scheme::PIso);
    const double quota = memSharingProbe(Scheme::Quota);
    // Quota pins B at its quota: it thrashes against its own limit.
    EXPECT_GT(quota, 1.5 * piso);
}

TEST(MemorySharing, PisoCloseToSmp)
{
    const double piso = memSharingProbe(Scheme::PIso);
    const double smp = memSharingProbe(Scheme::Smp);
    EXPECT_LT(piso, 1.35 * smp);
}

namespace {

/** Disk probe: pmake and a big copy share one disk (Section 4.5). */
SimResults
diskProbe(DiskPolicy policy)
{
    SystemConfig cfg = machine(Scheme::PIso, 2, 44, 1);
    cfg.scheme.disk = policy;
    cfg.diskParams.seekScale = 0.5;
    Simulation sim(cfg);
    const SpuId a = sim.addSpu({.name = "pmk", .homeDisk = 0});
    const SpuId b = sim.addSpu({.name = "cpy", .homeDisk = 0});
    PmakeConfig pm;
    pm.parallelism = 2;
    pm.filesPerWorker = 8;
    sim.addJob(a, makePmake("pmake", pm));
    FileCopyConfig cc;
    cc.bytes = 8 * kMiB;
    sim.addJob(b, makeFileCopy("copy", cc));
    return sim.run();
}

} // namespace

TEST(DiskIsolation, FairPolicyProtectsPmakeFromCopy)
{
    const SimResults pos = diskProbe(DiskPolicy::HeadPosition);
    const SimResults piso = diskProbe(DiskPolicy::FairPosition);
    // The paper's Table 3 shape: PIso cuts the pmake's response and
    // its per-request wait substantially.
    EXPECT_LT(piso.job("pmake").responseSec(),
              0.85 * pos.job("pmake").responseSec());
}

TEST(DiskIsolation, CopyPaysModestly)
{
    const SimResults pos = diskProbe(DiskPolicy::HeadPosition);
    const SimResults piso = diskProbe(DiskPolicy::FairPosition);
    // The copy loses some throughput but is not devastated.
    EXPECT_LT(piso.job("copy").responseSec(),
              1.8 * pos.job("copy").responseSec());
}

TEST(DiskIsolation, SeekLatencyStaysNearCscan)
{
    const SimResults pos = diskProbe(DiskPolicy::HeadPosition);
    const SimResults piso = diskProbe(DiskPolicy::FairPosition);
    const SimResults iso = diskProbe(DiskPolicy::BlindFair);
    // PIso keeps head-position awareness; blind Iso pays extra seek.
    EXPECT_LT(piso.disks[0].avgPositionMs,
              2.0 * pos.disks[0].avgPositionMs);
    EXPECT_GT(iso.disks[0].avgPositionMs, piso.disks[0].avgPositionMs);
}

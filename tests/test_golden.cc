/**
 * @file
 * Golden-file regression fixtures for the paper's figure/table
 * workloads (Section 4). Each fixture runs one seed of a figure
 * workload under one uniform scheme and byte-compares the JSON
 * results against tests/golden/<fixture>.json.
 *
 * The goldens pin the *numbers*, not just the shapes the bench
 * programs assert, so an accidental behaviour change anywhere in the
 * sim core (scheduler tie-break, RNG draw order, disk model rounding)
 * is caught at ctest time instead of surfacing as a silently shifted
 * figure.
 *
 * Every fixture is also replayed through the checkpoint layer: the
 * run is checkpointed at its first quiescent boundary (t ~= 0), a
 * fresh Simulation is populated identically, restored, and run to
 * completion — and must reproduce the golden bytes exactly
 * (docs/checkpoint.md). That pins serialisation coverage to the same
 * fixtures that pin the numbers: a subsystem whose state is dropped
 * by the image shows up here as a golden mismatch.
 *
 * To regenerate after an intentional change:
 *     PISO_UPDATE_GOLDEN=1 ctest -R test_golden
 * then review the diff like any other source change.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "bench/pmake8.hh"
#include "src/metrics/report.hh"
#include "src/piso.hh"

using namespace piso;

namespace {

#ifndef PISO_GOLDEN_DIR
#error "PISO_GOLDEN_DIR must point at tests/golden"
#endif

constexpr std::uint64_t kGoldenSeed = 1;

/** One figure/table machine: the config plus the setup calls, kept
 *  separate so the restore path can replay the setup on a second
 *  Simulation before rebinding the checkpointed state onto it. */
struct Fixture
{
    SystemConfig cfg;
    std::function<void(Simulation &)> populate;
};

/** Figure 2 machine: Pmake8, unbalanced (SPUs 5-8 run two jobs). */
Fixture
fig2(Scheme scheme)
{
    return {bench::pmake8Config(scheme, kGoldenSeed),
            [](Simulation &sim) {
                bench::populatePmake8(sim, /*unbalanced=*/true);
            }};
}

/** Figure 5 machine: Ocean vs six engineering hogs (CPU dimension). */
Fixture
fig5(Scheme scheme)
{
    SystemConfig cfg;
    cfg.cpus = 8;
    cfg.memoryBytes = 64 * kMiB;
    cfg.diskCount = 2;
    cfg.scheme = scheme;
    cfg.seed = kGoldenSeed;

    return {cfg, [](Simulation &sim) {
                const SpuId spu1 =
                    sim.addSpu({.name = "ocean", .homeDisk = 0});
                const SpuId spu2 =
                    sim.addSpu({.name = "eng", .homeDisk = 1});

                OceanConfig ocean;
                ocean.processes = 4;
                ocean.iterations = 80;
                ocean.grain = 100 * kMs;
                ocean.wsPagesPerProc = 700;
                sim.addJob(spu1, makeOcean("Ocean", ocean));

                for (int i = 0; i < 3; ++i) {
                    sim.addJob(spu2,
                               makeFlashlite("Flashlite" +
                                                 std::to_string(i),
                                             12 * kSec, 500));
                    sim.addJob(spu2,
                               makeVcs("VCS" + std::to_string(i),
                                       14 * kSec, 700));
                }
            }};
}

/** Figure 7 machine: two pmakes on a small machine, unbalanced. */
Fixture
fig7(Scheme scheme)
{
    SystemConfig cfg;
    cfg.cpus = 4;
    cfg.memoryBytes = 16 * kMiB;
    cfg.diskCount = 2;
    cfg.scheme = scheme;
    cfg.seed = kGoldenSeed;

    return {cfg, [](Simulation &sim) {
                const SpuId spu1 =
                    sim.addSpu({.name = "user1", .homeDisk = 0});
                const SpuId spu2 =
                    sim.addSpu({.name = "user2", .homeDisk = 1});

                PmakeConfig pmake;
                pmake.parallelism = 4;
                pmake.filesPerWorker = 5;
                pmake.compileCpu = 240 * kMs;
                pmake.workerWsPages = 340;
                pmake.touchInterval = 10 * kMs;
                pmake.inodeLock = sim.kernel().createLock(true);

                sim.addJob(spu1, makePmake("pm-u1-j0", pmake));
                sim.addJob(spu2, makePmake("pm-u2-j0", pmake));
                sim.addJob(spu2, makePmake("pm-u2-j1", pmake));
            }};
}

/** Table 3 machine: pmake vs 20 MB copy on one shared disk. The
 *  scheme is fixed (PIso) and the disk policy varies per fixture, so
 *  "smp"/"quota"/"piso" map onto Pos/Iso/PIso here. */
Fixture
table3(DiskPolicy policy)
{
    SystemConfig cfg;
    cfg.cpus = 2;
    cfg.memoryBytes = 44 * kMiB;
    cfg.diskCount = 1;
    cfg.scheme = Scheme::PIso;
    cfg.scheme.disk = policy;
    cfg.diskParams.seekScale = 0.5;
    cfg.bwThresholdSectors = 1024.0;
    cfg.seed = kGoldenSeed;

    return {cfg, [](Simulation &sim) {
                const SpuId pmk =
                    sim.addSpu({.name = "pmk", .homeDisk = 0});
                const SpuId cpy =
                    sim.addSpu({.name = "cpy", .homeDisk = 0});

                PmakeConfig pm;
                pm.parallelism = 2;
                pm.filesPerWorker = 40;
                pm.compileCpu = 25 * kMs;
                pm.workerWsPages = 200;
                sim.addJob(pmk, makePmake("pmake", pm));

                FileCopyConfig cc;
                cc.bytes = 20 * kMiB;
                sim.addJob(cpy, makeFileCopy("copy", cc));
            }};
}

SimResults
runCold(const Fixture &fx)
{
    Simulation sim(fx.cfg);
    fx.populate(sim);
    return sim.run();
}

/** Checkpoint @p fx at its first quiescent boundary, replay the setup
 *  on a fresh Simulation, restore the image onto it, and run that
 *  restored instance to completion. */
SimResults
runRestored(const Fixture &fx)
{
    std::string image;
    SystemConfig ckpt = fx.cfg;
    ckpt.checkpointAt = 1;  // first quiescent boundary after t=0
    ckpt.checkpointStop = true;
    ckpt.checkpointSink = [&image](std::string img) {
        image = std::move(img);
    };
    {
        Simulation sim(ckpt);
        fx.populate(sim);
        sim.run();
    }

    Simulation sim(fx.cfg);
    fx.populate(sim);
    std::istringstream in(image);
    sim.restore(in);
    return sim.run();
}

std::string
goldenPath(const std::string &fixture)
{
    return std::string(PISO_GOLDEN_DIR) + "/" + fixture + ".json";
}

void
checkGolden(const std::string &fixture, const Fixture &fx,
            bool quiesces = true)
{
    const std::string current = formatResultsJson(runCold(fx));
    const std::string path = goldenPath(fixture);

    if (std::getenv("PISO_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << current;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden " << path
        << " — regenerate with PISO_UPDATE_GOLDEN=1";
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), current)
        << "results drifted from " << path
        << "; if the change is intentional, regenerate with "
           "PISO_UPDATE_GOLDEN=1 and review the diff";

    if (!quiesces) {
        // The documented counter-example (docs/checkpoint.md): a
        // blind-fair disk under a long copy is busy from the first
        // request to the end of the run, so no quiescent boundary
        // ever exists and the checkpoint request must fail loudly
        // rather than silently produce nothing.
        EXPECT_THROW(runRestored(fx), InvariantError);
        return;
    }
    EXPECT_EQ(current, formatResultsJson(runRestored(fx)))
        << "checkpoint/restore replay of " << fixture
        << " diverged from the cold run — some subsystem's state is "
           "not round-tripping through the image (docs/checkpoint.md)";
}

} // namespace

// One fixture per (workload, scheme): 12 golden files, each checked
// cold and via a t~=0 checkpoint/restore replay.

TEST(Golden, Fig2Smp) { checkGolden("fig2_smp", fig2(Scheme::Smp)); }
TEST(Golden, Fig2Quota)
{
    checkGolden("fig2_quota", fig2(Scheme::Quota));
}
TEST(Golden, Fig2PIso)
{
    checkGolden("fig2_piso", fig2(Scheme::PIso));
}

TEST(Golden, Fig5Smp) { checkGolden("fig5_smp", fig5(Scheme::Smp)); }
TEST(Golden, Fig5Quota)
{
    checkGolden("fig5_quota", fig5(Scheme::Quota));
}
TEST(Golden, Fig5PIso)
{
    checkGolden("fig5_piso", fig5(Scheme::PIso));
}

TEST(Golden, Fig7Smp) { checkGolden("fig7_smp", fig7(Scheme::Smp)); }
TEST(Golden, Fig7Quota)
{
    checkGolden("fig7_quota", fig7(Scheme::Quota));
}
TEST(Golden, Fig7PIso)
{
    checkGolden("fig7_piso", fig7(Scheme::PIso));
}

TEST(Golden, Table3Pos)
{
    checkGolden("table3_pos", table3(DiskPolicy::HeadPosition));
}
TEST(Golden, Table3Iso)
{
    // quiesces=false: blind-fair keeps the shared disk saturated for
    // the whole run, so this fixture has no checkpoint boundary.
    checkGolden("table3_iso", table3(DiskPolicy::BlindFair),
                /*quiesces=*/false);
}
TEST(Golden, Table3PIso)
{
    checkGolden("table3_piso", table3(DiskPolicy::FairPosition));
}

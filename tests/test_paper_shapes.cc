/**
 * @file
 * Paper-shape regression tests: scaled-down versions of the Section 4
 * experiments asserting the *orderings* the paper reports. The full
 * parameterisations live in bench/; these keep the shapes from
 * silently regressing during development.
 */

#include <gtest/gtest.h>

#include "src/piso.hh"

using namespace piso;

namespace {

// -------------------------------------------------------------------
// Pmake8 at half scale: 4 SPUs on 4 CPUs, light SPUs 1-2, heavy 3-4.
// -------------------------------------------------------------------

struct Pmake4
{
    double light = 0.0;
    double heavy = 0.0;
};

Pmake4
runPmake4(Scheme scheme, bool unbalanced)
{
    SystemConfig cfg;
    cfg.cpus = 4;
    cfg.memoryBytes = 24 * kMiB;
    cfg.diskCount = 4;
    cfg.scheme = scheme;
    cfg.seed = 2;
    Simulation sim(cfg);

    PmakeConfig pm;
    pm.parallelism = 2;
    pm.filesPerWorker = 6;
    pm.compileCpu = 200 * kMs;
    pm.workerWsPages = 250;

    std::vector<SpuId> light, heavy;
    for (int u = 0; u < 4; ++u) {
        const SpuId spu =
            sim.addSpu({.name = "u" + std::to_string(u),
                        .homeDisk = static_cast<DiskId>(u)});
        (u < 2 ? light : heavy).push_back(spu);
        const int jobs = (unbalanced && u >= 2) ? 2 : 1;
        for (int j = 0; j < jobs; ++j) {
            sim.addJob(spu, makePmake("pm" + std::to_string(u) + "-" +
                                          std::to_string(j),
                                      pm));
        }
    }
    const SimResults r = sim.run();
    return Pmake4{r.meanResponseSec(light), r.meanResponseSec(heavy)};
}

} // namespace

TEST(PaperShapes, Figure2SmpLightUsersDegrade)
{
    const Pmake4 b = runPmake4(Scheme::Smp, false);
    const Pmake4 u = runPmake4(Scheme::Smp, true);
    EXPECT_GT(u.light, 1.3 * b.light); // paper: +56%
}

TEST(PaperShapes, Figure2IsolatedSchemesStayFlat)
{
    for (Scheme s : {Scheme::Quota, Scheme::PIso}) {
        const Pmake4 b = runPmake4(s, false);
        const Pmake4 u = runPmake4(s, true);
        EXPECT_LT(u.light, 1.15 * b.light) << schemeName(s);
        EXPECT_GT(u.light, 0.8 * b.light) << schemeName(s);
    }
}

TEST(PaperShapes, Figure3SharingOrdering)
{
    // Heavy SPUs, unbalanced: Quo must be clearly worst; PIso within
    // ~15% of SMP (the paper has PIso slightly *better*).
    const double smp = runPmake4(Scheme::Smp, true).heavy;
    const double quo = runPmake4(Scheme::Quota, true).heavy;
    const double piso = runPmake4(Scheme::PIso, true).heavy;
    EXPECT_GT(quo, 1.15 * smp);
    EXPECT_LT(piso, 1.15 * smp);
    EXPECT_LT(piso, 0.9 * quo);
}

namespace {

// -------------------------------------------------------------------
// Figure 5 at reduced length.
// -------------------------------------------------------------------

struct Fig5
{
    double ocean = 0.0;
    double eng = 0.0;
};

Fig5
runFig5(Scheme scheme)
{
    SystemConfig cfg;
    cfg.cpus = 8;
    cfg.memoryBytes = 64 * kMiB;
    cfg.diskCount = 2;
    cfg.scheme = scheme;
    cfg.seed = 7;
    Simulation sim(cfg);
    const SpuId s1 = sim.addSpu({.name = "ocean", .homeDisk = 0});
    const SpuId s2 = sim.addSpu({.name = "eng", .homeDisk = 1});
    OceanConfig oc;
    oc.processes = 4;
    oc.iterations = 20;
    oc.grain = 100 * kMs;
    sim.addJob(s1, makeOcean("Ocean", oc));
    for (int i = 0; i < 3; ++i) {
        sim.addJob(s2, makeFlashlite("F" + std::to_string(i), 3 * kSec,
                                     300));
        sim.addJob(s2,
                   makeVcs("V" + std::to_string(i), 3 * kSec, 300));
    }
    const SimResults r = sim.run();
    return Fig5{r.job("Ocean").responseSec(),
                (r.meanResponseSecByPrefix("F") +
                 r.meanResponseSecByPrefix("V")) /
                    2.0};
}

} // namespace

TEST(PaperShapes, Figure5OceanProtectedByPartition)
{
    const Fig5 smp = runFig5(Scheme::Smp);
    const Fig5 quo = runFig5(Scheme::Quota);
    const Fig5 piso = runFig5(Scheme::PIso);
    EXPECT_LT(quo.ocean, 0.9 * smp.ocean);
    EXPECT_LT(piso.ocean, 0.9 * smp.ocean);
}

TEST(PaperShapes, Figure5EngineeringJobsShareUnderPiso)
{
    const Fig5 smp = runFig5(Scheme::Smp);
    const Fig5 quo = runFig5(Scheme::Quota);
    const Fig5 piso = runFig5(Scheme::PIso);
    EXPECT_GT(quo.eng, 1.1 * smp.eng);  // quotas waste Ocean's CPUs
    EXPECT_LT(piso.eng, 1.1 * smp.eng); // PIso lends them
}

namespace {

// -------------------------------------------------------------------
// Table 3/4 at reduced size.
// -------------------------------------------------------------------

SimResults
runDiskPair(DiskPolicy policy)
{
    SystemConfig cfg;
    cfg.cpus = 2;
    cfg.memoryBytes = 44 * kMiB;
    cfg.diskCount = 1;
    cfg.scheme = Scheme::PIso;
    cfg.scheme.disk = policy;
    cfg.diskParams.seekScale = 0.5;
    cfg.kernel.writeThrottleSectors = 64 * 1024;
    cfg.seed = 1;
    Simulation sim(cfg);
    const SpuId sBig = sim.addSpu({.name = "big", .homeDisk = 0});
    const SpuId sSmall = sim.addSpu({.name = "small", .homeDisk = 0});
    FileCopyConfig big;
    big.bytes = 3 * kMiB;
    sim.addJob(sBig, makeFileCopy("big", big));
    FileCopyConfig small;
    small.bytes = 384 * 1024;
    sim.addJob(sSmall, makeFileCopy("small", small));
    return sim.run();
}

} // namespace

TEST(PaperShapes, Table4PosLocksOutSmallCopy)
{
    const SimResults pos = runDiskPair(DiskPolicy::HeadPosition);
    // The paper's inversion: the small copy finishes after the big.
    EXPECT_GT(pos.job("small").responseSec(),
              pos.job("big").responseSec());
}

TEST(PaperShapes, Table4FairPoliciesRescueSmallCopy)
{
    const SimResults pos = runDiskPair(DiskPolicy::HeadPosition);
    const SimResults iso = runDiskPair(DiskPolicy::BlindFair);
    const SimResults piso = runDiskPair(DiskPolicy::FairPosition);
    EXPECT_LT(iso.job("small").responseSec(),
              0.6 * pos.job("small").responseSec());
    EXPECT_LT(piso.job("small").responseSec(),
              0.6 * pos.job("small").responseSec());
    // PIso beats blind Iso for the small copy (paper: 0.28 vs 0.56).
    EXPECT_LE(piso.job("small").responseSec(),
              iso.job("small").responseSec());
}

TEST(PaperShapes, Table4IsoPaysPositioningLatency)
{
    const SimResults pos = runDiskPair(DiskPolicy::HeadPosition);
    const SimResults iso = runDiskPair(DiskPolicy::BlindFair);
    const SimResults piso = runDiskPair(DiskPolicy::FairPosition);
    EXPECT_GT(iso.disks[0].avgPositionMs, piso.disks[0].avgPositionMs);
    EXPECT_GT(iso.disks[0].avgPositionMs, pos.disks[0].avgPositionMs);
}

/**
 * @file
 * Ablation A1: the BW difference threshold trade-off (Section 3.3).
 *
 * "Smaller values imply better isolation, with a choice of zero
 * resulting in round-robin scheduling. Larger values imply smaller
 * seek times, and a very large value results in the normal disk-
 * head-position scheduling."
 *
 * Sweeps the threshold on the pmake-copy workload and prints the
 * isolation metric (pmake response) against the efficiency metric
 * (positioning latency / copy response). The two ends must converge
 * to the Iso and Pos behaviours.
 */

#include <cstdio>

#include "src/exp/pool.hh"
#include "src/piso.hh"

using namespace piso;

namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 3};

struct Point
{
    double pmakeSec = 0.0;
    double copySec = 0.0;
    double latencyMs = 0.0;
};

Point
run(DiskPolicy policy, double threshold)
{
    // One simulation per seed, in parallel on the sweep engine's pool
    // (results come back in seed order, so the averages are exactly
    // the serial ones).
    const auto points = exp::parallelMap<Point>(
        std::size(kSeeds), 0, [&](std::size_t s) {
            SystemConfig cfg;
            cfg.cpus = 2;
            cfg.memoryBytes = 44 * kMiB;
            cfg.diskCount = 1;
            cfg.scheme = Scheme::PIso;
            cfg.scheme.disk = policy;
            cfg.bwThresholdSectors = threshold;
            cfg.diskParams.seekScale = 0.5;
            cfg.seed = kSeeds[s];

            Simulation sim(cfg);
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

            const SimResults r = sim.run();
            return Point{r.job("pmake").responseSec(),
                         r.job("copy").responseSec(),
                         r.disks[0].avgPositionMs};
        });

    Point sum;
    for (const Point &p : points) {
        sum.pmakeSec += p.pmakeSec;
        sum.copySec += p.copySec;
        sum.latencyMs += p.latencyMs;
    }
    const auto n = static_cast<double>(points.size());
    sum.pmakeSec /= n;
    sum.copySec /= n;
    sum.latencyMs /= n;
    return sum;
}

} // namespace

int
main()
{
    printBanner("Ablation A1: BW difference threshold sweep "
                "(pmake-copy workload)");

    TextTable table({"threshold (sectors)", "pmake (s)", "copy (s)",
                     "latency (ms)"});

    const Point iso = run(DiskPolicy::BlindFair, 0.0);
    table.addRow({"Iso (blind)", TextTable::num(iso.pmakeSec, 2),
                  TextTable::num(iso.copySec, 2),
                  TextTable::num(iso.latencyMs, 2)});

    for (double th : {0.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0}) {
        const Point p = run(DiskPolicy::FairPosition, th);
        table.addRow({TextTable::num(th, 0),
                      TextTable::num(p.pmakeSec, 2),
                      TextTable::num(p.copySec, 2),
                      TextTable::num(p.latencyMs, 2)});
    }

    const Point pos = run(DiskPolicy::HeadPosition, 0.0);
    table.addRow({"Pos (C-SCAN)", TextTable::num(pos.pmakeSec, 2),
                  TextTable::num(pos.copySec, 2),
                  TextTable::num(pos.latencyMs, 2)});
    table.print();

    std::printf("\nexpected: pmake response rises and copy response "
                "falls with the threshold;\nthe 0 end behaves like Iso, "
                "the large end like Pos.\n");
    return 0;
}

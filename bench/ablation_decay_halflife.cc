/**
 * @file
 * Ablation A5: disk bandwidth decay half-life (Section 3.3).
 *
 * "The decay period is configurable, and we currently decay the count
 * by half every 500 milliseconds. A finer grain decay of the count
 * would better approximate an instantaneous rate, but would have a
 * higher overhead to maintain."
 *
 * Sweeps the half-life on the big-and-small copy workload: very short
 * half-lives forget the hog's history (weaker fairness); very long
 * ones punish it for ancient usage after the contention has ended.
 */

#include <cstdio>

#include "src/exp/pool.hh"
#include "src/piso.hh"

using namespace piso;

namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 3};

struct Point
{
    double smallSec = 0.0;
    double bigSec = 0.0;
};

Point
run(Time halfLife)
{
    // One simulation per seed, in parallel on the sweep engine's pool.
    const auto points = exp::parallelMap<Point>(
        std::size(kSeeds), 0, [&](std::size_t s) {
            SystemConfig cfg;
            cfg.cpus = 2;
            cfg.memoryBytes = 44 * kMiB;
            cfg.diskCount = 1;
            cfg.scheme = Scheme::PIso;
            cfg.scheme.disk = DiskPolicy::FairPosition;
            cfg.bwHalfLife = halfLife;
            cfg.diskParams.seekScale = 0.5;
            cfg.kernel.writeThrottleSectors = 64 * 1024;
            cfg.seed = kSeeds[s];

            Simulation sim(cfg);
            const SpuId sBig =
                sim.addSpu({.name = "big", .homeDisk = 0});
            const SpuId sSmall =
                sim.addSpu({.name = "small", .homeDisk = 0});
            FileCopyConfig big;
            big.bytes = 5 * kMiB;
            sim.addJob(sBig, makeFileCopy("big", big));
            FileCopyConfig small;
            small.bytes = 500 * 1024;
            sim.addJob(sSmall, makeFileCopy("small", small));

            const SimResults r = sim.run();
            return Point{r.job("small").responseSec(),
                         r.job("big").responseSec()};
        });

    Point sum;
    for (const Point &p : points) {
        sum.smallSec += p.smallSec;
        sum.bigSec += p.bigSec;
    }
    const auto n = static_cast<double>(points.size());
    sum.smallSec /= n;
    sum.bigSec /= n;
    return sum;
}

} // namespace

int
main()
{
    printBanner("Ablation A5: bandwidth decay half-life sweep "
                "(big-and-small copy)");

    TextTable table({"half-life", "small (s)", "big (s)"});
    for (Time hl : {50 * kMs, 150 * kMs, 500 * kMs, 1500 * kMs,
                    5000 * kMs}) {
        const Point p = run(hl);
        table.addRow({formatTime(hl), TextTable::num(p.smallSec, 2),
                      TextTable::num(p.bigSec, 2)});
    }
    table.print();

    std::printf("\nexpected: the small copy is protected across the "
                "sweep; very short\nhalf-lives weaken fairness (usage "
                "history forgotten between requests).\nThe paper picks "
                "500 ms.\n");
    return 0;
}

/**
 * @file
 * Table 4 reproduction: the big-and-small-copy workload (Section 4.5).
 *
 * Two SPUs copy files on one shared disk: a 500 KB copy and a 5 MB
 * copy, both accessing contiguous sectors. This workload shows why
 * head position must stay a factor: both jobs benefit from C-SCAN, so
 * the blind Iso policy pays ~30% extra positioning latency while PIso
 * keeps it near the Pos level.
 *
 * Paper values (response s / wait ms / latency ms):
 *   Pos : small 0.93, big 0.81 | 155.8 / 12.1 | 6.4
 *   Iso : small 0.56, big 1.22 |  68.9 / 23.7 | 8.2
 *   PIso: small 0.28, big 0.96 |  31.9 / 16.6 | 6.6
 *
 * Shape to hold: Pos lets the big copy lock out the small one (the
 * small copy finishes *after* the big); both fair policies rescue the
 * small copy; PIso beats Iso on both jobs because it keeps C-SCAN
 * inside the fair subset.
 */

#include <cstdio>

#include "src/piso.hh"

using namespace piso;

namespace {

struct Table4Row
{
    double smallSec = 0.0;
    double bigSec = 0.0;
    double smallWaitMs = 0.0;
    double bigWaitMs = 0.0;
    double latencyMs = 0.0;
};

Table4Row
runPolicy(DiskPolicy policy, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.cpus = 2;
    cfg.memoryBytes = 44 * kMiB;
    cfg.diskCount = 1;
    cfg.scheme = Scheme::PIso;
    cfg.scheme.disk = policy;
    cfg.diskParams.seekScale = 0.5;
    cfg.bwThresholdSectors = 256.0;
    // Plenty of delayed-write headroom: the copies are paced by their
    // reads, as in the paper (responses exclude the final flush).
    cfg.kernel.writeThrottleSectors = 64 * 1024;
    cfg.seed = seed;

    Simulation sim(cfg);
    const SpuId sSmall = sim.addSpu({.name = "small", .homeDisk = 0});
    const SpuId sBig = sim.addSpu({.name = "big", .homeDisk = 0});

    // "The larger copy, by happening to issue requests to the disk
    // earlier, is able to lock out the requests of the smaller copy":
    // the big copy's files sit below the small copy's on the disk, so
    // the C-SCAN head camps on the big stream first.
    FileCopyConfig big;
    big.bytes = 5 * kMiB;
    sim.addJob(sBig, makeFileCopy("big", big));

    FileCopyConfig small;
    small.bytes = 500 * 1024;
    sim.addJob(sSmall, makeFileCopy("small", small));

    const SimResults r = sim.run();
    Table4Row row;
    row.smallSec = r.job("small").responseSec();
    row.bigSec = r.job("big").responseSec();
    const auto &perSpu = r.disks[0].perSpu;
    if (perSpu.count(sSmall))
        row.smallWaitMs = perSpu.at(sSmall).avgWaitMs;
    if (perSpu.count(sBig))
        row.bigWaitMs = perSpu.at(sBig).avgWaitMs;
    row.latencyMs = r.disks[0].avgPositionMs;
    return row;
}

Table4Row
runMean(DiskPolicy policy)
{
    Table4Row sum;
    int n = 0;
    for (std::uint64_t seed : {1, 2, 3}) {
        const Table4Row r = runPolicy(policy, seed);
        sum.smallSec += r.smallSec;
        sum.bigSec += r.bigSec;
        sum.smallWaitMs += r.smallWaitMs;
        sum.bigWaitMs += r.bigWaitMs;
        sum.latencyMs += r.latencyMs;
        ++n;
    }
    sum.smallSec /= n;
    sum.bigSec /= n;
    sum.smallWaitMs /= n;
    sum.bigWaitMs /= n;
    sum.latencyMs /= n;
    return sum;
}

} // namespace

int
main()
{
    printBanner("Table 4: big-and-small copy (shared HP97560, "
                "seek x0.5)");

    const Table4Row pos = runMean(DiskPolicy::HeadPosition);
    const Table4Row iso = runMean(DiskPolicy::BlindFair);
    const Table4Row piso = runMean(DiskPolicy::FairPosition);

    TextTable table({"conf", "Small resp (s)", "Big resp (s)",
                     "Small wait (ms)", "Big wait (ms)",
                     "avg latency (ms)"});
    for (const auto &[name, row] :
         {std::pair<const char *, const Table4Row &>{"Pos", pos},
          {"Iso", iso},
          {"PIso", piso}}) {
        table.addRow({name, TextTable::num(row.smallSec, 2),
                      TextTable::num(row.bigSec, 2),
                      TextTable::num(row.smallWaitMs, 1),
                      TextTable::num(row.bigWaitMs, 1),
                      TextTable::num(row.latencyMs, 1)});
    }
    table.print();

    std::printf("\npaper: Pos 0.93/0.81 (155.8/12.1) 6.4 | "
                "Iso 0.56/1.22 (68.9/23.7) 8.2 | "
                "PIso 0.28/0.96 (31.9/16.6) 6.6\n");
    std::printf("shape checks: small copy slower than big under Pos: "
                "%s; PIso small fastest: %s;\n"
                "Iso latency worst: %s\n",
                pos.smallSec > pos.bigSec ? "yes" : "NO",
                piso.smallSec < iso.smallSec &&
                        piso.smallSec < pos.smallSec
                    ? "yes"
                    : "NO",
                iso.latencyMs > piso.latencyMs &&
                        iso.latencyMs > pos.latencyMs
                    ? "yes"
                    : "NO");
    return 0;
}

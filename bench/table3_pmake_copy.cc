/**
 * @file
 * Table 3 reproduction: the pmake-copy disk workload (Section 4.5).
 *
 * Two SPUs share one HP 97560 disk (seek latency halved, as in the
 * paper): one runs a pmake (hundreds of scattered requests, repeated
 * single-sector metadata writes), the other copies a 20 MB file
 * (contiguous requests, kernel read-ahead, delayed writes). Cold
 * buffer caches.
 *
 * Paper shape (Pos -> PIso): pmake response falls ~39% and its mean
 * request wait ~76% (the copy no longer locks it out); the copy pays
 * ~23%; average disk positioning latency barely changes. The blind
 * Iso policy performs like PIso *on this workload* because pmake's
 * requests are irregular anyway.
 */

#include <cstdio>

#include "src/piso.hh"

using namespace piso;

namespace {

struct Table3Row
{
    double pmakeSec = 0.0;
    double copySec = 0.0;
    double pmakeWaitMs = 0.0;
    double copyWaitMs = 0.0;
    double latencyMs = 0.0;  //!< mean seek+rotation per request
    std::uint64_t requests = 0;
};

Table3Row
runPolicy(DiskPolicy policy, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.cpus = 2;
    cfg.memoryBytes = 44 * kMiB;
    cfg.diskCount = 1;
    cfg.scheme = Scheme::PIso;
    cfg.scheme.disk = policy;
    cfg.diskParams.seekScale = 0.5;  // the paper's scaling factor 2
    // BW difference threshold calibrated so fairness alternates in
    // long runs (amortised seeks), matching the paper's "latency
    // roughly unchanged" observation.
    cfg.bwThresholdSectors = 1024.0;
    cfg.seed = seed;

    Simulation sim(cfg);
    const SpuId pmk = sim.addSpu({.name = "pmk", .homeDisk = 0});
    const SpuId cpy = sim.addSpu({.name = "cpy", .homeDisk = 0});

    PmakeConfig pm;
    pm.parallelism = 2;
    pm.filesPerWorker = 40;   // ~300 scattered requests in total
    pm.compileCpu = 25 * kMs; // disk-bound build
    pm.workerWsPages = 200;
    sim.addJob(pmk, makePmake("pmake", pm));

    FileCopyConfig cc;
    cc.bytes = 20 * kMiB;     // the paper's 20 MB copy
    sim.addJob(cpy, makeFileCopy("copy", cc));

    const SimResults r = sim.run();
    Table3Row row;
    row.pmakeSec = r.job("pmake").responseSec();
    row.copySec = r.job("copy").responseSec();
    const auto &perSpu = r.disks[0].perSpu;
    if (perSpu.count(pmk))
        row.pmakeWaitMs = perSpu.at(pmk).avgWaitMs;
    if (perSpu.count(cpy))
        row.copyWaitMs = perSpu.at(cpy).avgWaitMs;
    row.latencyMs = r.disks[0].avgPositionMs;
    row.requests = r.disks[0].requests;
    return row;
}

Table3Row
runMean(DiskPolicy policy)
{
    Table3Row sum;
    int n = 0;
    for (std::uint64_t seed : {1, 2, 3}) {
        const Table3Row r = runPolicy(policy, seed);
        sum.pmakeSec += r.pmakeSec;
        sum.copySec += r.copySec;
        sum.pmakeWaitMs += r.pmakeWaitMs;
        sum.copyWaitMs += r.copyWaitMs;
        sum.latencyMs += r.latencyMs;
        sum.requests += r.requests;
        ++n;
    }
    sum.pmakeSec /= n;
    sum.copySec /= n;
    sum.pmakeWaitMs /= n;
    sum.copyWaitMs /= n;
    sum.latencyMs /= n;
    sum.requests /= static_cast<std::uint64_t>(n);
    return sum;
}

} // namespace

int
main()
{
    printBanner("Table 3: pmake-copy disk workload "
                "(shared HP97560, seek x0.5)");

    const Table3Row pos = runMean(DiskPolicy::HeadPosition);
    const Table3Row iso = runMean(DiskPolicy::BlindFair);
    const Table3Row piso = runMean(DiskPolicy::FairPosition);

    TextTable table({"conf", "Pmk resp (s)", "Cpy resp (s)",
                     "Pmk wait (ms)", "Cpy wait (ms)",
                     "avg latency (ms)"});
    for (const auto &[name, row] :
         {std::pair<const char *, const Table3Row &>{"Pos", pos},
          {"Iso", iso},
          {"PIso", piso}}) {
        table.addRow({name, TextTable::num(row.pmakeSec, 2),
                      TextTable::num(row.copySec, 2),
                      TextTable::num(row.pmakeWaitMs, 1),
                      TextTable::num(row.copyWaitMs, 1),
                      TextTable::num(row.latencyMs, 1)});
    }
    table.print();

    std::printf("\npaper deltas (Pos -> PIso): pmake response -39%%, "
                "pmake wait -76%%, copy response +23%%,\n"
                "latency ~unchanged; ours: pmake %+.0f%%, wait %+.0f%%, "
                "copy %+.0f%%, latency %+.0f%%\n",
                100.0 * (piso.pmakeSec / pos.pmakeSec - 1.0),
                100.0 * (piso.pmakeWaitMs / pos.pmakeWaitMs - 1.0),
                100.0 * (piso.copySec / pos.copySec - 1.0),
                100.0 * (piso.latencyMs / pos.latencyMs - 1.0));
    std::printf("(disk requests per run: ~%llu; paper: ~1350 "
                "[300 pmake + 1050 copy])\n",
                static_cast<unsigned long long>(pos.requests));
    return 0;
}

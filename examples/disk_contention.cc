/**
 * @file
 * The core-dump story of Section 3.3: "a read or write to a large
 * file (e.g. a core dump) could monopolize the disk, causing all
 * requests from one SPU to a file to be serviced before requests from
 * other SPUs are scheduled."
 *
 * One user's process dumps an enormous core file while another user
 * runs an interactive, disk-dependent build on the same disk. We
 * show the build's per-request wait under the three disk policies.
 */

#include <cstdio>

#include "src/piso.hh"

using namespace piso;

namespace {

struct Outcome
{
    double buildSec = 0.0;
    double buildWaitMs = 0.0;
    double dumpSec = 0.0;
};

Outcome
run(DiskPolicy policy)
{
    SystemConfig cfg;
    cfg.cpus = 2;
    cfg.memoryBytes = 48 * kMiB;
    cfg.diskCount = 1;
    cfg.scheme = Scheme::PIso;
    cfg.scheme.disk = policy;
    cfg.diskParams.seekScale = 0.5;
    cfg.seed = 3;

    Simulation sim(cfg);
    const SpuId dev = sim.addSpu({.name = "developer", .homeDisk = 0});
    const SpuId victim = sim.addSpu({.name = "dumper", .homeDisk = 0});

    // The interactive build: lots of small scattered reads.
    PmakeConfig build;
    build.parallelism = 2;
    build.filesPerWorker = 20;
    build.compileCpu = 20 * kMs;
    build.workerWsPages = 150;
    sim.addJob(dev, makePmake("build", build));

    // The core dump: one process streams 24 MB to disk.
    FileCopyConfig dump;
    dump.bytes = 24 * kMiB;
    sim.addJob(victim, makeFileCopy("coredump", dump));

    const SimResults r = sim.run();
    Outcome out;
    out.buildSec = r.job("build").responseSec();
    out.dumpSec = r.job("coredump").responseSec();
    if (r.disks[0].perSpu.count(dev))
        out.buildWaitMs = r.disks[0].perSpu.at(dev).avgWaitMs;
    return out;
}

} // namespace

int
main()
{
    printBanner("Disk contention: interactive build vs a 24 MB core "
                "dump on one disk");

    TextTable table({"disk policy", "build (s)", "build wait (ms)",
                     "dump (s)"});
    for (DiskPolicy p : {DiskPolicy::HeadPosition, DiskPolicy::BlindFair,
                         DiskPolicy::FairPosition}) {
        const Outcome o = run(p);
        table.addRow({diskPolicyName(p), TextTable::num(o.buildSec, 2),
                      TextTable::num(o.buildWaitMs, 1),
                      TextTable::num(o.dumpSec, 2)});
    }
    table.print();

    std::printf("\nUnder plain C-SCAN (Pos) the dump's contiguous "
                "stream parks the head and\nthe build's requests wait "
                "behind it. The fair policies bound the dump's\n"
                "bandwidth share; PIso additionally keeps C-SCAN "
                "efficiency inside the fair set.\n");
    return 0;
}

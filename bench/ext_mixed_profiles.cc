/**
 * @file
 * Extension bench: a mixed per-resource profile, something the paper's
 * machine-wide schemes cannot express.
 *
 * Two SPUs on a small machine: "build" runs a four-worker pmake that
 * wants every CPU but fits its memory half; "stream" runs a large file
 * copy that is disk-bound (its CPUs sit mostly idle) while its pages
 * stream through the buffer cache. The mixed profile combines PIso's
 * CPU policy with Quota's memory policy:
 *
 *  - CPU sharing: under Quota the pmake is confined to its two-CPU
 *    partition while the stream's CPUs idle. PIso CPU loans them out,
 *    and the mixed run must match the uniform-PIso pmake response.
 *  - Memory isolation: under SMP's global replacement the stream's
 *    cache pages evict the pmake's working set (refaults). Quota
 *    memory caps the stream at its half, and the mixed run must match
 *    uniform Quo's refault level, far below SMP's.
 *
 * The checks at the bottom fail the bench (exit 1) if either dimension
 * drifts from the scheme it borrows.
 */

#include <cstdio>
#include <cstdlib>

#include "src/piso.hh"

using namespace piso;

namespace {

struct MixedRun
{
    double buildSec = 0.0;       //!< pmake response, seconds
    double streamSec = 0.0;      //!< copy response, seconds
    std::uint64_t refaults = 0;  //!< kernel-wide refaults
};

MixedRun
runProfile(const SchemeProfile &profile, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.cpus = 4;
    cfg.memoryBytes = 16 * kMiB;
    cfg.diskCount = 2;
    cfg.seed = seed;
    cfg.scheme = profile;

    Simulation sim(cfg);
    const SpuId build = sim.addSpu({.name = "build", .homeDisk = 0});
    const SpuId stream = sim.addSpu({.name = "stream", .homeDisk = 1});

    PmakeConfig pmake;
    pmake.parallelism = 4;  // wants the whole machine, entitled to half
    pmake.filesPerWorker = 60;  // long enough to overlap the stream
    pmake.compileCpu = 200 * kMs;
    pmake.workerWsPages = 340;  // ~5.3 MB total: fits the SPU's half
    pmake.touchInterval = 10 * kMs;
    sim.addJob(build, makePmake("pmake", pmake));

    FileCopyConfig copy;
    copy.bytes = 32 * kMiB;  // streams 2x physical memory
    sim.addJob(stream, makeFileCopy("copy", copy));

    const SimResults r = sim.run();
    return MixedRun{r.job("pmake").responseSec(),
                    r.job("copy").responseSec(),
                    r.kernel.refaults.value()};
}

MixedRun
runMean(const SchemeProfile &profile)
{
    MixedRun sum;
    int n = 0;
    for (std::uint64_t seed : {1, 2, 3}) {
        const MixedRun r = runProfile(profile, seed);
        sum.buildSec += r.buildSec;
        sum.streamSec += r.streamSec;
        sum.refaults += r.refaults;
        ++n;
    }
    return MixedRun{sum.buildSec / n, sum.streamSec / n,
                    sum.refaults / n};
}

int failures = 0;

void
check(bool ok, const char *what)
{
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok)
        ++failures;
}

} // namespace

int
main()
{
    printBanner("Extension: mixed profile (PIso CPU + Quota memory) "
                "vs the uniform schemes");

    SchemeProfile mixed = Scheme::PIso;
    mixed.memory = MemoryPolicy::Quota;

    const MixedRun smp = runMean(Scheme::Smp);
    const MixedRun quo = runMean(Scheme::Quota);
    const MixedRun piso = runMean(Scheme::PIso);
    const MixedRun mix = runMean(mixed);

    TextTable table(
        {"profile", "pmake (s)", "copy (s)", "refaults"});
    table.addRow({"SMP", TextTable::num(smp.buildSec, 2),
                  TextTable::num(smp.streamSec, 2),
                  std::to_string(smp.refaults)});
    table.addRow({"Quo", TextTable::num(quo.buildSec, 2),
                  TextTable::num(quo.streamSec, 2),
                  std::to_string(quo.refaults)});
    table.addRow({"PIso", TextTable::num(piso.buildSec, 2),
                  TextTable::num(piso.streamSec, 2),
                  std::to_string(piso.refaults)});
    table.addRow({mixed.str(), TextTable::num(mix.buildSec, 2),
                  TextTable::num(mix.streamSec, 2),
                  std::to_string(mix.refaults)});
    table.print();

    std::printf("\nchecks:\n");
    // CPU dimension behaves like PIso: the loaned CPUs keep the pmake
    // near the uniform-PIso response, well ahead of the Quota cage.
    check(mix.buildSec <= piso.buildSec * 1.15 &&
              mix.buildSec >= piso.buildSec * 0.85,
          "pmake response matches uniform PIso (CPU loaning works)");
    check(mix.buildSec < quo.buildSec * 0.85,
          "pmake response beats uniform Quo (not CPU-caged)");
    // Memory dimension behaves like Quo: the stream cannot displace
    // the pmake's working set the way SMP's global replacement does.
    check(mix.refaults <= quo.refaults + 50,
          "refaults match uniform Quo (memory capped)");
    check(smp.refaults > quo.refaults + 50,
          "SMP global replacement visibly thrashes (scenario valid)");

    if (failures) {
        std::printf("\n%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("\nThe profile borrows each dimension from a "
                "different column of Table 2 —\nexpressible only "
                "because the policies compose per resource.\n");
    return 0;
}

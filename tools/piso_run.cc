/**
 * @file
 * piso_run: execute a workload-spec file and print the run report.
 *
 *   piso_run workload.piso            # run and summarise
 *   piso_run --compare workload.piso  # run under SMP, Quo, and PIso
 *   piso_run --trace=sched,mem workload.piso  # with execution traces
 *   piso_run --json workload.piso     # machine-readable results
 *
 *   # checkpoint at the first quiescent boundary at/after 2s, then
 *   # later resume a byte-identical continuation (docs/checkpoint.md):
 *   piso_run --checkpoint-at=2 --checkpoint-out=run.ckpt workload.piso
 *   piso_run --restore=run.ckpt workload.piso
 *
 * See src/config/workload_spec.hh for the file format and
 * examples/specs/ for ready-made scenarios.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "src/config/workload_spec.hh"
#include "src/exp/pool.hh"
#include "src/metrics/report.hh"
#include "src/piso.hh"
#include "src/util/log.hh"
#include "src/sim/trace.hh"

using namespace piso;

namespace {

TraceCat
parseTraceList(const char *list)
{
    TraceCat mask = TraceCat::None;
    std::istringstream is(list);
    std::string item;
    while (std::getline(is, item, ',')) {
        if (item == "sched")
            mask = mask | TraceCat::Sched;
        else if (item == "mem")
            mask = mask | TraceCat::Mem;
        else if (item == "disk")
            mask = mask | TraceCat::Disk;
        else if (item == "net")
            mask = mask | TraceCat::Net;
        else if (item == "lock")
            mask = mask | TraceCat::Lock;
        else if (item == "kernel")
            mask = mask | TraceCat::Kernel;
        else if (item == "all")
            mask = TraceCat::All;
        else
            PISO_FATAL("unknown trace category '", item,
                       "' (sched,mem,disk,net,lock,kernel,all)");
    }
    return mask;
}

std::string
readFile(const char *path)
{
    std::ifstream in(path);
    if (!in)
        PISO_FATAL("cannot open '", path, "'");
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
usage(std::FILE *to)
{
    std::fprintf(to,
                 "usage: piso_run [--compare] [--json] [--trace=CATS] "
                 "[--checkpoint-at=T --checkpoint-out=F] [--restore=F] "
                 "<workload-file>\n"
                 "  --compare     run the workload under all three "
                 "schemes (SMP/Quo/PIso)\n"
                 "  --trace=CATS  comma list of sched,mem,disk,net,"
                 "lock,kernel,all\n"
                 "  --json        print machine-readable results\n"
                 "  --checkpoint-at=T   write a checkpoint at the first "
                 "quiescent boundary\n"
                 "                      at or after T seconds of "
                 "simulated time\n"
                 "  --checkpoint-out=F  checkpoint image file (required "
                 "with --checkpoint-at)\n"
                 "  --restore=F   resume from a checkpoint image taken "
                 "with the same workload\n"
                 "  -h, --help    show this help and exit\n"
                 "\n"
                 "The workload file declares SPUs either flat (`spu "
                 "alice share=2`) or as a\n"
                 "tree in a [spus] section with dotted group names "
                 "(`eng.build share=3`);\n"
                 "see docs/workload-format.md. It may end with a "
                 "[faults] section injecting\n"
                 "hardware misbehaviour (disk_slow, disk_error, "
                 "disk_dead, cpu_offline,\n"
                 "cpu_online, mem_shrink, mem_grow); see "
                 "docs/faults.md.\n");
}

int
usageError()
{
    usage(stderr);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    bool compare = false;
    bool json = false;
    double checkpointAtSec = 0;
    const char *checkpointOut = nullptr;
    const char *restorePath = nullptr;
    const char *path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--compare") == 0)
            compare = true;
        else if (std::strcmp(argv[i], "--json") == 0)
            json = true;
        else if (std::strncmp(argv[i], "--trace=", 8) == 0)
            traceEnable(parseTraceList(argv[i] + 8));
        else if (std::strncmp(argv[i], "--checkpoint-at=", 16) == 0) {
            char *end = nullptr;
            checkpointAtSec = std::strtod(argv[i] + 16, &end);
            if (!end || *end != '\0' || checkpointAtSec <= 0) {
                std::fprintf(stderr,
                             "piso_run: --checkpoint-at wants a "
                             "positive time in seconds\n");
                return 2;
            }
        } else if (std::strncmp(argv[i], "--checkpoint-out=", 17) == 0)
            checkpointOut = argv[i] + 17;
        else if (std::strncmp(argv[i], "--restore=", 10) == 0)
            restorePath = argv[i] + 10;
        else if (std::strcmp(argv[i], "-h") == 0 ||
                 std::strcmp(argv[i], "--help") == 0) {
            usage(stdout);
            return 0;
        } else if (argv[i][0] == '-')
            return usageError();
        else if (!path)
            path = argv[i];
        else
            return usageError();
    }
    if (!path)
        return usageError();
    if ((checkpointAtSec > 0) != (checkpointOut != nullptr)) {
        std::fprintf(stderr,
                     "piso_run: --checkpoint-at and --checkpoint-out "
                     "must be given together\n");
        return 2;
    }
    if (compare && (checkpointOut || restorePath)) {
        std::fprintf(stderr,
                     "piso_run: --compare cannot be combined with "
                     "checkpoint/restore (the image belongs to one "
                     "scheme's run)\n");
        return 2;
    }

    WorkloadSpec spec;
    try {
        spec = parseWorkloadSpec(readFile(path));
    } catch (const std::exception &e) {
        // One line: file, line (from the parser), reason.
        std::fprintf(stderr, "piso_run: %s: %s\n", path, e.what());
        return 1;
    }

    try {
        if (!compare) {
            if (checkpointOut) {
                spec.config.checkpointAt =
                    static_cast<Time>(checkpointAtSec * kSec);
                spec.config.checkpointSink =
                    [checkpointOut](std::string image) {
                        std::ofstream out(checkpointOut,
                                          std::ios::binary);
                        out.write(image.data(),
                                  static_cast<std::streamsize>(
                                      image.size()));
                        if (!out)
                            PISO_FATAL("cannot write checkpoint to '",
                                       checkpointOut, "'");
                    };
            }
            const SimResults r =
                restorePath
                    ? runWorkloadSpecFrom(spec, readFile(restorePath))
                    : runWorkloadSpec(spec);
            if (json) {
                // Interactive output: include the simulator's own perf
                // counters. Deterministic consumers (goldens, sweep
                // JSONL) call formatResultsJson without perf.
                std::printf("%s\n",
                            formatResultsJson(r, true).c_str());
                return 0;
            }
            const SchemeProfile &profile = spec.config.scheme;
            const auto uniform = profile.asUniform();
            printBanner(std::string("piso_run: ") + path + " (" +
                        (uniform ? schemeName(*uniform) : profile.str()) +
                        ")");
            std::fputs(formatResults(r, true).c_str(), stdout);
            return 0;
        }

        printBanner(std::string("piso_run --compare: ") + path);
        // A spec whose resolved profile is mixed gets its own column
        // next to the three uniform schemes. All variants run in
        // parallel on the sweep engine's pool (each Simulation is
        // self-contained; see src/exp/pool.hh).
        const SchemeProfile &specProfile = spec.config.scheme;
        const bool mixedColumn = specProfile.mixed();
        std::vector<WorkloadSpec> variants;
        for (Scheme s :
             {Scheme::Smp, Scheme::Quota, Scheme::PIso}) {
            WorkloadSpec uniform = spec;
            uniform.config.scheme = s;
            variants.push_back(std::move(uniform));
        }
        if (mixedColumn)
            variants.push_back(spec);
        // Carry any --trace configuration to the worker threads (each
        // gets its own copy; stderr writes are line-atomic).
        const TraceContext ambientTrace = traceContext();
        const auto all = exp::parallelMap<SimResults>(
            variants.size(), 0, [&](std::size_t i) {
                TraceContext ctx = ambientTrace;
                TraceContextScope scope(ctx);
                return runWorkloadSpec(variants[i]);
            });
        std::map<Scheme, SimResults> results;
        results.emplace(Scheme::Smp, all[0]);
        results.emplace(Scheme::Quota, all[1]);
        results.emplace(Scheme::PIso, all[2]);
        std::optional<SimResults> mixedResults;
        if (mixedColumn)
            mixedResults = all[3];
        std::vector<std::string> headers{"job", "SMP (s)", "Quo (s)",
                                         "PIso (s)"};
        if (mixedColumn) {
            std::printf("mixed profile: %s\n\n",
                        specProfile.str().c_str());
            headers.push_back("mixed (s)");
        }
        TextTable table(headers);
        for (const JobResult &j : results.at(Scheme::Smp).jobs) {
            std::vector<std::string> row{
                j.name, TextTable::num(j.responseSec(), 2),
                TextTable::num(results.at(Scheme::Quota)
                                   .job(j.name)
                                   .responseSec(),
                               2),
                TextTable::num(results.at(Scheme::PIso)
                                   .job(j.name)
                                   .responseSec(),
                               2)};
            if (mixedColumn) {
                row.push_back(TextTable::num(
                    mixedResults->job(j.name).responseSec(), 2));
            }
            table.addRow(std::move(row));
        }
        table.print();
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "piso_run: %s\n", e.what());
        return 1;
    }
}

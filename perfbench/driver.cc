/**
 * @file
 * Host-time benchmark driver for the piso simulator (see README.md).
 *
 *   perfbench_driver --workload NAME [--seed N] [--seconds S]
 *                    [--trace 0|1] [--quick] [--golden-dir DIR]
 *                    [--span-dir DIR] [--git-commit REV]
 *                    [--source-digest HEX]
 *
 * Runs one workload in a closed loop on this one thread: the next op
 * starts when the previous one has returned. An op is one unit of user
 * work, timed only around calls into the library's public API:
 *
 *   pmake8, scale256     Simulation construction through
 *                        formatResultsJson (what `piso_run --json`
 *                        does), plus the Simulation's destruction;
 *   sweep_cpu, sweep_io  parseWorkloadSpec + exp::runPlan (serial,
 *                        warm start on) + formatSweepJsonl (what
 *                        `piso_sweep` does).
 *
 * Every op's output is checked: pmake8's seed-1 ops against the
 * checked-in tests/golden/fig2_*.json (read, never written), every
 * other op against the first run of the same input (digest and event
 * count), and each sweep against a cold (warmStart = false) run of the
 * same plan. --trace 0 reports the end-to-end metrics; --trace 1 runs
 * a span pass and a capturing-TraceSink pass and reports the
 * per-layer metrics. The last stdout line is one JSON object:
 * {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench/pmake8.hh"
#include "perfbench/spans.hh"
#include "src/config/workload_spec.hh"
#include "src/exp/experiment.hh"
#include "src/exp/runner.hh"
#include "src/piso.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/trace.hh"

using namespace piso;
using namespace perfbench;

namespace {

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** Linear-interpolated quantile (numpy's default), q in [0, 1]. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Shortest round-trip decimal form, valid JSON. */
std::string
jsonNumber(double v)
{
    if (!(v == v) || v > 1e300 || v < -1e300)
        return "0";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
readFile(const std::string &path, bool *ok)
{
    std::ifstream in(path, std::ios::binary);
    *ok = in.good();
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// ---------------------------------------------------------------------
// Host stamp
// ---------------------------------------------------------------------

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        std::array<unsigned, 12> regs{};
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        char text[49] = {};
        std::memcpy(text, regs.data(), 48);
        std::string s(text);
        const auto b = s.find_first_not_of(' ');
        const auto e = s.find_last_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
    }
#endif
    return "unknown";
}

int
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return CPU_COUNT(&set);
    return static_cast<int>(std::thread::hardware_concurrency());
}

/**
 * Peak resident set of this process image. getrusage()'s ru_maxrss
 * survives execve(), so a driver started from a larger launcher would
 * report the launcher's peak; the kernel's VmHWM starts afresh at exec.
 */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---------------------------------------------------------------------
// Per-op records
// ---------------------------------------------------------------------

/** Simulated-work counters of the layers, summed over an op's runs. */
struct LayerCounts
{
    double events = 0, itersCpu = 0, itersMem = 0, itersDisk = 0,
           itersNet = 0;
    double zeroFills = 0, refaults = 0, cacheHits = 0, cacheMisses = 0,
           readRequests = 0, readAhead = 0, bdflush = 0,
           pageoutWrites = 0, throttleStalls = 0, ioRetries = 0;
    double diskRequests = 0, diskSectors = 0, diskBusySum = 0,
           diskCount = 0, numaRemote = 0;

    void
    add(const SimResults &r)
    {
        events += static_cast<double>(r.perf.events);
        itersCpu += static_cast<double>(r.perf.policyItersCpu);
        itersMem += static_cast<double>(r.perf.policyItersMem);
        itersDisk += static_cast<double>(r.perf.policyItersDisk);
        itersNet += static_cast<double>(r.perf.policyItersNet);
        const KernelStats &k = r.kernel;
        zeroFills += static_cast<double>(k.zeroFills.value());
        refaults += static_cast<double>(k.refaults.value());
        cacheHits += static_cast<double>(k.cacheHits.value());
        cacheMisses += static_cast<double>(k.cacheMisses.value());
        readRequests += static_cast<double>(k.readRequests.value());
        readAhead += static_cast<double>(k.readAheadRequests.value());
        bdflush += static_cast<double>(k.bdflushRequests.value());
        pageoutWrites += static_cast<double>(k.pageoutWrites.value());
        throttleStalls += static_cast<double>(k.throttleStalls.value());
        ioRetries += static_cast<double>(k.ioRetries.value());
        for (const DiskResult &d : r.disks) {
            diskRequests += static_cast<double>(d.requests);
            diskSectors += static_cast<double>(d.sectors);
            diskBusySum += d.busyFraction;
            diskCount += 1;
        }
        numaRemote += static_cast<double>(r.numa.remoteTouches);
    }

    void
    add(const LayerCounts &o)
    {
        events += o.events;
        itersCpu += o.itersCpu;
        itersMem += o.itersMem;
        itersDisk += o.itersDisk;
        itersNet += o.itersNet;
        zeroFills += o.zeroFills;
        refaults += o.refaults;
        cacheHits += o.cacheHits;
        cacheMisses += o.cacheMisses;
        readRequests += o.readRequests;
        readAhead += o.readAhead;
        bdflush += o.bdflush;
        pageoutWrites += o.pageoutWrites;
        throttleStalls += o.throttleStalls;
        ioRetries += o.ioRetries;
        diskRequests += o.diskRequests;
        diskSectors += o.diskSectors;
        diskBusySum += o.diskBusySum;
        diskCount += o.diskCount;
        numaRemote += o.numaRemote;
    }
};

/** Everything one op measured. Times are host seconds. */
struct OpRecord
{
    double wallSec = 0;   //!< the whole op
    double loopSec = 0;   //!< sum of RunPerf::wallSec (event loops)
    double simSec = 0;    //!< simulated seconds of the op's results
    double parseSec = 0;  //!< parseWorkloadSpec/parseGridAxis/expandPlan
    double buildSec = 0;  //!< wrapped JobSpec::build calls
    double setupSec = 0;  //!< Simulation setup outside build and loop
    double formatSec = 0; //!< formatResultsJson / formatSweepJsonl
    double overheadSec = 0;  //!< sweep wall minus its tasks' loops
    double buildCalls = 0;
    double files = 0;     //!< createFile calls the inputs imply
    std::vector<double> taskSec;  //!< per-task RunPerf::wallSec
    double tasks = 0, warmTasks = 0;
    LayerCounts counts;
    bool ok = true;
    std::string failure;

    void
    fail(const std::string &why)
    {
        if (ok)
            failure = why;
        ok = false;
    }
};

/** Checkpoint probe outcome. */
struct ProbeResult
{
    double saveMs = 0, restoreMs = 0, imageBytes = 0;
    int found = 0, attempts = 0;
    bool ok = true;
    std::string failure;
};

/** Wrap @p spec's build function so each call is timed into @p rec
 *  (and recorded as a workload.build span). */
JobSpec
timedBuild(JobSpec spec, OpRecord *rec, SpanLog *spans)
{
    spec.build = [inner = std::move(spec.build), rec, spans](
                     Kernel &kernel, WorkloadEnv &env) {
        SpanScope span(spans, "workload.build");
        const auto start = Clock::now();
        auto procs = inner(kernel, env);
        rec->buildSec += secondsBetween(start, Clock::now());
        rec->buildCalls += 1;
        return procs;
    };
    return spec;
}

/** The checkpoint ladder of the warm-start engine: boundaries are
 *  looked for at these fractions of the divergence time. */
constexpr double kLadder[] = {0.75, 0.5, 0.25, 0.0};

/**
 * Time restore() of @p image onto a fresh, identically populated
 * simulation and checkpoint() of the restored state, @p reps times;
 * the re-saved image must equal the restored one byte for byte.
 */
void
probeRestore(const SystemConfig &cfg,
             const std::function<void(Simulation &)> &populate,
             const std::string &image, int reps, SpanLog *spans,
             ProbeResult &out)
{
    std::vector<double> save, restore;
    for (int i = 0; i < reps; ++i) {
        Simulation sim(cfg);
        populate(sim);
        std::istringstream in(image);
        auto t0 = Clock::now();
        {
            SpanScope span(spans, "sim.ckpt_restore");
            sim.restore(in);
        }
        auto t1 = Clock::now();
        std::ostringstream os;
        {
            SpanScope span(spans, "sim.ckpt_save");
            sim.checkpoint(os);
        }
        auto t2 = Clock::now();
        restore.push_back(secondsBetween(t0, t1));
        save.push_back(secondsBetween(t1, t2));
        if (os.str() != image) {
            out.ok = false;
            out.failure = "re-saved checkpoint image differs from the "
                          "restored one";
        }
        out.imageBytes = static_cast<double>(os.str().size());
    }
    out.restoreMs = median(restore) * 1e3;
    out.saveMs = median(save) * 1e3;
}

/** Run @p cfg (checkpoint fields set by the caller) to its checkpoint;
 *  returns the image, empty when no boundary was found. */
std::string
checkpointImage(SystemConfig cfg,
                const std::function<void(Simulation &)> &populate)
{
    std::string image;
    cfg.checkpointStop = true;
    cfg.checkpointSink = [&image](std::string img) {
        image = std::move(img);
    };
    try {
        Simulation sim(cfg);
        populate(sim);
        sim.run();
    } catch (const std::exception &) {
        return std::string();
    }
    return image;
}

/**
 * The checkpoint probe: look for a quiescent boundary at each ladder
 * fraction of @p divergeAt (deadline divergeAt), then time restore and
 * save of the latest image found. When the ladder finds none, the
 * first boundary after t = 0 is used for the timings instead.
 */
ProbeResult
runProbe(const SystemConfig &base,
         const std::function<void(Simulation &)> &populate,
         Time divergeAt, int reps, SpanLog *spans)
{
    ProbeResult out;
    std::string image;
    for (const double fraction : kLadder) {
        SystemConfig cfg = base;
        cfg.checkpointAt = std::max<Time>(
            1, static_cast<Time>(static_cast<double>(divergeAt) *
                                 fraction));
        cfg.checkpointDeadline = divergeAt;
        std::string img = checkpointImage(cfg, populate);
        ++out.attempts;
        if (!img.empty() && CkptReader(img).time() < divergeAt) {
            ++out.found;
            if (image.empty())
                image = std::move(img);
        }
    }
    if (image.empty()) {
        SystemConfig cfg = base;
        cfg.checkpointAt = 1;
        image = checkpointImage(cfg, populate);
    }
    if (image.empty())
        return out;
    try {
        probeRestore(base, populate, image, reps, spans, out);
    } catch (const std::exception &e) {
        out.ok = false;
        out.failure = std::string("checkpoint probe: ") + e.what();
    }
    return out;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Untimed reference runs the timed ops are checked against. Each
     *  is itself an op and is returned as one. */
    virtual std::vector<OpRecord> prepare() = 0;

    /** Number of distinct inputs the ops cycle through. */
    virtual std::size_t cases() const = 0;

    /** One op on input i % cases(). With @p spans, spans are recorded
     *  and each JobSpec::build the driver can reach is timed. */
    virtual OpRecord runOp(std::size_t i, SpanLog *spans) = 0;

    /** Checkpoint probe on the first input. */
    virtual ProbeResult probe(int reps, SpanLog *spans) = 0;
};

/** pmake8 and scale256: one Simulation per op. */
class SimWorkload : public Workload
{
  public:
    using AddJob = std::function<void(SpuId, JobSpec)>;

    struct Case
    {
        std::string label;
        SystemConfig cfg;
        std::function<void(Simulation &, const AddJob &)> populate;
        double files = 0;      //!< createFile calls the inputs imply
        bool mustComplete = true;
        std::string golden;    //!< expected JSON; empty = none
        // Reference, from the first run.
        std::uint64_t digest = 0;
        std::uint64_t events = 0;
        Time simulatedTime = 0;
    };

    explicit SimWorkload(std::vector<Case> cases)
        : cases_(std::move(cases))
    {
    }

    std::size_t cases() const override { return cases_.size(); }

    std::vector<OpRecord>
    prepare() override
    {
        std::vector<OpRecord> recs;
        for (std::size_t i = 0; i < cases_.size(); ++i)
            recs.push_back(runOp(i, nullptr));
        return recs;
    }

    OpRecord
    runOp(std::size_t i, SpanLog *spans) override
    {
        Case &c = cases_[i % cases_.size()];
        OpRecord rec;
        rec.files = c.files;
        try {
            std::optional<Simulation> sim;
            const auto t0 = Clock::now();
            {
                SpanScope span(spans, "simulation.construct");
                sim.emplace(c.cfg);
            }
            {
                SpanScope span(spans, "simulation.populate");
                c.populate(*sim, [&](SpuId spu, JobSpec spec) {
                    if (spans)
                        spec = timedBuild(std::move(spec), &rec, spans);
                    sim->addJob(spu, std::move(spec));
                });
            }
            SimResults r;
            {
                SpanScope span(spans, "simulation.run");
                r = sim->run();
                if (spans)
                    spans->addDerived("sim.loop", {r.perf.wallSec});
            }
            const auto t3 = Clock::now();
            std::string json;
            {
                SpanScope span(spans, "metrics.format");
                json = formatResultsJson(r);
            }
            const auto t4 = Clock::now();
            {
                SpanScope span(spans, "simulation.destroy");
                sim.reset();
            }
            const auto t5 = Clock::now();

            rec.wallSec = secondsBetween(t0, t5);
            rec.loopSec = r.perf.wallSec;
            rec.simSec = toSeconds(r.simulatedTime);
            rec.formatSec = secondsBetween(t3, t4);
            rec.setupSec =
                secondsBetween(t0, t3) - r.perf.wallSec - rec.buildSec;
            rec.counts.add(r);
            check(c, r, json, rec);
        } catch (const std::exception &e) {
            rec.fail(c.label + ": threw: " + e.what());
        }
        return rec;
    }

    ProbeResult
    probe(int reps, SpanLog *spans) override
    {
        const Case &c = cases_.front();
        const auto populate = [&c](Simulation &sim) {
            c.populate(sim, [&sim](SpuId spu, JobSpec spec) {
                sim.addJob(spu, std::move(spec));
            });
        };
        // A single simulation diverges from nothing: the ladder runs
        // over its whole simulated length.
        return runProbe(c.cfg, populate, c.simulatedTime, reps, spans);
    }

  private:
    void
    check(Case &c, const SimResults &r, const std::string &json,
          OpRecord &rec)
    {
        if (c.mustComplete && !r.completed)
            rec.fail(c.label + ": simulation did not complete");
        if (!c.golden.empty() && json != c.golden)
            rec.fail(c.label + ": results differ from the golden file");
        const std::uint64_t digest = fnv1a(json);
        if (c.digest == 0) {
            c.digest = digest;
            c.events = r.perf.events;
            c.simulatedTime = r.simulatedTime;
            return;
        }
        if (digest != c.digest)
            rec.fail(c.label + ": results differ from the first run");
        if (r.perf.events != c.events)
            rec.fail(c.label + ": event count differs from the first run");
    }

    std::vector<Case> cases_;
};

/** createFile calls of one pmake job (a metadata file plus a source
 *  and an object file per compile). */
double
pmakeFiles(const PmakeConfig &p)
{
    return 1.0 + 2.0 * p.parallelism * p.filesPerWorker;
}

/** The Figure 2 machine (bench/pmake8.hh) under SMP, Quo and PIso,
 *  each over kPmake8Seeds simulation seeds. Mirrors populatePmake8()
 *  with every job passed through @p add; the golden check pins the
 *  two to the same results. */
constexpr int kPmake8Seeds = 4;

std::unique_ptr<Workload>
makePmake8(std::uint64_t seed, const std::string &goldenDir,
           std::vector<std::string> &errors)
{
    PmakeConfig pmake;
    pmake.parallelism = 2;
    pmake.filesPerWorker = 8;
    pmake.compileCpu = 220 * kMs;
    pmake.workerWsPages = 330;

    std::vector<SimWorkload::Case> cases;
    const std::pair<Scheme, const char *> schemes[] = {
        {Scheme::Smp, "smp"}, {Scheme::Quota, "quota"},
        {Scheme::PIso, "piso"}};
    for (int k = 0; k < kPmake8Seeds; ++k) {
        const std::uint64_t simSeed = (seed - 1) * kPmake8Seeds + 1 +
                                      static_cast<std::uint64_t>(k);
        for (const auto &[scheme, name] : schemes) {
            SimWorkload::Case c;
            c.label = std::string("fig2_") + name + " seed " +
                      std::to_string(simSeed);
            c.cfg = bench::pmake8Config(scheme, simSeed);
            c.files = 12 * pmakeFiles(pmake);
            c.populate = [pmake](Simulation &sim,
                                 const SimWorkload::AddJob &add) {
                PmakeConfig p = pmake;
                p.inodeLock = sim.kernel().createLock(true);
                for (int u = 0; u < 8; ++u) {
                    const SpuId spu = sim.addSpu(
                        {.name = "user" + std::to_string(u + 1),
                         .homeDisk = static_cast<DiskId>(u)});
                    const int jobs = u >= 4 ? 2 : 1;
                    for (int j = 0; j < jobs; ++j) {
                        add(spu, makePmake("pm-u" + std::to_string(u + 1) +
                                               "-j" + std::to_string(j),
                                           p));
                    }
                }
            };
            if (simSeed == 1) {
                const std::string path =
                    goldenDir + "/fig2_" + name + ".json";
                bool ok = false;
                c.golden = readFile(path, &ok);
                if (!ok || c.golden.empty())
                    errors.push_back("cannot read golden file " + path);
            }
            cases.push_back(std::move(c));
        }
    }
    return std::make_unique<SimWorkload>(std::move(cases));
}

/** bench/ext_scale's largest point (256 CPUs x 512 SPUs, PIso, 10 s
 *  horizon) with NUMA on, over kScaleSeeds simulation seeds. */
constexpr int kScaleSeeds = 2;

std::unique_ptr<Workload>
makeScale256(std::uint64_t seed)
{
    constexpr int kCpus = 256, kSpus = 512, kActive = 8;
    const Time horizon = 10 * kSec;
    PmakeConfig pmake;
    pmake.parallelism = 2;
    pmake.filesPerWorker = 4096;
    pmake.compileCpu = 2 * kMs;
    pmake.workerWsPages = 330;

    std::vector<SimWorkload::Case> cases;
    for (int k = 0; k < kScaleSeeds; ++k) {
        const std::uint64_t simSeed = (seed - 1) * kScaleSeeds + 1 +
                                      static_cast<std::uint64_t>(k);
        SimWorkload::Case c;
        c.label = "scale256 seed " + std::to_string(simSeed);
        c.cfg.cpus = kCpus;
        c.cfg.memoryBytes = 512 * kMiB;
        c.cfg.diskCount = 8;
        c.cfg.scheme = Scheme::PIso;
        c.cfg.maxTime = horizon;
        c.cfg.seed = simSeed;
        c.cfg.numa.domains = 8;
        c.cfg.numa.localLatency = 1 * kUs;
        c.cfg.numa.remoteLatency = 3 * kUs;
        // The active pmakes outlast the horizon by design.
        c.mustComplete = false;
        c.files = 2 * kActive * pmakeFiles(pmake);
        c.populate = [pmake, horizon](Simulation &sim,
                                      const SimWorkload::AddJob &add) {
            PmakeConfig p = pmake;
            p.inodeLock = sim.kernel().createLock(true);
            const int disks = sim.config().diskCount;
            for (int u = 0; u < kSpus; ++u) {
                const SpuId spu = sim.addSpu(
                    {.name = "u" + std::to_string(u),
                     .homeDisk = static_cast<DiskId>(u % disks)});
                if (u < kActive) {
                    add(spu, makePmake("pm" + std::to_string(u) + "a", p));
                    add(spu, makePmake("pm" + std::to_string(u) + "b", p));
                }
                // A low-duty daemon per SPU puts the whole population
                // in the policy registries (as in bench/ext_scale).
                std::vector<Action> script;
                const Time nap = 900 * kMs + static_cast<Time>(u) * kUs;
                for (int i = 0; i < 2 + static_cast<int>(toSeconds(horizon));
                     ++i) {
                    script.push_back(SleepAction{nap});
                    script.push_back(ComputeAction{50 * kUs});
                }
                add(spu, makeScriptJob("d" + std::to_string(u),
                                       std::move(script)));
            }
        };
        cases.push_back(std::move(c));
    }
    return std::make_unique<SimWorkload>(std::move(cases));
}

/** sweep_cpu and sweep_io: one serial warm-started sweep per op. */
class SweepWorkload : public Workload
{
  public:
    SweepWorkload(std::string label, std::string spec,
                  std::vector<std::string> axes,
                  std::vector<std::uint64_t> seeds)
        : label_(std::move(label)), spec_(std::move(spec)),
          axes_(std::move(axes)), seeds_(std::move(seeds))
    {
    }

    std::size_t cases() const override { return 1; }

    std::vector<OpRecord>
    prepare() override
    {
        OpRecord rec;
        try {
            exp::SweepOptions cold;
            cold.warmStart = false;
            const auto start = Clock::now();
            const exp::SweepOutcome out = exp::runPlan(plan(), cold);
            coldJsonl_ = exp::formatSweepJsonl(out);
            rec.wallSec = secondsBetween(start, Clock::now());
            for (const exp::TaskRun &run : out.runs) {
                coldEvents_.push_back(run.results.perf.events);
                rec.loopSec += run.results.perf.wallSec;
                rec.simSec += toSeconds(run.results.simulatedTime);
                rec.counts.add(run.results);
            }
            checkOutcome(out, rec);
            // The divergence time of the warm-start groups: the
            // earliest fault any grid point adds.
            divergeAt_ = kTimeNever;
            for (const exp::ExperimentTask &t : exp::expandPlan(plan())) {
                const auto sched = t.spec.config.faults.schedule();
                if (!sched.empty())
                    divergeAt_ = std::min(divergeAt_, sched.front().at);
            }
        } catch (const std::exception &e) {
            rec.fail(label_ + ": cold reference threw: " + e.what());
        }
        return {rec};
    }

    OpRecord
    runOp(std::size_t, SpanLog *spans) override
    {
        OpRecord rec;
        try {
            const auto t0 = Clock::now();
            exp::ExperimentPlan p;
            {
                SpanScope span(spans, "config.parse");
                p = plan();
            }
            if (spans) {
                // runPlan expands the plan itself; the span pass times
                // one more expansion so config.parse covers it.
                SpanScope span(spans, "config.expand");
                exp::expandPlan(p);
            }
            const auto t1 = Clock::now();
            exp::SweepOutcome out;
            {
                SpanScope span(spans, "exp.run_plan");
                out = exp::runPlan(p, exp::SweepOptions{});
                if (spans) {
                    std::vector<double> tasks;
                    for (const exp::TaskRun &run : out.runs)
                        tasks.push_back(run.results.perf.wallSec);
                    spans->addDerived("exp.task", tasks);
                }
            }
            const auto t2 = Clock::now();
            std::string jsonl;
            {
                SpanScope span(spans, "metrics.format");
                jsonl = exp::formatSweepJsonl(out);
            }
            const auto t3 = Clock::now();

            rec.wallSec = secondsBetween(t0, t3);
            rec.parseSec = secondsBetween(t0, t1);
            rec.formatSec = secondsBetween(t2, t3);
            for (std::size_t i = 0; i < out.runs.size(); ++i) {
                const SimResults &r = out.runs[i].results;
                rec.loopSec += r.perf.wallSec;
                rec.simSec += toSeconds(r.simulatedTime);
                rec.taskSec.push_back(r.perf.wallSec);
                rec.counts.add(r);
                rec.tasks += 1;
                if (i < coldEvents_.size() &&
                    r.perf.events < coldEvents_[i])
                    rec.warmTasks += 1;
            }
            rec.overheadSec = out.wallSec - rec.loopSec;
            checkOutcome(out, rec);
            if (jsonl != coldJsonl_)
                rec.fail(label_ + ": JSONL differs from the cold run");
        } catch (const std::exception &e) {
            rec.fail(label_ + ": threw: " + e.what());
        }
        return rec;
    }

    ProbeResult
    probe(int reps, SpanLog *spans) override
    {
        // The template the warm-start engine would build: the first
        // grid point with its fault suffix removed.
        WorkloadSpec spec = exp::expandPlan(plan()).front().spec;
        spec.config.faults = FaultPlan{};
        const auto populate = [&spec](Simulation &sim) {
            populateWorkloadSpec(sim, spec);
        };
        return runProbe(spec.config, populate, divergeAt_, reps, spans);
    }

  private:
    /** Parse the spec and the grid axes (what `piso_sweep` does with
     *  its workload file and --grid flags). */
    exp::ExperimentPlan
    plan() const
    {
        exp::ExperimentPlan p;
        p.base = parseWorkloadSpec(spec_);
        for (const std::string &axis : axes_)
            p.axes.push_back(exp::parseGridAxis(axis));
        p.seeds = seeds_;
        return p;
    }

    void
    checkOutcome(const exp::SweepOutcome &out, OpRecord &rec) const
    {
        if (out.failures() > 0)
            rec.fail(label_ + ": " + std::to_string(out.failures()) +
                     " sweep task(s) failed");
        for (const exp::TaskRun &run : out.runs) {
            if (run.outcome.ok() && !run.results.completed) {
                rec.fail(label_ + ": task " +
                         std::to_string(run.task.index) +
                         " did not complete");
                return;
            }
        }
    }

    std::string label_;
    std::string spec_;
    std::vector<std::string> axes_;
    std::vector<std::uint64_t> seeds_;
    std::string coldJsonl_;
    std::vector<std::uint64_t> coldEvents_;
    Time divergeAt_ = kTimeNever;
};

/** Compute-bound base: a 4-process Ocean next to six 8 s compute
 *  hogs on 8 CPUs; late disk slowdowns (t >= 6 s) leave a long shared
 *  prefix with dense quiescent boundaries, so warm start pays off. */
std::unique_ptr<Workload>
makeSweepCpu(std::uint64_t seed)
{
    std::string spec =
        "machine cpus=8 memory_mb=64 disks=2 scheme=piso\n"
        "spu ocean share=1 disk=0\n"
        "spu eng share=1 disk=1\n"
        "job ocean ocean name=sim procs=4 iters=400 grain_ms=20 "
        "ws_pages=400\n";
    for (int i = 0; i < 6; ++i)
        spec += "job eng compute name=hog" + std::to_string(i) +
                " cpu_ms=8000 ws_pages=300\n";
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t k = 0; k < 3; ++k)
        seeds.push_back((seed - 1) * 3 + 1 + k);
    return std::make_unique<SweepWorkload>(
        "sweep_cpu", spec,
        std::vector<std::string>{
            "fault_disk_slow=none,6:0.5:0:2,6:0.5:0:4,6:0.5:0:8,"
            "6:0.5:1:4,6:1:0:4,6:1:1:8,6.2:0.5:0:4"},
        seeds);
}

/** I/O-bound base: a pmake, a 20 MB copy and a web server on one
 *  shared disk behind a 10 Mbit NIC, swept over disk policy and
 *  late disk slowdowns/errors. The disk never goes idle before the
 *  faults, so warm start finds no boundary and every task runs cold. */
std::unique_ptr<Workload>
makeSweepIo(std::uint64_t seed)
{
    const std::string spec =
        "machine cpus=2 memory_mb=44 disks=1 scheme=piso seek_scale=0.5 "
        "network_mbps=10\n"
        "spu build share=1 disk=0\n"
        "spu copy share=1 disk=0\n"
        "spu web share=1 disk=0\n"
        "job build pmake name=pmake workers=2 files=20 compile_ms=25 "
        "ws_pages=200\n"
        "job copy copy name=copy bytes_kb=20480\n"
        "job web web name=www workers=2 requests=200\n";
    return std::make_unique<SweepWorkload>(
        "sweep_io", spec,
        std::vector<std::string>{
            "disk_policy=pos,iso,piso",
            "fault_disk_slow=none,8:4:0:3,8:4:0:6",
            "fault_disk_error=none,12:1:0:0.5"},
        std::vector<std::uint64_t>{seed});
}

// ---------------------------------------------------------------------
// Measurement passes and metrics
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    bool quick = false;
    std::string goldenDir = "tests/golden";
    std::string spanDir = ".";
    std::string gitCommit = "unknown";
    std::string sourceDigest = "unknown";
};

/** Ops per untraced run: enough that ten samples lie beyond p90. */
constexpr std::size_t kMinOps = 100;

/** Give up extending a run to kMinOps past this much wall time, which
 *  keeps every run inside its time limit. */
constexpr double kMaxRunSec = 150.0;

/** Attempted and failed ops of the whole run. */
struct Tally
{
    std::size_t attempted = 0;
    std::size_t failed = 0;

    void
    add(const OpRecord &op)
    {
        ++attempted;
        if (op.ok)
            return;
        if (failed < 5)
            std::fprintf(stderr, "perfbench_driver: FAIL %s\n",
                         op.failure.c_str());
        ++failed;
    }
};

/**
 * Run ops, handing each to @p sink, until at least @p seconds have
 * passed and at least @p minOps ops were made, in whole cycles of the
 * inputs when @p wholeCycles is set. Returns the number of ops.
 */
template <typename Sink>
std::size_t
measure(Workload &w, double seconds, std::size_t minOps,
        bool wholeCycles, SpanLog *spans, Sink &&sink)
{
    const auto start = Clock::now();
    for (std::size_t i = 0;; ++i) {
        const double elapsed = secondsBetween(start, Clock::now());
        const bool cycleDone = !wholeCycles || i % w.cases() == 0;
        if (cycleDone && i >= minOps &&
            (elapsed >= seconds || elapsed >= kMaxRunSec))
            return i;
        if (spans)
            spans->setOp(i);
        sink(w.runOp(i, spans));
    }
}

std::vector<double>
field(const std::vector<OpRecord> &ops, double OpRecord::*f)
{
    std::vector<double> v;
    v.reserve(ops.size());
    for (const OpRecord &op : ops)
        v.push_back(op.*f);
    return v;
}

double
sum(const std::vector<OpRecord> &ops, double OpRecord::*f)
{
    double s = 0;
    for (const OpRecord &op : ops)
        s += op.*f;
    return s;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Host time of one successful untraced op. Kept to three numbers:
 *  a fast workload makes thousands of ops, and storing whole records
 *  would move peak_rss_mb with the op count. */
struct Sample
{
    double wallSec;
    double loopSec;
    double simSec;
};

/** End-to-end metrics of an untraced pass. */
std::vector<Metric>
endToEnd(const std::vector<Sample> &ops)
{
    std::vector<double> wall, setup;
    double simSec = 0, wallSec = 0;
    for (const Sample &op : ops) {
        wall.push_back(op.wallSec);
        setup.push_back(op.wallSec - op.loopSec);
        simSec += op.simSec;
        wallSec += op.wallSec;
    }
    return {
        {"op_ms_p50", median(wall) * 1e3, "ms"},
        {"op_ms_p90", quantile(wall, 0.9) * 1e3, "ms"},
        {"simsec_per_s", ratio(simSec, wallSec), "s/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
    };
}

/** Span names whose self time is reported per op. */
const char *const kSpanNames[] = {
    "config.parse",     "config.expand",   "simulation.construct",
    "simulation.populate", "simulation.run", "workload.build",
    "sim.loop",         "metrics.format",  "simulation.destroy",
    "exp.run_plan",     "exp.task"};

/**
 * Per-layer metrics. Counts are per op over the first whole cycle of
 * inputs of the span pass, so they repeat exactly for a given seed;
 * host times are medians per op over the span pass; trace.* lines per
 * op come from the first cycle of the TraceSink pass.
 */
std::vector<Metric>
perLayer(const std::vector<OpRecord> &spanOps,
         const std::vector<OpRecord> &sinkOps, std::size_t cycle,
         const std::array<double, 6> &traceLines,
         const ProbeResult &probe, const SpanLog &spans)
{
    LayerCounts c;
    double buildCalls = 0, files = 0, tasks = 0, warm = 0;
    for (std::size_t i = 0; i < cycle && i < spanOps.size(); ++i) {
        c.add(spanOps[i].counts);
        buildCalls += spanOps[i].buildCalls;
        files += spanOps[i].files;
        tasks += spanOps[i].tasks;
        warm += spanOps[i].warmTasks;
    }
    const double n = static_cast<double>(cycle);
    std::vector<double> taskSec;
    double events = 0;
    for (const OpRecord &op : spanOps) {
        taskSec.insert(taskSec.end(), op.taskSec.begin(), op.taskSec.end());
        events += op.counts.events;
    }
    const double wall = sum(spanOps, &OpRecord::wallSec);
    const double loop = sum(spanOps, &OpRecord::loopSec);
    const auto ms = [&spanOps](double OpRecord::*f) {
        return median(field(spanOps, f)) * 1e3;
    };

    std::vector<Metric> m = {
        {"config.parse_ms", ms(&OpRecord::parseSec), "ms"},
        {"workload.build_ms", ms(&OpRecord::buildSec), "ms"},
        {"workload.build_calls", buildCalls / n, "count"},
        {"workload.files", files / n, "count"},
        {"workload.build_share",
         ratio(sum(spanOps, &OpRecord::buildSec), wall), "ratio"},
        {"simulation.setup_ms", ms(&OpRecord::setupSec), "ms"},
        {"sim.events", c.events / n, "count"},
        {"sim.loop_ms", ms(&OpRecord::loopSec), "ms"},
        {"sim.loop_ns_per_event", ratio(loop * 1e9, events), "ns"},
        {"sim.loop_share", ratio(loop, wall), "ratio"},
        {"sim.ckpt_save_ms", probe.saveMs, "ms"},
        {"sim.ckpt_restore_ms", probe.restoreMs, "ms"},
        {"sim.ckpt_image_bytes", probe.imageBytes, "bytes"},
        {"sim.ckpt_boundary_ratio",
         ratio(probe.found, probe.attempts), "ratio"},
        {"core.policy_iters_cpu", c.itersCpu / n, "count"},
        {"core.policy_iters_mem", c.itersMem / n, "count"},
        {"core.policy_iters_disk", c.itersDisk / n, "count"},
        {"core.policy_iters_net", c.itersNet / n, "count"},
        {"os.zero_fills", c.zeroFills / n, "count"},
        {"os.refaults", c.refaults / n, "count"},
        {"os.cache_hits", c.cacheHits / n, "count"},
        {"os.cache_misses", c.cacheMisses / n, "count"},
        {"os.cache_hit_ratio",
         ratio(c.cacheHits, c.cacheHits + c.cacheMisses), "ratio"},
        {"os.read_requests", c.readRequests / n, "count"},
        {"os.readahead_requests", c.readAhead / n, "count"},
        {"os.bdflush_requests", c.bdflush / n, "count"},
        {"os.pageout_writes", c.pageoutWrites / n, "count"},
        {"os.throttle_stalls", c.throttleStalls / n, "count"},
        {"os.io_retries", c.ioRetries / n, "count"},
        {"machine.disk_requests", c.diskRequests / n, "count"},
        {"machine.disk_sectors", c.diskSectors / n, "count"},
        {"machine.disk_busy_frac", ratio(c.diskBusySum, c.diskCount),
         "ratio"},
        {"machine.numa_remote_touches", c.numaRemote / n, "count"},
        {"trace.sched", traceLines[0], "count"},
        {"trace.mem", traceLines[1], "count"},
        {"trace.disk", traceLines[2], "count"},
        {"trace.net", traceLines[3], "count"},
        {"trace.lock", traceLines[4], "count"},
        {"trace.kernel", traceLines[5], "count"},
        {"metrics.format_ms", ms(&OpRecord::formatSec), "ms"},
        {"exp.overhead_ms", ms(&OpRecord::overheadSec), "ms"},
        {"exp.warm_ratio", ratio(warm, tasks), "ratio"},
        {"exp.task_ms_p50", median(taskSec) * 1e3, "ms"},
        {"trace.overhead_ratio",
         ratio(median(field(sinkOps, &OpRecord::wallSec)),
               median(field(spanOps, &OpRecord::wallSec))),
         "ratio"},
    };
    const auto self = spans.selfTimes();
    for (const char *name : kSpanNames) {
        const auto it = self.find(name);
        const double s = it == self.end() ? 0.0 : it->second;
        m.push_back({std::string("self.") + name + "_ms",
                     s * 1e3 / static_cast<double>(spanOps.size()), "ms"});
    }
    return m;
}

/** Trace category -> index into the trace.* metrics. */
int
traceIndex(TraceCat cat)
{
    switch (cat) {
      case TraceCat::Sched: return 0;
      case TraceCat::Mem: return 1;
      case TraceCat::Disk: return 2;
      case TraceCat::Net: return 3;
      case TraceCat::Lock: return 4;
      case TraceCat::Kernel: return 5;
      default: return -1;
    }
}

/** The property each workload was chosen to load (README.md); shown,
 *  not enforced, since later changes may legitimately move it. */
void
printLoadCheck(const std::string &workload,
               const std::vector<Metric> &metrics)
{
    std::map<std::string, double> v;
    for (const Metric &m : metrics)
        v[m.name] = m.value;
    std::string what;
    bool holds = false;
    if (workload == "pmake8") {
        what = "sim.loop_share >= 0.90";
        holds = v["sim.loop_share"] >= 0.90;
    } else if (workload == "scale256") {
        what = "workload.build_share >= 0.40";
        holds = v["workload.build_share"] >= 0.40;
    } else if (workload == "sweep_cpu") {
        what = "exp.warm_ratio > 0";
        holds = v["exp.warm_ratio"] > 0;
    } else {
        what = "exp.warm_ratio == 0, os.read_requests, "
               "os.bdflush_requests and trace.net > 0";
        holds = v["exp.warm_ratio"] == 0 && v["os.read_requests"] > 0 &&
                v["os.bdflush_requests"] > 0 && v["trace.net"] > 0;
    }
    std::printf("# load: %s: %s\n", what.c_str(),
                holds ? "holds" : "DOES NOT HOLD");
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver --workload "
                 "pmake8|scale256|sweep_cpu|sweep_io [--seed N]\n"
                 "       [--seconds S] [--trace 0|1] [--quick] "
                 "[--golden-dir DIR] [--span-dir DIR]\n"
                 "       [--git-commit REV] [--source-digest HEX]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--quick") {
            opt.quick = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end != '\0' || opt.seed < 1)
                return usage("--seed must be a whole number >= 1");
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
            if (*end != '\0' || !(opt.seconds > 0))
                return usage("--seconds must be > 0");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return usage("--trace must be 0 or 1");
            opt.trace = v == "1";
        } else if (a == "--golden-dir") {
            opt.goldenDir = v;
        } else if (a == "--span-dir") {
            opt.spanDir = v;
        } else if (a == "--git-commit") {
            opt.gitCommit = v;
        } else if (a == "--source-digest") {
            opt.sourceDigest = v;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }

    const std::string buildType = PERFBENCH_BUILD_TYPE;
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "perfbench_driver: refusing to time an "
                         "unoptimised build (build type '%s')\n",
                 buildType.c_str());
    return 3;
#endif
    if (buildType != "Release" && buildType != "RelWithDebInfo") {
        std::fprintf(stderr, "perfbench_driver: refusing build type "
                             "'%s'; use Release\n",
                     buildType.c_str());
        return 3;
    }

    std::vector<std::string> errors;
    std::unique_ptr<Workload> w;
    if (opt.workload == "pmake8")
        w = makePmake8(opt.seed, opt.goldenDir, errors);
    else if (opt.workload == "scale256")
        w = makeScale256(opt.seed);
    else if (opt.workload == "sweep_cpu")
        w = makeSweepCpu(opt.seed);
    else if (opt.workload == "sweep_io")
        w = makeSweepIo(opt.seed);
    else
        return usage("unknown workload");
    if (!errors.empty()) {
        for (const std::string &e : errors)
            std::fprintf(stderr, "perfbench_driver: %s\n", e.c_str());
        return 1;
    }

    const std::string host =
        "{\"nproc\":" + std::to_string(onlineCpus()) +
        ",\"cpu\":" + jsonString(cpuModel()) +
        ",\"compiler\":" + jsonString(PERFBENCH_COMPILER) +
        ",\"build_type\":" + jsonString(buildType) +
        ",\"git_commit\":" + jsonString(opt.gitCommit) +
        ",\"source_digest\":" + jsonString(opt.sourceDigest) + "}";
    std::printf("# host: %s\n", host.c_str());
    std::printf("# workload=%s seed=%llu seconds=%s trace=%d%s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                jsonNumber(opt.seconds).c_str(), opt.trace,
                opt.quick ? " quick" : "");

    Tally tally;
    const std::vector<OpRecord> reference = w->prepare();
    for (const OpRecord &op : reference)
        tally.add(op);
    std::vector<Metric> metrics;
    std::size_t measured = 0;

    if (opt.trace == 0) {
        std::vector<Sample> samples;
        measured = measure(
            *w, opt.quick ? 0.0 : opt.seconds, opt.quick ? 1 : kMinOps,
            false, nullptr, [&](const OpRecord &op) {
                tally.add(op);
                if (op.ok)
                    samples.push_back({op.wallSec, op.loopSec, op.simSec});
            });
        metrics = endToEnd(samples);
    } else {
        const auto origin = Clock::now();
        SpanLog spanPass(origin, 1, "span pass (no TraceSink)");
        SpanLog sinkPass(origin, 2, "TraceSink pass (all categories)");
        const std::size_t cycle = w->cases();
        const double share = opt.quick ? 0.0 : opt.seconds * 0.45;
        std::vector<OpRecord> spanOps, sinkOps;
        const auto keep = [&tally](std::vector<OpRecord> &into) {
            return [&tally, &into](OpRecord op) {
                tally.add(op);
                into.push_back(std::move(op));
            };
        };

        measure(*w, share, cycle, true, &spanPass, keep(spanOps));

        // Lines per op are counted over the first whole cycle only, so
        // they repeat exactly for a given seed.
        std::array<std::uint64_t, 6> counting{};
        std::array<double, 6> lines{};
        traceSetSink([&counting](Time, TraceCat cat, const std::string &) {
            const int idx = traceIndex(cat);
            if (idx >= 0)
                ++counting[static_cast<std::size_t>(idx)];
        });
        traceEnable(TraceCat::All);
        measure(*w, 0.0, cycle, true, &sinkPass, keep(sinkOps));
        for (std::size_t k = 0; k < lines.size(); ++k)
            lines[k] = static_cast<double>(counting[k]) /
                       static_cast<double>(cycle);
        measure(*w, share, 0, true, &sinkPass, keep(sinkOps));
        traceDisable();
        traceSetSink(nullptr);

        spanPass.setOp(spanOps.size());
        const ProbeResult probe = w->probe(opt.quick ? 1 : 5, &spanPass);
        if (!probe.ok) {
            OpRecord rec;
            rec.fail(probe.failure);
            tally.add(rec);
        }
        metrics = perLayer(spanOps, sinkOps, cycle, lines, probe,
                           spanPass);
        measured = spanOps.size() + sinkOps.size();

        const std::string path = opt.spanDir + "/spans-" + opt.workload +
                                 "-seed" + std::to_string(opt.seed) +
                                 ".json";
        if (writeTraceFile(path, host, {&spanPass, &sinkPass}))
            std::printf("# spans: %s\n", path.c_str());
        else
            std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                         path.c_str());
        printLoadCheck(opt.workload, metrics);
    }

    std::printf("# ops: %zu measured, %zu reference, %zu failed "
                "(fail_frac %s)\n",
                measured, reference.size(), tally.failed,
                jsonNumber(ratio(static_cast<double>(tally.failed),
                                 static_cast<double>(tally.attempted)))
                    .c_str());
    std::string json = "{\"correct\":";
    json += tally.failed == 0 ? "true" : "false";
    json += ",\"attempted\":" + std::to_string(tally.attempted) +
            ",\"failed\":" + std::to_string(tally.failed) +
            ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::printf("# %-28s %14s %s\n", m.name.c_str(),
                    jsonNumber(m.value).c_str(), m.unit.c_str());
        json += (i ? "," : "") + jsonString(m.name) +
                ":{\"value\":" + jsonNumber(m.value) +
                ",\"unit\":" + jsonString(m.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

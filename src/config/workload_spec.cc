#include "src/config/workload_spec.hh"

#include <algorithm>
#include <sstream>

#include "src/util/log.hh"
#include "src/workload/filecopy.hh"
#include "src/workload/oltp.hh"
#include "src/workload/pmake.hh"
#include "src/workload/scientific.hh"
#include "src/workload/synthetic.hh"
#include "src/workload/webserver.hh"

namespace piso {

namespace {

using Options = std::map<std::string, std::string>;

/** Split a line into whitespace-separated tokens. */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream is(line);
    std::string tok;
    while (is >> tok)
        out.push_back(tok);
    return out;
}

/** Parse trailing `key=value` tokens into a map. */
Options
parseOptions(const std::vector<std::string> &tokens, std::size_t first,
             int line)
{
    Options opts;
    for (std::size_t i = first; i < tokens.size(); ++i) {
        const std::string &tok = tokens[i];
        const auto eq = tok.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq == tok.size() - 1) {
            PISO_FATAL("line ", line, ": expected key=value, got '",
                       tok, "'");
        }
        const std::string key = tok.substr(0, eq);
        if (opts.count(key))
            PISO_FATAL("line ", line, ": duplicate option '", key, "'");
        opts[key] = tok.substr(eq + 1);
    }
    return opts;
}

/** Typed accessors that consume keys (leftovers are typos). */
class OptionReader
{
  public:
    OptionReader(Options opts, int line)
        : opts_(std::move(opts)), line_(line)
    {
    }

    double
    num(const std::string &key, double def)
    {
        return take(key, def, parseNumber);
    }

    /** A non-negative integer option that fits @p T. */
    template <class T>
    T
    count(const std::string &key, T def)
    {
        return take(key, def, parseCount<T>);
    }

    /** All options must have been consumed. */
    void
    finish() const
    {
        if (!opts_.empty()) {
            PISO_FATAL("line ", line_, ": unknown option '",
                       opts_.begin()->first, "'");
        }
    }

  private:
    /** Parse and consume @p key, or return @p def when absent. */
    template <class T>
    T
    take(const std::string &key, T def,
         T (*parse)(const std::string &, const std::string &))
    {
        auto it = opts_.find(key);
        if (it == opts_.end())
            return def;
        const T v = parse(it->second, "line " + std::to_string(line_) +
                                          ": option '" + key + "'");
        opts_.erase(it);
        return v;
    }

    Options opts_;
    int line_;
};

/** One machine key's value, parsed the way its setter asks for it;
 *  errors name the key and where the value came from. It refers to
 *  the caller's strings and lives for one setter call. */
class KeyValue
{
  public:
    KeyValue(const std::string &key, const std::string &text,
             const std::string &context)
        : key_(key), text_(text), context_(context)
    {
    }

    double number() const { return parseNumber(text_, what()); }

    /** A non-negative integer that fits @p T. */
    template <class T>
    T
    count() const
    {
        return parseCount<T>(text_, what());
    }

    /** A name registered for @p resource in the PolicyRegistry. */
    template <class P>
    P
    policy(PolicyResource resource) const
    {
        const PolicyRegistry &registry = PolicyRegistry::instance();
        if (const auto v = registry.tryParse(resource, text_))
            return static_cast<P>(*v);
        PISO_FATAL(what(), ": unknown policy '", text_, "' (",
                   joinNames(registry.names(resource)), ")");
    }

  private:
    std::string what() const { return context_ + " '" + key_ + "'"; }

    const std::string &key_;
    const std::string &text_;
    const std::string &context_;
};

/** One machine key: its spelling and how it sets a SystemConfig. */
struct MachineKey
{
    const char *name;
    void (*set)(SystemConfig &, const KeyValue &);
};

/**
 * The machine keys, shared by the `machine` line and `--grid` axes.
 * `scheme` comes first: a machine line applies its keys in this
 * order, so the per-resource policy keys refine the column it picks.
 */
const MachineKey kMachineKeys[] = {
    {kSchemeKey,
     [](SystemConfig &c, const KeyValue &v) {
         c.scheme = v.policy<Scheme>(PolicyResource::Scheme);
     }},
    {"cpu",
     [](SystemConfig &c, const KeyValue &v) {
         c.scheme.cpu = v.policy<CpuPolicy>(PolicyResource::Cpu);
     }},
    {"memory",
     [](SystemConfig &c, const KeyValue &v) {
         c.scheme.memory =
             v.policy<MemoryPolicy>(PolicyResource::Memory);
     }},
    {"disk_policy",
     [](SystemConfig &c, const KeyValue &v) {
         c.scheme.disk = v.policy<DiskPolicy>(PolicyResource::Disk);
     }},
    {"network",
     [](SystemConfig &c, const KeyValue &v) {
         c.scheme.net = v.policy<NetPolicy>(PolicyResource::Net);
     }},
    {"cpus",
     [](SystemConfig &c, const KeyValue &v) { c.cpus = v.count<int>(); }},
    {"memory_mb",  // 32 bits of MiB cannot overflow the byte count
     [](SystemConfig &c, const KeyValue &v) {
         c.memoryBytes = std::uint64_t{v.count<std::uint32_t>()} * kMiB;
     }},
    {"disks",
     [](SystemConfig &c, const KeyValue &v) {
         c.diskCount = v.count<int>();
     }},
    {"seed",
     [](SystemConfig &c, const KeyValue &v) {
         c.seed = v.count<std::uint64_t>();
     }},
    {"max_time_s",
     [](SystemConfig &c, const KeyValue &v) {
         c.maxTime = fromSeconds(v.number());
     }},
    {"network_mbps",
     [](SystemConfig &c, const KeyValue &v) {
         c.networkBitsPerSec = v.number() * 1e6;
     }},
    {"bw_threshold",
     [](SystemConfig &c, const KeyValue &v) {
         c.bwThresholdSectors = v.number();
     }},
    {"bw_halflife_ms",
     [](SystemConfig &c, const KeyValue &v) {
         c.bwHalfLife = fromMillis(v.number());
     }},
    {"seek_scale",
     [](SystemConfig &c, const KeyValue &v) {
         c.diskParams.seekScale = v.number();
     }},
    {"ipi_revocation",
     [](SystemConfig &c, const KeyValue &v) {
         c.ipiRevocation = v.count<int>() != 0;
     }},
    {"loan_holdoff_ms",
     [](SystemConfig &c, const KeyValue &v) {
         c.loanHoldoff = fromMillis(v.number());
     }},
    {"tick_ms",
     [](SystemConfig &c, const KeyValue &v) {
         c.tickPeriod = fromMillis(v.number());
     }},
    {"slice_ms",
     [](SystemConfig &c, const KeyValue &v) {
         c.timeSlice = fromMillis(v.number());
     }},
    {"reserve_frac",
     [](SystemConfig &c, const KeyValue &v) {
         c.memPolicy.reserveFraction = v.number();
     }},
    // NUMA/bus machine model (src/machine/numa.hh). The defaults
    // describe a uniform-memory machine and add zero cost, so omitting
    // every key keeps runs byte-identical.
    {"numa_domains",
     [](SystemConfig &c, const KeyValue &v) {
         c.numa.domains = v.count<int>();
     }},
    {"numa_local_us",
     [](SystemConfig &c, const KeyValue &v) {
         c.numa.localLatency = static_cast<Time>(v.number() * kUs);
     }},
    {"numa_remote_us",
     [](SystemConfig &c, const KeyValue &v) {
         c.numa.remoteLatency = static_cast<Time>(v.number() * kUs);
     }},
    {"bus_mbps",
     [](SystemConfig &c, const KeyValue &v) {
         c.numa.busBytesPerSec = v.number() * 1e6 / 8.0;
     }},
    {"bus_saturation",
     [](SystemConfig &c, const KeyValue &v) {
         c.numa.busSaturation = v.number();
     }},
    {"bus_halflife_ms",
     [](SystemConfig &c, const KeyValue &v) {
         c.numa.busHalfLife = fromMillis(v.number());
     }},
};

/**
 * One directive inside a `[faults]` section. Times are seconds
 * (`at_s`, and `for_s` for windowed faults); memory sizes are MiB.
 */
void
parseFaultLine(const std::vector<std::string> &tokens, int lineNo,
               FaultPlan &plan)
{
    const std::string &kind = tokens[0];
    OptionReader r(parseOptions(tokens, 1, lineNo), lineNo);
    const double atSec = r.num("at_s", -1.0);
    if (atSec < 0.0)
        PISO_FATAL("line ", lineNo, ": fault '", kind,
                   "' needs at_s=<seconds>");
    const Time at = fromSeconds(atSec);

    if (kind == "disk_slow") {
        const int disk = r.count<int>("disk", 0);
        const Time dur = fromSeconds(r.num("for_s", 0.0));
        const double factor = r.num("factor", 4.0);
        if (factor < 1.0)
            PISO_FATAL("line ", lineNo, ": disk_slow factor must be "
                       ">= 1, got ", factor);
        plan.diskSlow(at, disk, dur, factor);
    } else if (kind == "disk_error") {
        const int disk = r.count<int>("disk", 0);
        const Time dur = fromSeconds(r.num("for_s", 0.0));
        const double rate = r.num("rate", 0.5);
        if (rate < 0.0 || rate > 1.0)
            PISO_FATAL("line ", lineNo, ": disk_error rate must be in "
                       "[0,1], got ", rate);
        plan.diskError(at, disk, dur, rate);
    } else if (kind == "disk_dead") {
        plan.diskDead(at, r.count<int>("disk", 0));
    } else if (kind == "cpu_offline") {
        const int count = r.count<int>("count", 1);
        if (count < 1)
            PISO_FATAL("line ", lineNo,
                       ": cpu_offline count must be >= 1");
        plan.cpuOffline(at, count);
    } else if (kind == "cpu_online") {
        const int count = r.count<int>("count", 1);
        if (count < 1)
            PISO_FATAL("line ", lineNo,
                       ": cpu_online count must be >= 1");
        plan.cpuOnline(at, count);
    } else if (kind == "mem_shrink" || kind == "mem_grow") {
        const std::uint32_t mb = r.count<std::uint32_t>("mb", 0);
        if (mb == 0)
            PISO_FATAL("line ", lineNo, ": ", kind,
                       " needs mb=<MiB> > 0");
        const std::uint64_t pages = std::uint64_t{mb} * kMiB / 4096;
        if (kind == "mem_shrink")
            plan.memShrink(at, pages);
        else
            plan.memGrow(at, pages);
    } else {
        PISO_FATAL("line ", lineNo, ": unknown fault '", kind,
                   "' (disk_slow|disk_error|disk_dead|cpu_offline|"
                   "cpu_online|mem_shrink|mem_grow)");
    }
    r.finish();
}

/**
 * One node line inside a `[spus]` section: a dotted path plus options.
 * Parents must be declared before their children so the tree is
 * well-formed by construction.
 */
void
parseSpuTreeLine(const std::vector<std::string> &tokens, int lineNo,
                 WorkloadSpec &spec)
{
    SpuDecl s;
    s.name = tokens[0];
    if (s.name == "machine" || s.name == "spu" || s.name == "job")
        PISO_FATAL("line ", lineNo, ": '", s.name, "' is a directive ",
                   "and cannot name an SPU");
    // Every dot-separated segment must be non-empty.
    for (std::size_t pos = 0;;) {
        const auto dot = s.name.find('.', pos);
        if ((dot == std::string::npos ? s.name.size() : dot) == pos)
            PISO_FATAL("line ", lineNo, ": bad SPU name '", s.name,
                       "' (empty path segment)");
        if (dot == std::string::npos)
            break;
        pos = dot + 1;
    }
    OptionReader r(parseOptions(tokens, 1, lineNo), lineNo);
    s.share = r.num("share", 1.0);
    s.disk = r.count<DiskId>("disk", 0);
    r.finish();

    const auto dot = s.name.rfind('.');
    if (dot != std::string::npos) {
        s.parent = s.name.substr(0, dot);
        bool parentKnown = false;
        for (const SpuDecl &other : spec.spus)
            parentKnown |= other.name == s.parent;
        if (!parentKnown)
            PISO_FATAL("line ", lineNo, ": SPU '", s.name,
                       "' declared before its group '", s.parent, "'");
    }
    for (const SpuDecl &other : spec.spus) {
        if (other.name == s.name)
            PISO_FATAL("line ", lineNo, ": duplicate spu '", s.name,
                       "'");
    }
    spec.spus.push_back(std::move(s));
}

} // namespace

double
parseNumber(const std::string &text, const std::string &what)
{
    try {
        std::size_t pos = 0;
        const double v = std::stod(text, &pos);
        if (pos == text.size())
            return v;
    } catch (const std::exception &) {
    }
    PISO_FATAL(what, " wants a number, got '", text, "'");
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names) {
        if (!out.empty())
            out += '|';
        out += n;
    }
    return out;
}

std::vector<std::string>
machineKeyNames()
{
    std::vector<std::string> out;
    for (const MachineKey &k : kMachineKeys)
        out.emplace_back(k.name);
    return out;
}

bool
applyMachineKey(SystemConfig &cfg, const std::string &key,
                const std::string &value, const std::string &context)
{
    for (const MachineKey &k : kMachineKeys) {
        if (key == k.name) {
            k.set(cfg, KeyValue(key, value, context));
            return true;
        }
    }
    return false;
}

WorkloadSpec
parseWorkloadSpec(const std::string &text)
{
    WorkloadSpec spec;
    bool sawMachine = false;
    bool inFaults = false;
    bool inSpus = false;
    std::istringstream is(text);
    std::string line;
    int lineNo = 0;
    int autoJob = 0;

    while (std::getline(is, line)) {
        ++lineNo;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        const auto tokens = tokenize(line);
        if (tokens.empty())
            continue;

        const std::string &kind = tokens[0];
        if (kind == "[faults]") {
            inFaults = true;
            inSpus = false;
            if (tokens.size() > 1)
                PISO_FATAL("line ", lineNo,
                           ": [faults] takes no options");
            continue;
        }
        if (inFaults) {
            parseFaultLine(tokens, lineNo, spec.config.faults);
            continue;
        }
        if (kind == "[spus]") {
            inSpus = true;
            if (tokens.size() > 1)
                PISO_FATAL("line ", lineNo, ": [spus] takes no options");
            continue;
        }
        // A directive ends a [spus] section; anything else inside one
        // is a tree-node declaration.
        if (inSpus &&
            kind != "machine" && kind != "spu" && kind != "job") {
            parseSpuTreeLine(tokens, lineNo, spec);
            continue;
        }
        inSpus = false;
        if (kind == "machine") {
            if (sawMachine)
                PISO_FATAL("line ", lineNo, ": duplicate machine line");
            sawMachine = true;
            Options opts = parseOptions(tokens, 1, lineNo);
            const std::string context =
                "line " + std::to_string(lineNo) + ": option";
            for (const MachineKey &k : kMachineKeys) {
                if (const auto it = opts.find(k.name); it != opts.end()) {
                    k.set(spec.config, KeyValue(it->first, it->second,
                                                context));
                    opts.erase(it);
                }
            }
            if (!opts.empty())
                PISO_FATAL("line ", lineNo, ": unknown option '",
                           opts.begin()->first, "' (",
                           joinNames(machineKeyNames()), ")");
        } else if (kind == "spu") {
            if (tokens.size() < 2)
                PISO_FATAL("line ", lineNo, ": spu needs a name");
            SpuDecl s;
            s.name = tokens[1];
            if (s.name.find('.') != std::string::npos)
                PISO_FATAL("line ", lineNo, ": dotted SPU names ",
                           "declare a hierarchy and belong in a ",
                           "[spus] section");
            OptionReader r(parseOptions(tokens, 2, lineNo), lineNo);
            s.share = r.num("share", 1.0);
            s.disk = r.count<DiskId>("disk", 0);
            r.finish();
            for (const SpuDecl &other : spec.spus) {
                if (other.name == s.name)
                    PISO_FATAL("line ", lineNo, ": duplicate spu '",
                               s.name, "'");
            }
            spec.spus.push_back(std::move(s));
        } else if (kind == "job") {
            if (tokens.size() < 3)
                PISO_FATAL("line ", lineNo,
                           ": job needs <spu> <kind> [options]");
            JobDecl j;
            j.spu = tokens[1];
            j.kind = tokens[2];
            j.options = parseOptions(tokens, 3, lineNo);
            j.line = lineNo;
            auto it = j.options.find("name");
            if (it != j.options.end()) {
                j.name = it->second;
                j.options.erase(it);
            } else {
                j.name = j.kind + std::to_string(autoJob++);
            }
            const bool known =
                j.kind == "pmake" || j.kind == "copy" ||
                j.kind == "compute" || j.kind == "ocean" ||
                j.kind == "oltp" || j.kind == "web";
            if (!known)
                PISO_FATAL("line ", lineNo, ": unknown job kind '",
                           j.kind, "'");
            bool spuKnown = false;
            for (const SpuDecl &s : spec.spus)
                spuKnown |= s.name == j.spu;
            if (!spuKnown)
                PISO_FATAL("line ", lineNo, ": job references unknown "
                           "spu '", j.spu, "'");
            spec.jobs.push_back(std::move(j));
        } else {
            PISO_FATAL("line ", lineNo, ": unknown directive '", kind,
                       "' (machine|spu|job|[faults])");
        }
    }

    if (spec.spus.empty())
        PISO_FATAL("workload spec declares no SPUs");
    if (spec.jobs.empty())
        PISO_FATAL("workload spec declares no jobs");
    // Jobs run on leaves only; a group's share is divided among its
    // children, so a process directly on a group has no level to be
    // accounted at.
    for (const JobDecl &j : spec.jobs) {
        for (const SpuDecl &s : spec.spus) {
            if (s.parent == j.spu)
                PISO_FATAL("line ", j.line, ": job '", j.name,
                           "' runs on '", j.spu,
                           "', which is a group, not a leaf SPU");
        }
    }
    return spec;
}

JobSpec
buildJob(const JobDecl &decl)
{
    OptionReader r(decl.options, decl.line);
    const Time startAt = fromSeconds(r.num("start_s", 0.0));
    JobSpec job;

    if (decl.kind == "pmake") {
        PmakeConfig c;
        c.parallelism = r.count<int>("workers", 2);
        c.filesPerWorker = r.count<int>("files", 12);
        c.compileCpu = fromMillis(r.num("compile_ms", 120.0));
        c.workerWsPages = r.count<std::uint32_t>("ws_pages", 600);
        job = makePmake(decl.name, c);
    } else if (decl.kind == "copy") {
        FileCopyConfig c;
        c.bytes = std::uint64_t{r.count<std::uint32_t>("bytes_kb",
                                                       20 * 1024)} *
                  kKiB;
        job = makeFileCopy(decl.name, c);
    } else if (decl.kind == "compute") {
        ComputeSpec c;
        c.totalCpu = fromMillis(r.num("cpu_ms", 1000.0));
        c.wsPages = r.count<std::uint32_t>("ws_pages", 256);
        job = makeComputeJob(decl.name, c);
    } else if (decl.kind == "ocean") {
        OceanConfig c;
        c.processes = r.count<int>("procs", 4);
        c.iterations = r.count<int>("iters", 400);
        c.grain = fromMillis(r.num("grain_ms", 20.0));
        c.wsPagesPerProc = r.count<std::uint32_t>("ws_pages", 512);
        job = makeOcean(decl.name, c);
    } else if (decl.kind == "oltp") {
        OltpConfig c;
        c.servers = r.count<int>("servers", 4);
        c.transactionsPerServer = r.count<int>("txns", 100);
        c.txnCpu = fromMillis(r.num("txn_ms", 2.0));
        c.updateFraction = r.num("update_frac", 0.3);
        c.tableBytes =
            std::uint64_t{r.count<std::uint32_t>("table_mb", 64)} * kMiB;
        job = makeOltp(decl.name, c);
    } else if (decl.kind == "web") {
        WebServerConfig c;
        c.workers = r.count<int>("workers", 4);
        c.requestsPerWorker = r.count<int>("requests", 200);
        c.requestCpu = fromMillis(r.num("request_ms", 0.5));
        c.responseBytes =
            std::uint64_t{r.count<std::uint32_t>("response_kb", 16)} *
            kKiB;
        c.documents = r.count<int>("documents", 200);
        job = makeWebServer(decl.name, c);
    } else {
        PISO_FATAL("line ", decl.line, ": unknown job kind '",
                   decl.kind, "'");
    }

    job.startAt = startAt;
    r.finish();
    return job;
}

void
populateWorkloadSpec(Simulation &sim, const WorkloadSpec &spec)
{
    std::map<std::string, SpuId> ids;
    for (const SpuDecl &s : spec.spus) {
        SpuSpec ss{.name = s.name, .share = s.share, .homeDisk = s.disk,
                   .parent = kNoSpu};
        if (!s.parent.empty())
            ss.parent = ids.at(s.parent);
        ids[s.name] = sim.addSpu(ss);
    }
    for (const JobDecl &j : spec.jobs)
        sim.addJob(ids.at(j.spu), buildJob(j));
}

SimResults
runWorkloadSpec(const WorkloadSpec &spec)
{
    Simulation sim(spec.config);
    populateWorkloadSpec(sim, spec);
    return sim.run();
}

SimResults
runWorkloadSpecFrom(const WorkloadSpec &spec, const std::string &image)
{
    Simulation sim(spec.config);
    populateWorkloadSpec(sim, spec);
    std::istringstream in(image);
    sim.restore(in);
    return sim.run();
}

} // namespace piso

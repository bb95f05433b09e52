#include "src/workload/pmake.hh"

#include <charconv>
#include <vector>

#include "src/util/error.hh"
#include "src/util/log.hh"

namespace piso {

namespace {

/**
 * One compile worker. Its script: grow the heap, then for each file
 * [lock,] read the source, compile, write the object, [unlock,]
 * rewrite the metadata sector. Each action is computed from the
 * cursor rather than unrolled into a list, so a worker holds one Time
 * per file instead of four or six Actions.
 */
class PmakeWorker : public Behavior
{
  public:
    /** What setup laid out for the worker. */
    struct Plan
    {
        PmakeConfig cfg;
        FileId meta = kNoFile;
        FileId firstSrc = kNoFile;  //!< source i is firstSrc + 2i, its
                                    //!< object the id after it
        std::vector<Time> compile;  //!< compile CPU of each file
    };

    explicit PmakeWorker(Plan plan) : plan_(std::move(plan)) {}

    Action next(Process &, const BehaviorContext &) override;

    void serializeState(CkptWriter &w) override { serialize(w); }

    void
    serializeState(CkptReader &r) override
    {
        serialize(r);
        postLoad();
    }

    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(index_);
    }

    void
    postLoad()
    {
        if (index_ > length())
            throw ConfigError("checkpoint image rejected: script "
                              "cursor beyond script end");
    }

  private:
    std::size_t
    perFile() const
    {
        return plan_.cfg.inodeLock >= 0 ? 6 : 4;
    }

    /** Actions before the exit: the heap growth plus every file's. */
    std::size_t
    length() const
    {
        return 1 + plan_.compile.size() * perFile();
    }

    // piso-lint: allow(checkpoint-field-coverage) -- file ids and
    // compile times are configuration replayed by setup; only the
    // cursor is imaged.
    Plan plan_;
    std::size_t index_ = 0;
};

Action
PmakeWorker::next(Process &, const BehaviorContext &)
{
    if (index_ >= length())
        return ExitAction{};
    const std::size_t k = index_++;
    const PmakeConfig &cfg = plan_.cfg;
    if (k == 0)
        return GrowMemAction{cfg.workerWsPages};

    const std::size_t file = (k - 1) / perFile();
    std::size_t step = (k - 1) % perFile();
    // Without the lock a file's steps are the locked ones minus the
    // acquire (0) and the release (4).
    static constexpr std::size_t kUnlocked[] = {1, 2, 3, 5};
    if (cfg.inodeLock < 0)
        step = kUnlocked[step];

    const FileId src = plan_.firstSrc + 2 * static_cast<FileId>(file);
    switch (step) {
      case 0:
        return LockAction{cfg.inodeLock, false, cfg.lockHold};
      case 1:
        return ReadAction{src, 0, cfg.srcBytes};
      case 2:
        return ComputeAction{plan_.compile[file]};
      case 3:
        return WriteAction{src + 1, 0, cfg.objBytes, false};
      case 4:
        return LockAction{cfg.inodeLock, true, cfg.lockHold};
      default:
        return WriteAction{plan_.meta, 0, 512, cfg.metadataSync};
    }
}

} // namespace

JobSpec
makePmake(std::string name, const PmakeConfig &cfg)
{
    if (cfg.parallelism < 1 || cfg.filesPerWorker < 1)
        PISO_FATAL("pmake '", name, "' needs >=1 worker and >=1 file");

    JobSpec job;
    job.name = std::move(name);
    job.build = [cfg, jobName = job.name](Kernel &,
                                          WorkloadEnv &env) {
        // One shared metadata block per job: every worker rewrites it,
        // so the disk sees repeated writes to a single sector.
        const FileId meta = env.fs.createFile(jobName + ".meta", env.disk,
                                              512);

        std::vector<ProcessSpec> procs;
        std::string file;
        for (int w = 0; w < cfg.parallelism; ++w) {
            const std::string stem =
                jobName + ".w" + std::to_string(w) + ".f";
            PmakeWorker::Plan plan{cfg, meta, kNoFile, {}};
            plan.compile.reserve(static_cast<std::size_t>(
                cfg.filesPerWorker));

            for (int i = 0; i < cfg.filesPerWorker; ++i) {
                char digits[16];
                char *const end =
                    std::to_chars(digits, digits + sizeof digits, i).ptr;
                file.assign(stem).append(digits, end).append(".c");
                const FileId src =
                    env.fs.createFile(file, env.disk, cfg.srcBytes,
                                      FilePlacement::Scattered);
                file.back() = 'o';
                const FileId obj =
                    env.fs.createFile(file, env.disk, cfg.objBytes,
                                      FilePlacement::Scattered);
                if (i == 0)
                    plan.firstSrc = src;
                if (src != plan.firstSrc + 2 * i || obj != src + 1)
                    PISO_PANIC("pmake '", jobName, "' file ids are not "
                               "contiguous at file ", i);

                const double f = env.rng.uniformRange(0.8, 1.2);
                plan.compile.push_back(static_cast<Time>(
                    static_cast<double>(cfg.compileCpu) * f));
            }

            ProcessSpec spec;
            spec.name = jobName + ".cc" + std::to_string(w);
            spec.behavior = std::make_unique<PmakeWorker>(std::move(plan));
            spec.touchInterval = cfg.touchInterval;
            procs.push_back(std::move(spec));
        }
        return procs;
    };
    return job;
}

} // namespace piso

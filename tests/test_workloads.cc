/**
 * @file
 * Tests for the workload models: action streams and end-to-end runs.
 */

#include <gtest/gtest.h>

#include "src/piso.hh"

using namespace piso;

namespace {

SystemConfig
smallMachine()
{
    SystemConfig cfg;
    cfg.cpus = 2;
    cfg.memoryBytes = 32 * kMiB;
    cfg.diskCount = 1;
    cfg.scheme = Scheme::Smp;
    cfg.seed = 5;
    return cfg;
}

/**
 * makePmake's build as a fully unrolled script per worker, in the
 * order it creates files and draws compile jitter: the reference
 * stream its on-demand workers must reproduce.
 */
std::vector<std::vector<Action>>
unrolledPmake(const std::string &jobName, const PmakeConfig &cfg,
              WorkloadEnv &env)
{
    const FileId meta =
        env.fs.createFile(jobName + ".meta", env.disk, 512);
    std::vector<std::vector<Action>> scripts;
    for (int w = 0; w < cfg.parallelism; ++w) {
        std::vector<Action> script;
        script.push_back(GrowMemAction{cfg.workerWsPages});
        for (int i = 0; i < cfg.filesPerWorker; ++i) {
            const std::string stem = jobName + ".w" + std::to_string(w) +
                                     ".f" + std::to_string(i);
            const FileId src =
                env.fs.createFile(stem + ".c", env.disk, cfg.srcBytes,
                                  FilePlacement::Scattered);
            const FileId obj =
                env.fs.createFile(stem + ".o", env.disk, cfg.objBytes,
                                  FilePlacement::Scattered);
            if (cfg.inodeLock >= 0)
                script.push_back(
                    LockAction{cfg.inodeLock, false, cfg.lockHold});
            script.push_back(ReadAction{src, 0, cfg.srcBytes});
            const double f = env.rng.uniformRange(0.8, 1.2);
            script.push_back(ComputeAction{static_cast<Time>(
                static_cast<double>(cfg.compileCpu) * f)});
            script.push_back(WriteAction{obj, 0, cfg.objBytes, false});
            if (cfg.inodeLock >= 0)
                script.push_back(
                    LockAction{cfg.inodeLock, true, cfg.lockHold});
            script.push_back(WriteAction{meta, 0, 512, cfg.metadataSync});
        }
        scripts.push_back(std::move(script));
    }
    return scripts;
}

/** An action's checkpoint bytes: equal bytes, equal action. */
std::string
actionBytes(const Action &a)
{
    CkptWriter w;
    w(a);
    return w.payload();
}

} // namespace

TEST(ScriptBehavior, PlaysBackThenExits)
{
    ScriptBehavior b({ComputeAction{kMs}, SleepAction{kMs}});
    Process p(1, 2, kNoJob, "p",
              std::make_unique<ScriptBehavior>(std::vector<Action>{}),
              Rng(1));
    Rng rng(1);
    BehaviorContext ctx{0, rng};
    EXPECT_TRUE(std::holds_alternative<ComputeAction>(b.next(p, ctx)));
    EXPECT_TRUE(std::holds_alternative<SleepAction>(b.next(p, ctx)));
    EXPECT_TRUE(std::holds_alternative<ExitAction>(b.next(p, ctx)));
    EXPECT_TRUE(std::holds_alternative<ExitAction>(b.next(p, ctx)));
}

TEST(ComputeBehavior, EmitsGrowThenComputeChunks)
{
    ComputeSpec spec;
    spec.totalCpu = 250 * kMs;
    spec.chunk = 100 * kMs;
    spec.wsPages = 32;
    spec.jitter = 0.0;
    ComputeBehavior b(spec);
    Process p(1, 2, kNoJob, "p",
              std::make_unique<ScriptBehavior>(std::vector<Action>{}),
              Rng(1));
    Rng rng(1);
    BehaviorContext ctx{0, rng};
    EXPECT_TRUE(std::holds_alternative<GrowMemAction>(b.next(p, ctx)));
    Time total = 0;
    Action a = b.next(p, ctx);
    while (std::holds_alternative<ComputeAction>(a)) {
        total += std::get<ComputeAction>(a).duration;
        a = b.next(p, ctx);
    }
    EXPECT_TRUE(std::holds_alternative<ExitAction>(a));
    EXPECT_EQ(total, 250 * kMs);
}

TEST(Job, TracksCompletion)
{
    Job j(0, "j", 2, 100);
    j.addProcess();
    j.addProcess();
    EXPECT_FALSE(j.completed());
    EXPECT_FALSE(j.processExited(500));
    EXPECT_TRUE(j.processExited(900));
    EXPECT_TRUE(j.completed());
    EXPECT_EQ(j.endTime(), 900u);
    EXPECT_EQ(j.response(), 800u);
}

TEST(Workloads, ComputeJobRunsToCompletion)
{
    Simulation sim(smallMachine());
    const SpuId u = sim.addSpu({.name = "u"});
    ComputeSpec spec;
    spec.totalCpu = 300 * kMs;
    sim.addJob(u, makeComputeJob("hog", spec));
    const SimResults r = sim.run();
    ASSERT_TRUE(r.completed);
    EXPECT_NEAR(r.job("hog").responseSec(), 0.3, 0.05);
}

TEST(Workloads, PmakeCompletesAndDoesScatteredIo)
{
    Simulation sim(smallMachine());
    const SpuId u = sim.addSpu({.name = "u"});
    PmakeConfig cfg;
    cfg.parallelism = 2;
    cfg.filesPerWorker = 6;
    sim.addJob(u, makePmake("pm", cfg));
    const SimResults r = sim.run();
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.job("pm").responseSec(), 0.3);
    // Source reads + object writes + metadata syncs hit the disk.
    EXPECT_GT(r.disks[0].requests, 20u);
    EXPECT_GT(r.kernel.syncWriteRequests.value(), 10u);
}

TEST(Workloads, PmakeParallelismUsesBothCpus)
{
    // One worker vs two workers: two workers nearly halve the
    // response on a 2-CPU machine.
    PmakeConfig one;
    one.parallelism = 1;
    one.filesPerWorker = 12;
    Simulation sim1(smallMachine());
    sim1.addJob(sim1.addSpu({.name = "u"}), makePmake("pm", one));
    const double t1 = sim1.run().job("pm").responseSec();

    PmakeConfig two;
    two.parallelism = 2;
    two.filesPerWorker = 6;
    Simulation sim2(smallMachine());
    sim2.addJob(sim2.addSpu({.name = "u"}), makePmake("pm", two));
    const double t2 = sim2.run().job("pm").responseSec();
    EXPECT_LT(t2, 0.75 * t1);
}

TEST(Workloads, OceanBarriersKeepRanksTogether)
{
    SystemConfig cfg = smallMachine();
    cfg.cpus = 4;
    Simulation sim(cfg);
    const SpuId u = sim.addSpu({.name = "u"});
    OceanConfig oc;
    oc.processes = 4;
    oc.iterations = 50;
    oc.grain = 10 * kMs;
    sim.addJob(u, makeOcean("ocean", oc));
    const SimResults r = sim.run();
    ASSERT_TRUE(r.completed);
    // 50 iterations x ~10 ms; barrier waits make it the max of the
    // jittered ranks, so a bit over 0.5 s.
    EXPECT_GT(r.job("ocean").responseSec(), 0.5);
    EXPECT_LT(r.job("ocean").responseSec(), 0.8);
}

TEST(Workloads, OceanSuffersWhenCpuStarved)
{
    // 4 ranks on 2 CPUs: every barrier round needs two batches, so
    // response at least doubles.
    OceanConfig oc;
    oc.processes = 4;
    oc.iterations = 50;
    oc.grain = 10 * kMs;

    SystemConfig four = smallMachine();
    four.cpus = 4;
    Simulation sim4(four);
    sim4.addJob(sim4.addSpu({.name = "u"}), makeOcean("ocean", oc));
    const double t4 = sim4.run().job("ocean").responseSec();

    Simulation sim2(smallMachine()); // 2 CPUs
    sim2.addJob(sim2.addSpu({.name = "u"}), makeOcean("ocean", oc));
    const double t2 = sim2.run().job("ocean").responseSec();
    EXPECT_GT(t2, 1.8 * t4);
}

TEST(Workloads, FileCopyMovesAllData)
{
    Simulation sim(smallMachine());
    const SpuId u = sim.addSpu({.name = "u"});
    FileCopyConfig cc;
    cc.bytes = 4 * kMiB;
    sim.addJob(u, makeFileCopy("cp", cc));
    const SimResults r = sim.run();
    ASSERT_TRUE(r.completed);
    // 4 MiB read + 4 MiB written = 16384 sectors, give or take
    // read-ahead overshoot and delayed-write timing.
    EXPECT_GT(r.disks[0].sectors, 12000u);
}

TEST(Workloads, FileCopyBenefitsFromReadAhead)
{
    Simulation sim(smallMachine());
    const SpuId u = sim.addSpu({.name = "u"});
    FileCopyConfig cc;
    cc.bytes = 4 * kMiB;
    sim.addJob(u, makeFileCopy("cp", cc));
    const SimResults r = sim.run();
    EXPECT_GT(r.kernel.readAheadRequests.value(),
              r.kernel.readRequests.value());
}

TEST(Workloads, CopyRequestCountScalesWithSize)
{
    auto requests = [](std::uint64_t bytes) {
        SystemConfig cfg;
        cfg.cpus = 2;
        cfg.memoryBytes = 44 * kMiB;
        cfg.scheme = Scheme::Smp;
        cfg.seed = 5;
        Simulation sim(cfg);
        FileCopyConfig cc;
        cc.bytes = bytes;
        sim.addJob(sim.addSpu({.name = "u"}), makeFileCopy("cp", cc));
        return sim.run().disks[0].requests;
    };
    const auto small = requests(1 * kMiB);
    const auto big = requests(8 * kMiB);
    EXPECT_GT(big, 5 * small);
}

TEST(Workloads, MakeScriptJobRuns)
{
    Simulation sim(smallMachine());
    const SpuId u = sim.addSpu({.name = "u"});
    sim.addJob(u, makeScriptJob("s", {ComputeAction{50 * kMs}}));
    const SimResults r = sim.run();
    EXPECT_TRUE(r.completed);
    EXPECT_NEAR(r.job("s").responseSec(), 0.05, 0.02);
}

TEST(Workloads, JobStartAtDelaysProcesses)
{
    Simulation sim(smallMachine());
    const SpuId u = sim.addSpu({.name = "u"});
    sim.addJob(u, makeScriptJob("late", {ComputeAction{10 * kMs}},
                                2 * kSec));
    const SimResults r = sim.run();
    EXPECT_GE(r.job("late").end, 2 * kSec);
    // Response measured from the job's own start, not t=0.
    EXPECT_LT(r.job("late").responseSec(), 0.1);
}

TEST(Workloads, InvalidConfigsRejected)
{
    EXPECT_THROW(makePmake("bad", PmakeConfig{.parallelism = 0}),
                 std::runtime_error);
    OceanConfig oc;
    oc.iterations = 0;
    EXPECT_THROW(makeOcean("bad", oc), std::runtime_error);
    FileCopyConfig cc;
    cc.bytes = 0;
    EXPECT_THROW(makeFileCopy("bad", cc), std::runtime_error);
}

TEST(Workloads, PmakeWorkerEmitsTheUnrolledScript)
{
    Simulation sim(smallMachine());
    Process self(1, 2, kNoJob, "p",
                 std::make_unique<ScriptBehavior>(std::vector<Action>{}),
                 Rng(1));
    Rng procRng(1);
    const BehaviorContext ctx{0, procRng};

    for (const int lock : {-1, 0}) {
        for (const bool sync : {false, true}) {
            for (const int workers : {1, 3}) {
                SCOPED_TRACE(testing::Message()
                             << "lock " << lock << " sync " << sync
                             << " workers " << workers);
                PmakeConfig cfg;
                cfg.parallelism = workers;
                cfg.filesPerWorker = 7;
                cfg.metadataSync = sync;
                cfg.inodeLock = lock;

                FileSystem fs(512, 4096, 99);
                fs.addDisk(0, 4000000);
                WorkloadEnv env{fs, Rng(17), 0, 4096};
                const JobSpec job = makePmake("pm", cfg);
                const std::vector<ProcessSpec> procs =
                    job.build(sim.kernel(), env);

                FileSystem refFs(512, 4096, 99);
                refFs.addDisk(0, 4000000);
                WorkloadEnv refEnv{refFs, Rng(17), 0, 4096};
                const std::vector<std::vector<Action>> ref =
                    unrolledPmake("pm", cfg, refEnv);

                ASSERT_EQ(procs.size(), ref.size());
                for (std::size_t w = 0; w < ref.size(); ++w) {
                    EXPECT_EQ(procs[w].name,
                              "pm.cc" + std::to_string(w));
                    EXPECT_EQ(procs[w].touchInterval, cfg.touchInterval);
                    Behavior &b = *procs[w].behavior;
                    for (std::size_t k = 0; k < ref[w].size(); ++k) {
                        ASSERT_EQ(actionBytes(b.next(self, ctx)),
                                  actionBytes(ref[w][k]))
                            << "worker " << w << " action " << k;
                    }
                    EXPECT_TRUE(std::holds_alternative<ExitAction>(
                        b.next(self, ctx)));
                    EXPECT_TRUE(std::holds_alternative<ExitAction>(
                        b.next(self, ctx)));
                }

                // Same file table: every file, then the next id.
                const FileId files = 1 + 2 * workers * cfg.filesPerWorker;
                for (FileId id = 0; id < files; ++id) {
                    const FileInfo &got = fs.file(id);
                    const FileInfo &want = refFs.file(id);
                    EXPECT_EQ(got.name, want.name);
                    EXPECT_EQ(got.startSector, want.startSector);
                    EXPECT_EQ(got.sectors, want.sectors);
                    EXPECT_EQ(got.metadataSector, want.metadataSector);
                    EXPECT_EQ(got.bytes, want.bytes);
                }
                EXPECT_EQ(fs.createExtent("end", 0, 4096), files);
                EXPECT_EQ(refFs.createExtent("end", 0, 4096), files);
                // Both builds drew the same number of jitter values.
                EXPECT_EQ(env.rng.uniformInt(1u << 30),
                          refEnv.rng.uniformInt(1u << 30));
            }
        }
    }
}

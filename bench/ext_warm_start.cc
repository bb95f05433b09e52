/**
 * @file
 * Warm-start sweep speedup (google-benchmark): the numbers behind the
 * docs/checkpoint.md claim that forking a fault-axis sweep from one
 * checkpointed prefix beats re-simulating every grid point from time
 * zero by >= 2x.
 *
 * The plan is the warm-start engine's best case, which is also the
 * common what-if shape: one compute-heavy base workload (dense
 * quiescent boundaries) swept over a late-fault axis, so every grid
 * point shares the long undisturbed prefix and differs only in its
 * tail. Cold cost ~ N runs; warm cost ~ one prefix run + N tails.
 *
 * BM_SweepCold / BM_SweepWarm share one plan; compare their times for
 * the speedup. BM_TemplateCheckpoint isolates the fixed cost warm
 * start adds per group (the template run and its images).
 *
 * BM_SweepColdNoBoundary / BM_SweepWarmNoBoundary are the worst case:
 * an I/O-bound base whose disk never idles, so no group finds a
 * quiescent boundary and every member runs cold after its group's
 * template run. Their difference is what warm start costs when
 * nothing can be shared.
 */

#include <benchmark/benchmark.h>

#include "src/config/workload_spec.hh"
#include "src/exp/experiment.hh"
#include "src/exp/runner.hh"
#include "src/piso.hh"

using namespace piso;

namespace {

/**
 * Compute-dominated base: the hogs run ~5s of simulated time, and the
 * disk is quiet after the startup page-ins, so quiescent boundaries
 * stay dense right up to the fault axis' divergence times below.
 */
const char *kSpec = R"(
machine cpus=4 memory_mb=32 disks=2 scheme=piso seed=3
spu ocean share=1 disk=0
spu eng share=1 disk=1
job ocean ocean name=sim procs=2 iters=60 grain_ms=20 ws_pages=400
job eng compute name=hog1 cpu_ms=5000 ws_pages=300
job eng compute name=hog2 cpu_ms=5000 ws_pages=300
)";

/**
 * Eight what-if scenarios diverging at t=4s: the shared prefix is
 * ~4/5 of the run. All grid points have one digest, so warm start
 * folds them into a single group.
 */
exp::ExperimentPlan
faultAxisPlan()
{
    exp::ExperimentPlan plan;
    plan.base = parseWorkloadSpec(kSpec);
    plan.axes.push_back(exp::parseGridAxis(
        "fault_disk_slow=none,4:0.5:0:2,4:0.5:0:4,4:0.5:0:8,"
        "4:0.5:1:4,4:1:0:4,4:1:1:8,4.2:0.5:0:4"));
    return plan;
}

/**
 * The worst case: a pmake and a 20 MB copy share one disk that stays
 * busy from the first request to the end (examples/specs/
 * disk_contention.piso), under eight scenarios on its one disk
 * diverging at t=4s. The template runs the prefix to 4s and finds
 * nothing.
 */
const char *kNoBoundarySpec = R"(
machine cpus=2 memory_mb=44 disks=1 scheme=piso disk_policy=piso seek_scale=0.5 seed=3
spu builder share=1 disk=0
spu copier  share=1 disk=0
job builder pmake name=build workers=2 files=30 compile_ms=25 ws_pages=200
job copier  copy  name=bigcopy bytes_kb=20480
)";

exp::ExperimentPlan
noBoundaryPlan()
{
    exp::ExperimentPlan plan;
    plan.base = parseWorkloadSpec(kNoBoundarySpec);
    plan.axes.push_back(exp::parseGridAxis(
        "fault_disk_slow=none,4:0.5:0:2,4:0.5:0:4,4:0.5:0:8,"
        "4:1:0:2,4:1:0:4,4:1:0:8,4.2:0.5:0:4"));
    return plan;
}

void
runSweep(benchmark::State &state, bool warmStart,
         const exp::ExperimentPlan &plan = faultAxisPlan())
{
    exp::SweepOptions opts;
    opts.jobs = 1; // serial: measure work, not parallel fan-out
    opts.warmStart = warmStart;
    for (auto _ : state) {
        const exp::SweepOutcome outcome = exp::runPlan(plan, opts);
        if (outcome.failures() != 0)
            state.SkipWithError("sweep task failed");
        benchmark::DoNotOptimize(outcome.runs.size());
        state.counters["forked"] =
            static_cast<double>(outcome.forkedTasks);
        state.counters["template_sim_s"] =
            toSeconds(outcome.templateSimTime);
    }
}

void
BM_SweepCold(benchmark::State &state)
{
    runSweep(state, false);
}
BENCHMARK(BM_SweepCold)->Unit(benchmark::kMillisecond);

void
BM_SweepWarm(benchmark::State &state)
{
    runSweep(state, true);
}
BENCHMARK(BM_SweepWarm)->Unit(benchmark::kMillisecond);

void
BM_SweepColdNoBoundary(benchmark::State &state)
{
    runSweep(state, false, noBoundaryPlan());
}
BENCHMARK(BM_SweepColdNoBoundary)->Unit(benchmark::kMillisecond);

void
BM_SweepWarmNoBoundary(benchmark::State &state)
{
    runSweep(state, true, noBoundaryPlan());
}
BENCHMARK(BM_SweepWarmNoBoundary)->Unit(benchmark::kMillisecond);

void
BM_TemplateCheckpoint(benchmark::State &state)
{
    // The fixed cost warm start adds on top of the forked tails: run
    // the shared prefix once through the engine's target ladder (just
    // after zero, 1/4, 1/2, 3/4 of the 4s divergence) and serialise
    // an image at each.
    WorkloadSpec spec = parseWorkloadSpec(kSpec);
    spec.config.checkpointAt = 1;
    spec.config.checkpointLaterAt = {kSec, 2 * kSec, 3 * kSec};
    spec.config.checkpointDeadline = 4 * kSec;
    spec.config.checkpointStop = true;
    for (auto _ : state) {
        std::string image;
        spec.config.checkpointSink = [&image](std::string img) {
            image = std::move(img);
        };
        Simulation sim(spec.config);
        populateWorkloadSpec(sim, spec);
        sim.run();
        if (image.empty())
            state.SkipWithError("no checkpoint fired");
        benchmark::DoNotOptimize(image.size());
    }
}
BENCHMARK(BM_TemplateCheckpoint)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();

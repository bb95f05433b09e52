#include "src/os/process.hh"

#include "src/sim/checkpoint.hh"
#include "src/util/log.hh"
#include "src/util/error.hh"

namespace piso {

const char *
procStateName(ProcState s)
{
    switch (s) {
      case ProcState::Embryo:
        return "embryo";
      case ProcState::Ready:
        return "ready";
      case ProcState::Running:
        return "running";
      case ProcState::Blocked:
        return "blocked";
      case ProcState::Exited:
        return "exited";
    }
    return "?";
}

Process::Process(Pid pid, SpuId spu, JobId job, std::string name,
                 std::unique_ptr<Behavior> behavior, Rng rng)
    : pid_(pid), spu_(spu), job_(job), name_(std::move(name)),
      behavior_(std::move(behavior)), rng_(rng)
{
    if (!behavior_)
        PISO_FATAL("process '", name_, "' created without a behavior");
}

template <class Ar>
void
Process::serialize(Ar &ar)
{
    ar.match(pid_, "process order");
    ar(state_, rng_);
    behavior_->serializeState(ar);

    foldDecay();  // images carry the decayed value
    ar(recentCpu_, nice, runningOn, lastRanOn, sliceUsed, readySince);

    ar(computeRemaining, segmentStart, segmentFaults, pendingIo, lockHeld,
       pendingAction, spinning, ioFailed);

    ar(workingSet, resident, everTouched, dirtyFraction, touchInterval,
       growInterval);

    ar(startTime, endTime, cpuTime, blockedTime, lastBlockStart,
       zeroFillFaults, refaults, diskReads, diskWrites);
}

template void Process::serialize(CkptWriter &);
template void Process::serialize(CkptReader &);

void
Process::postLoad()
{
    segmentEvent = kNoEvent;
    startEvent = kNoEvent;
    wakeEvent = kNoEvent;
    setRecentCpu(recentCpu_);
}

} // namespace piso

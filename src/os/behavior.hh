#ifndef PISO_OS_BEHAVIOR_HH
#define PISO_OS_BEHAVIOR_HH

/**
 * @file
 * Behavior: the program a simulated process executes.
 */

#include "src/os/action.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/random.hh"
#include "src/util/time.hh"

namespace piso {

class Process;

/** Read-only context handed to behaviours when they emit actions. */
struct BehaviorContext
{
    Time now;   //!< current simulated time
    Rng &rng;   //!< per-process random stream
};

/**
 * A supplier of Actions. The kernel calls next() each time the previous
 * action finishes; returning ExitAction ends the process.
 *
 * Implementations live in src/workload (pmake, Ocean, file copy, ...)
 * and in tests (scripted sequences).
 */
class Behavior
{
  public:
    virtual ~Behavior() = default;

    /** Produce the process's next action. */
    virtual Action next(Process &self, const BehaviorContext &ctx) = 0;

    /** @name Checkpoint — serialise only mutable cursor state; the
     *  behaviour object itself (scripts, parameters) is rebuilt by
     *  the deterministic setup replay. Default: stateless. */
    /// @{
    virtual void serializeState(CkptWriter &) {}
    virtual void serializeState(CkptReader &) {}
    /// @}
};

} // namespace piso

#endif // PISO_OS_BEHAVIOR_HH

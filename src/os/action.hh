#ifndef PISO_OS_ACTION_HH
#define PISO_OS_ACTION_HH

/**
 * @file
 * The vocabulary of things a simulated process can do.
 *
 * A process's Behavior yields a stream of Actions; the Kernel interprets
 * them. This is the boundary between workload models (what a pmake or a
 * file copy *does*) and the OS substrate (what that costs and when it
 * blocks).
 */

#include <cstdint>
#include <variant>

#include "src/sim/ids.hh"
#include "src/util/time.hh"

namespace piso {

/** Burn CPU for @ref duration (preemptible; subject to page faults). */
struct ComputeAction
{
    Time duration;

    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(duration);
    }
};

/** Read @ref bytes from @ref file at @ref offset through the buffer
 *  cache; blocks until all demanded blocks are resident. */
struct ReadAction
{
    FileId file;
    std::uint64_t offset;
    std::uint64_t bytes;

    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(file, offset, bytes);
    }
};

/**
 * Write @ref bytes to @ref file at @ref offset. Delayed writes dirty
 * buffer-cache blocks and return quickly; @ref sync forces the data to
 * disk before the action completes (used for metadata writes).
 */
struct WriteAction
{
    FileId file;
    std::uint64_t offset;
    std::uint64_t bytes;
    bool sync = false;

    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(file, offset, bytes, sync);
    }
};

/** Raise the process working set by @ref pages (touched on demand). */
struct GrowMemAction
{
    std::uint64_t pages;

    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(pages);
    }
};

/** Release @ref pages resident pages and shrink the working set. */
struct ShrinkMemAction
{
    std::uint64_t pages;

    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(pages);
    }
};

/** Block without consuming CPU for @ref duration. */
struct SleepAction
{
    Time duration;

    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(duration);
    }
};

/**
 * Synchronise with the other members of barrier @ref barrier; the
 * barrier's width is configured when it is created in the Kernel.
 * With @ref spin set, waiting burns CPU instead of blocking (a
 * user-level spin barrier, as in SPLASH-2 codes): the waiter keeps
 * its processor, so no idle CPU is exposed for lending — but under
 * CPU oversubscription the spinner can be preempted, stretching every
 * barrier round (the convoy effect that hurts Ocean under SMP).
 */
struct BarrierAction
{
    int barrier;
    bool spin = false;

    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(barrier, spin);
    }
};

/**
 * Acquire kernel lock @ref lock (shared or exclusive), hold it for
 * @ref hold of compute time, then release. Models the Section 3.4
 * inode-lock / page-insert-lock contention.
 */
struct LockAction
{
    int lock;
    bool exclusive;
    Time hold;

    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(lock, exclusive, hold);
    }
};

/**
 * Transmit @ref bytes on the machine's network interface; blocks
 * until the message has left the wire (a synchronous send). Requires
 * a configured network (SystemConfig::networkBitsPerSec).
 */
struct SendAction
{
    std::uint64_t bytes;

    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(bytes);
    }
};

/** Terminate the process. */
struct ExitAction
{
    template <class Ar>
    void
    serialize(Ar &)
    {
    }
};

/** Any single step of a process's life. */
using Action = std::variant<ComputeAction, ReadAction, WriteAction,
                            GrowMemAction, ShrinkMemAction, SleepAction,
                            BarrierAction, LockAction, SendAction,
                            ExitAction>;

} // namespace piso

#endif // PISO_OS_ACTION_HH

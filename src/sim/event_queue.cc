#include "src/sim/event_queue.hh"

#include "src/util/log.hh"
#include "src/util/error.hh"

namespace piso {

std::uint32_t
EventQueue::growSlab()
{
    const auto idx = static_cast<std::uint32_t>(state_.size());
    if ((idx & kChunkMask) == 0)
        chunks_.push_back(std::make_unique<Slot[]>(kChunkMask + 1));
    state_.push_back(packState(0, false));
    heap_.addSlot();
    return idx;
}

EventId
EventQueue::enqueue(std::uint32_t idx, Time when, std::uint64_t seq,
                    const char *name)
{
    PISO_INVARIANT(when >= now_, "event '", name,
                   "' scheduled in the past (", formatTime(when),
                   " < now=", formatTime(now_), ")");
    slot(idx).name = name;
    const std::uint32_t gen = state_[idx] >> 1;
    state_[idx] = packState(gen, true);
    heap_.push(HeapEntry{when, seq, idx});
    return makeId(idx, gen);
}

EventId
EventQueue::schedule(Time when, Callback cb, const char *name)
{
    return scheduleRestored(when, nextSeq_++, std::move(cb), name);
}

EventId
EventQueue::scheduleRestored(Time when, std::uint64_t seq, Callback cb,
                             const char *name)
{
    PISO_INVARIANT(cb, "event '", name,
                   "' scheduled with empty callback");
    const std::uint32_t idx = takeSlot();
    slot(idx).cb = std::move(cb);
    return enqueue(idx, when, seq, name);
}

void
EventQueue::clearPending()
{
    for (std::uint32_t idx = 0; idx < state_.size(); ++idx) {
        if (state_[idx] & 1u) {
            slot(idx).cb.reset();
            state_[idx] = packState((state_[idx] >> 1) + 1, false);
            freeSlots_.push_back(idx);
        }
    }
    heap_.clear();
}

void
EventQueue::restoreClock(Time now, std::uint64_t nextSeq,
                         std::uint64_t executed)
{
    PISO_INVARIANT(nextSeq >= nextSeq_,
                   "restored sequence counter moves backwards (",
                   nextSeq, " < ", nextSeq_, ")");
    now_ = now;
    nextSeq_ = nextSeq;
    executed_ = executed;
}

void
EventQueue::advanceTo(Time t)
{
    PISO_INVARIANT(t >= now_, "clock advance into the past (",
                   formatTime(t), " < now=", formatTime(now_), ")");
    PISO_INVARIANT(t <= nextEventTime(),
                   "clock advance past the next pending event");
    now_ = t;
}

bool
EventQueue::cancel(EventId id)
{
    if (id == kNoEvent)
        return false;
    const std::uint32_t idx = slotOf(id);
    if (idx >= state_.size() ||
        state_[idx] != packState(genOf(id), true))
        return false;

    PISO_CHECK(heap_.holds(idx), "cancelled event's heap entry is not ",
               "where the position index says (slot ", idx, ")");
    heap_.erase(idx);
    slot(idx).cb.reset();
    state_[idx] = packState(genOf(id) + 1, false);
    freeSlots_.push_back(idx);
    return true;
}

void
EventQueue::popAndRun()
{
    const HeapEntry entry = heap_.top();
    PISO_CHECK(entry.slot < state_.size(),
               "event heap entry points past the slab (slot ",
               entry.slot, " of ", state_.size(), ")");
    PISO_CHECK(heap_.holds(entry.slot), "head event's position index ",
               "is out of step (slot ", entry.slot, ")");
    PISO_CHECK(state_[entry.slot] & 1u,
               "heap entry for a retired slot (slot ", entry.slot, ")");
    heap_.pop();

    // Retire the event before invoking so the callback may freely
    // schedule and cancel other events: the state bump makes cancel()
    // on the firing id a no-op, and the slot joins the free list only
    // after the callback finishes, so it cannot be reused (and the
    // chunked slab keeps the in-place callable stable) while it runs.
    Slot &s = slot(entry.slot);
    state_[entry.slot] = packState((state_[entry.slot] >> 1) + 1, false);
    ++executed_;

    now_ = entry.when;
    s.cb.invokeAndReset();
    freeSlots_.push_back(entry.slot);
}

bool
EventQueue::runOne()
{
    if (heap_.empty())
        return false;
    popAndRun();
    return true;
}

std::size_t
EventQueue::runAll(Time limit)
{
    std::size_t count = 0;
    while (!heap_.empty() && heap_.top().when <= limit) {
        popAndRun();
        ++count;
    }
    return count;
}

} // namespace piso

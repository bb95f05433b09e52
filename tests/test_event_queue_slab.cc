/**
 * @file
 * Tests for the EventQueue's generation-counted slab.
 *
 * EventIds encode (slot, generation); slots are recycled after a
 * cancel or an execution, and the generation bump is what makes a
 * stale id — one whose slot has since been reused — harmless. These
 * tests pin that lifecycle (reuse, stale rejection, the executed-event
 * counter), the indexed heap's invariant that it holds only live
 * events (cancel removes the entry at once, wherever it sits), and
 * fuzz the whole thing against the same sorted-list model
 * test_event_queue_fuzz uses, with extra stale-id probing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/sim/event_queue.hh"
#include "src/sim/random.hh"
#include "tests/event_queue_test_util.hh"

using namespace piso;
using piso::test::expectHeapHoldsExactly;

namespace {

/** Slot and generation halves of an id (mirrors the queue's private
 *  encoding — this file deliberately tests that representation). */
std::uint32_t
slotOf(EventId id)
{
    return static_cast<std::uint32_t>(id & 0xffffffffull);
}

std::uint32_t
genOf(EventId id)
{
    return static_cast<std::uint32_t>(id >> 32);
}

} // namespace

// ---------------------------------------------------------------------
// Slot recycling and generation bumps
// ---------------------------------------------------------------------

TEST(EventQueueSlab, CancelRecyclesTheSlotWithANewGeneration)
{
    EventQueue q;
    const EventId a = q.schedule(1, [] {});
    ASSERT_NE(a, kNoEvent);
    EXPECT_TRUE(q.cancel(a));

    // A single-slot queue must hand the same slot back, under a newer
    // generation, so the stale id can never alias the new event.
    const EventId b = q.schedule(2, [] {});
    EXPECT_NE(b, a);
    EXPECT_EQ(slotOf(b), slotOf(a));
    EXPECT_GT(genOf(b), genOf(a));

    EXPECT_FALSE(q.pendingEvent(a));
    EXPECT_TRUE(q.pendingEvent(b));
}

TEST(EventQueueSlab, ExecutionRecyclesTheSlotWithANewGeneration)
{
    EventQueue q;
    int fired = 0;
    const EventId a = q.schedule(1, [&] { ++fired; });
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(fired, 1);

    const EventId b = q.schedule(2, [&] { ++fired; });
    EXPECT_EQ(slotOf(b), slotOf(a));
    EXPECT_GT(genOf(b), genOf(a));

    // The stale id is inert: not pending, and cancelling it neither
    // succeeds nor disturbs the live event in the reused slot.
    EXPECT_FALSE(q.pendingEvent(a));
    EXPECT_FALSE(q.cancel(a));
    EXPECT_TRUE(q.pendingEvent(b));
    EXPECT_EQ(q.pending(), 1u);

    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueSlab, StaleIdSurvivesManyReuses)
{
    // Recycle one slot through many generations; every retired id must
    // stay rejected even as the generation counter climbs.
    EventQueue q;
    std::vector<EventId> retired;
    EventId live = q.schedule(1, [] {});
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(q.cancel(live));
        retired.push_back(live);
        live = q.schedule(static_cast<Time>(i + 2), [] {});
        EXPECT_EQ(slotOf(live), slotOf(retired.front()));
        for (const EventId id : retired) {
            EXPECT_FALSE(q.pendingEvent(id));
            EXPECT_FALSE(q.cancel(id));
        }
        EXPECT_TRUE(q.pendingEvent(live));
    }
}

TEST(EventQueueSlab, IdsAreNeverNoEvent)
{
    // kNoEvent (0) is the sentinel; the encoding (slot+1 in the low
    // half) must keep every real id distinct from it, including the
    // very first slot.
    EventQueue q;
    for (int i = 0; i < 64; ++i)
        EXPECT_NE(q.schedule(1, [] {}), kNoEvent);
    EXPECT_FALSE(q.pendingEvent(kNoEvent));
    EXPECT_FALSE(q.cancel(kNoEvent));
}

// ---------------------------------------------------------------------
// The heap holds only live events
// ---------------------------------------------------------------------

TEST(EventQueueSlab, CancelRemovesHeadMiddleAndLastEntries)
{
    // Increasing times push without sifting, so the heap array is in
    // time order: t=1 is the head and t=9 the last entry.
    EventQueue q;
    std::vector<int> fired;
    std::vector<EventId> ids;
    for (int t = 1; t <= 9; ++t)
        ids.push_back(q.schedule(static_cast<Time>(t),
                                 [t, &fired] { fired.push_back(t); }));
    expectHeapHoldsExactly(q, ids);

    EXPECT_TRUE(q.cancel(ids[0]));  // head
    EXPECT_EQ(q.nextEventTime(), 2);
    EXPECT_TRUE(q.cancel(ids[4]));  // middle
    EXPECT_TRUE(q.cancel(ids[8]));  // last
    EXPECT_EQ(q.pending(), 6u);
    expectHeapHoldsExactly(q, {ids[1], ids[2], ids[3], ids[5], ids[6],
                               ids[7]});

    q.runAll();
    EXPECT_EQ(fired, (std::vector<int>{2, 3, 4, 6, 7, 8}));
    expectHeapHoldsExactly(q, {});
}

TEST(EventQueueSlab, CancelFromAFiringCallbackAtTheSameInstant)
{
    EventQueue q;
    std::vector<int> fired;
    EventId self = kNoEvent;
    EventId sibling = kNoEvent;
    EventId later = kNoEvent;
    self = q.schedule(5, [&] {
        fired.push_back(1);
        // The firing event is already retired; its sibling at the same
        // instant and a later event are still queued.
        EXPECT_FALSE(q.cancel(self));
        EXPECT_TRUE(q.cancel(sibling));
        EXPECT_TRUE(q.cancel(later));
        EXPECT_FALSE(q.cancel(sibling));
    });
    sibling = q.schedule(5, [&] { fired.push_back(2); });
    const EventId last = q.schedule(5, [&] { fired.push_back(3); });
    later = q.schedule(7, [&] { fired.push_back(4); });

    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(q.pending(), 1u);
    expectHeapHoldsExactly(q, {last});
    q.runAll();
    EXPECT_EQ(fired, (std::vector<int>{1, 3}));
    EXPECT_EQ(q.now(), 5);
}

TEST(EventQueueSlab, ClearPendingEmptiesTheHeap)
{
    EventQueue q;
    std::vector<EventId> old;
    for (int i = 0; i < 20; ++i)
        old.push_back(q.schedule(static_cast<Time>(10 + i % 3), [] {}));
    q.clearPending();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextEventTime(), kTimeNever);
    expectHeapHoldsExactly(q, {});
    for (const EventId id : old)
        EXPECT_FALSE(q.pendingEvent(id));

    // The emptied queue reuses the freed slots and still fires in
    // (when, seq) order, ties in scheduling order.
    std::vector<int> fired;
    std::vector<EventId> ids;
    for (int i = 0; i < 6; ++i)
        ids.push_back(q.schedule(static_cast<Time>(3 - i % 2),
                                 [i, &fired] { fired.push_back(i); }));
    expectHeapHoldsExactly(q, ids);
    EXPECT_EQ(q.nextEventTime(), 2);
    q.runAll();
    EXPECT_EQ(fired, (std::vector<int>{1, 3, 5, 0, 2, 4}));
}

// ---------------------------------------------------------------------
// executedEvents() counts executions, not schedules or cancels
// ---------------------------------------------------------------------

TEST(EventQueueSlab, ExecutedEventsCountsOnlyRunCallbacks)
{
    EventQueue q;
    EXPECT_EQ(q.executedEvents(), 0u);

    std::vector<EventId> ids;
    for (int i = 0; i < 10; ++i)
        ids.push_back(q.schedule(static_cast<Time>(i + 1), [] {}));
    EXPECT_EQ(q.executedEvents(), 0u);  // scheduling doesn't count

    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
    EXPECT_EQ(q.executedEvents(), 0u);  // neither does cancelling

    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(q.executedEvents(), 1u);

    q.runAll();
    EXPECT_EQ(q.executedEvents(), 6u);  // 10 scheduled - 4 cancelled

    // The counter is cumulative across the queue's life.
    q.schedule(q.now() + 1, [] {});
    q.runAll();
    EXPECT_EQ(q.executedEvents(), 7u);
}

// ---------------------------------------------------------------------
// Fuzz parity with the reference model, plus stale-id probing
// ---------------------------------------------------------------------

namespace {

struct ModelEvent
{
    Time when;
    std::uint64_t order;
    EventId id;
    int payload;
};

} // namespace

TEST(EventQueueSlab, FuzzReuseParityWithModel)
{
    Rng rng(77);
    for (int trial = 0; trial < 20; ++trial) {
        EventQueue q;
        std::vector<ModelEvent> model;    // pending per the model
        std::vector<EventId> retired;     // cancelled or fired ids
        std::vector<int> fired;
        std::uint64_t order = 0;
        int nextPayload = 0;

        for (int op = 0; op < 400; ++op) {
            switch (rng.uniformInt(4)) {
            case 0:
            case 1: { // schedule onto a few timestamps (forces both
                      // slot reuse and equal-time FIFO collisions)
                const Time when =
                    q.now() + static_cast<Time>(rng.uniformInt(3));
                const int payload = nextPayload++;
                const EventId id = q.schedule(
                    when,
                    [payload, &fired] { fired.push_back(payload); },
                    "slab-fuzz");
                EXPECT_NE(id, kNoEvent);
                model.push_back({when, order++, id, payload});
                break;
            }
            case 2: { // cancel a pending event
                if (model.empty())
                    break;
                const std::size_t i = rng.uniformInt(model.size());
                EXPECT_TRUE(q.cancel(model[i].id));
                retired.push_back(model[i].id);
                model.erase(model.begin() +
                            static_cast<std::ptrdiff_t>(i));
                break;
            }
            default: { // runOne
                const bool hadWork = !model.empty();
                EXPECT_EQ(q.runOne(), hadWork);
                if (hadWork) {
                    const auto head = std::min_element(
                        model.begin(), model.end(),
                        [](const ModelEvent &a, const ModelEvent &b) {
                            if (a.when != b.when)
                                return a.when < b.when;
                            return a.order < b.order;
                        });
                    ASSERT_FALSE(fired.empty());
                    EXPECT_EQ(fired.back(), head->payload);
                    retired.push_back(head->id);
                    model.erase(head);
                }
                break;
            }
            }

            EXPECT_EQ(q.pending(), model.size());
            EXPECT_EQ(q.executedEvents(),
                      static_cast<std::uint64_t>(fired.size()));
            std::vector<EventId> live;
            for (const ModelEvent &e : model) {
                EXPECT_TRUE(q.pendingEvent(e.id));
                live.push_back(e.id);
            }
            expectHeapHoldsExactly(q, live);

            // Every retired id stays dead no matter how often its slot
            // has been recycled since (probe a random sample).
            for (int probe = 0; probe < 4 && !retired.empty(); ++probe) {
                const EventId id =
                    retired[rng.uniformInt(retired.size())];
                EXPECT_FALSE(q.pendingEvent(id));
                EXPECT_FALSE(q.cancel(id));
            }
        }

        // Drain and verify the tail order one last time.
        std::stable_sort(model.begin(), model.end(),
                         [](const ModelEvent &a, const ModelEvent &b) {
                             if (a.when != b.when)
                                 return a.when < b.when;
                             return a.order < b.order;
                         });
        const std::size_t firedBefore = fired.size();
        q.runAll();
        ASSERT_EQ(fired.size(), firedBefore + model.size());
        for (std::size_t i = 0; i < model.size(); ++i)
            EXPECT_EQ(fired[firedBefore + i], model[i].payload);
        EXPECT_TRUE(q.empty());
        EXPECT_EQ(q.executedEvents(),
                  static_cast<std::uint64_t>(fired.size()));
    }
}

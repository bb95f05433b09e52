/**
 * @file
 * Randomized EventQueue fuzzing against a reference model.
 *
 * The queue's (time, sequence) FIFO contract is what makes every run
 * of the simulator deterministic; these tests interleave schedule /
 * cancel / runOne operations — deliberately piling events onto equal
 * timestamps — and check the firing order, the pending bookkeeping,
 * the cancellation corner cases, and that the heap holds only live
 * events, against a sorted-list model.
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

/** Reference model entry: what the queue *should* hold. */
struct ModelEvent
{
    Time when;
    std::uint64_t order;  //!< scheduling order (the FIFO tiebreak)
    EventId id;
    int payload;          //!< which callback this is
};

} // namespace

// ---------------------------------------------------------------------
// Equal-timestamp FIFO order survives arbitrary interleavings
// ---------------------------------------------------------------------

TEST(EventQueueFuzz, InterleavedOpsPreserveFifoOrder)
{
    Rng rng(101);
    for (int trial = 0; trial < 40; ++trial) {
        EventQueue q;
        std::vector<ModelEvent> model;  // still-pending events
        std::vector<int> fired;         // payloads in firing order
        std::vector<EventId> firedIds;
        std::uint64_t order = 0;
        int nextPayload = 0;

        for (int op = 0; op < 300; ++op) {
            switch (rng.uniformInt(4)) {
            case 0:
            case 1: { // schedule, biased onto a handful of timestamps
                      // so equal-time collisions are the common case
                const Time when =
                    q.now() + static_cast<Time>(rng.uniformInt(3));
                const int payload = nextPayload++;
                const EventId id = q.schedule(
                    when, [payload, &fired] { fired.push_back(payload); },
                    "fuzz");
                EXPECT_NE(id, kNoEvent);
                EXPECT_TRUE(q.pendingEvent(id));
                model.push_back({when, order++, id, payload});
                break;
            }
            case 2: { // cancel a random known id (pending or fired)
                if (!model.empty() && rng.chance(0.7)) {
                    const std::size_t i = rng.uniformInt(model.size());
                    EXPECT_TRUE(q.cancel(model[i].id));
                    model.erase(model.begin() +
                                static_cast<std::ptrdiff_t>(i));
                } else if (!firedIds.empty()) {
                    // Cancelling an already-fired id is a no-op.
                    const std::size_t i =
                        rng.uniformInt(firedIds.size());
                    const std::size_t before = fired.size();
                    EXPECT_FALSE(q.cancel(firedIds[i]));
                    EXPECT_EQ(fired.size(), before);
                }
                break;
            }
            default: { // runOne
                const bool hadWork = !model.empty();
                const std::size_t firedBefore = fired.size();
                EXPECT_EQ(q.runOne(), hadWork);
                if (hadWork) {
                    // The model's head: min (when, order).
                    const auto head = std::min_element(
                        model.begin(), model.end(),
                        [](const ModelEvent &a, const ModelEvent &b) {
                            if (a.when != b.when)
                                return a.when < b.when;
                            return a.order < b.order;
                        });
                    ASSERT_EQ(fired.size(), firedBefore + 1);
                    EXPECT_EQ(fired.back(), head->payload);
                    EXPECT_EQ(q.now(), head->when);
                    EXPECT_FALSE(q.pendingEvent(head->id));
                    firedIds.push_back(head->id);
                    model.erase(head);
                } else {
                    EXPECT_EQ(fired.size(), firedBefore);
                }
                break;
            }
            }

            // Bookkeeping invariants hold after every operation.
            EXPECT_EQ(q.pending(), model.size());
            EXPECT_EQ(q.empty(), model.empty());
            std::vector<EventId> live;
            for (const ModelEvent &e : model) {
                EXPECT_TRUE(q.pendingEvent(e.id));
                live.push_back(e.id);
            }
            expectHeapHoldsExactly(q, live);
        }

        // Drain: the remainder fires in exact (when, order) order.
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
        EXPECT_EQ(q.pending(), 0u);
    }
}

// ---------------------------------------------------------------------
// Targeted corner cases the fuzz loop hits only probabilistically
// ---------------------------------------------------------------------

TEST(EventQueueFuzz, AllEventsAtOneInstantFireInScheduleOrder)
{
    EventQueue q;
    std::vector<int> fired;
    for (int i = 0; i < 100; ++i)
        q.schedule(5, [i, &fired] { fired.push_back(i); });
    q.runAll();
    ASSERT_EQ(fired.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(q.now(), 5);
}

TEST(EventQueueFuzz, CancelledHeadRunIsSkippedNotExecuted)
{
    EventQueue q;
    std::vector<int> fired;
    const EventId a = q.schedule(1, [&] { fired.push_back(1); });
    q.schedule(1, [&] { fired.push_back(2); });
    EXPECT_TRUE(q.cancel(a));
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_TRUE(q.runOne());
    ASSERT_EQ(fired, std::vector<int>{2});
    EXPECT_FALSE(q.runOne());
    // Double-cancel and cancel-after-fire are both no-ops.
    EXPECT_FALSE(q.cancel(a));
    EXPECT_FALSE(q.cancel(kNoEvent));
}

TEST(EventQueueFuzz, ScheduleFromCallbackAtSameInstant)
{
    // An event scheduling another event at now() must run it after
    // every already-queued event at that instant (sequence order).
    EventQueue q;
    std::vector<int> fired;
    q.schedule(3, [&] {
        fired.push_back(1);
        q.schedule(3, [&] { fired.push_back(3); });
    });
    q.schedule(3, [&] { fired.push_back(2); });
    q.runAll();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueFuzz, CancelStormThenDrain)
{
    // Schedule a burst, cancel most of it, and make sure the cancelled
    // events neither fire nor linger in the counts.
    Rng rng(13);
    EventQueue q;
    std::vector<EventId> ids;
    std::vector<int> fired;
    for (int i = 0; i < 500; ++i)
        ids.push_back(q.schedule(
            static_cast<Time>(i % 7), [i, &fired] { fired.push_back(i); }));
    std::size_t live = ids.size();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (rng.chance(0.9)) {
            EXPECT_TRUE(q.cancel(ids[i]));
            --live;
            // Cancelling twice reports false and changes nothing.
            EXPECT_FALSE(q.cancel(ids[i]));
            EXPECT_EQ(q.pending(), live);
        }
    }
    q.runAll();
    EXPECT_EQ(fired.size(), live);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueFuzz, HeavyCancelChurnKeepsOrderAndLeavesNoStaleEntries)
{
    // The simulator's pattern: most events are far-future deadlines
    // (slice ends, timeouts) that get cancelled and re-armed long
    // before they fire, while near-term events keep the clock moving.
    Rng rng(2024);
    for (int trial = 0; trial < 10; ++trial) {
        EventQueue q;
        std::vector<ModelEvent> model;
        std::vector<int> fired;
        std::uint64_t order = 0;
        int nextPayload = 0;

        const auto schedule = [&](Time when) {
            const int payload = nextPayload++;
            const EventId id = q.schedule(
                when, [payload, &fired] { fired.push_back(payload); },
                "churn");
            model.push_back({when, order++, id, payload});
        };

        for (int op = 0; op < 2000; ++op) {
            const std::size_t pick = rng.uniformInt(10);
            if (pick < 3) { // far deadline
                schedule(q.now() + 1000 +
                         static_cast<Time>(rng.uniformInt(5000)));
            } else if (pick < 5) { // near-term, often a tie
                schedule(q.now() + static_cast<Time>(rng.uniformInt(4)));
            } else if (pick < 8) { // cancel anywhere in the heap
                if (!model.empty()) {
                    const std::size_t i = rng.uniformInt(model.size());
                    EXPECT_TRUE(q.cancel(model[i].id));
                    model.erase(model.begin() +
                                static_cast<std::ptrdiff_t>(i));
                }
            } else { // fire the head
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
                    EXPECT_EQ(q.now(), head->when);
                    model.erase(head);
                }
            }

            std::vector<EventId> live;
            Time next = kTimeNever;
            for (const ModelEvent &e : model) {
                live.push_back(e.id);
                next = std::min(next, e.when);
            }
            EXPECT_EQ(q.nextEventTime(), next);
            expectHeapHoldsExactly(q, live);
        }

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
        expectHeapHoldsExactly(q, {});
    }
}

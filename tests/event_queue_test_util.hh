#ifndef PISO_TESTS_EVENT_QUEUE_TEST_UTIL_HH
#define PISO_TESTS_EVENT_QUEUE_TEST_UTIL_HH

/**
 * @file
 * Shared check for the EventQueue tests: the heap holds only live
 * events.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/sim/event_queue.hh"

namespace piso::test {

/**
 * The queue's heap holds exactly the events in @p live. forEachPending
 * walks the raw heap, so a cancelled or fired entry left behind would
 * show up as an extra or duplicate id.
 */
inline void
expectHeapHoldsExactly(const EventQueue &q, std::vector<EventId> live)
{
    std::vector<EventId> seen;
    q.forEachPending(
        [&](EventId id, Time, std::uint64_t, const char *) {
            seen.push_back(id);
        });
    EXPECT_EQ(seen.size(), q.pending());
    std::sort(seen.begin(), seen.end());
    std::sort(live.begin(), live.end());
    EXPECT_EQ(seen, live);
}

} // namespace piso::test

#endif // PISO_TESTS_EVENT_QUEUE_TEST_UTIL_HH

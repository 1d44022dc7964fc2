#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "util/check.hpp"

namespace sigvp {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30.0, [&] { order.push_back(3); });
  q.schedule_at(10.0, [&] { order.push_back(1); });
  q.schedule_at(20.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 30.0);
}

TEST(EventQueue, SameTimestampFifoTieBreak) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] {
    ++fired;
    q.schedule_after(1.0, [&] { ++fired; });
  });
  q.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, RejectsSchedulingInThePast) {
  EventQueue q;
  q.schedule_at(10.0, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(5.0, [] {}), ContractError);
  EXPECT_THROW(q.schedule_after(-1.0, [] {}), ContractError);
}

TEST(EventQueue, RunUntilAdvancesClockEvenWhenIdle) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10.0, [&] { ++fired; });
  q.schedule_at(50.0, [&] { ++fired; });
  q.run_until(20.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 20.0);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.step());
  EXPECT_EQ(q.events_processed(), 0u);
}

TEST(EventQueue, NextEventTimePeeksWithoutPopping) {
  EventQueue q;
  q.schedule_at(30.0, [] {});
  q.schedule_at(10.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_event_time(), 10.0);
  EXPECT_EQ(q.pending(), 2u);  // peek must not consume
  q.step();
  EXPECT_DOUBLE_EQ(q.next_event_time(), 30.0);
  q.run();
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.next_event_time(), ContractError);
}

TEST(EventQueue, ReservePreservesOrderAndCounters) {
  // reserve() is an allocation hint only: bulk insertion after it must pop
  // in exactly the same (time, seq) order, and resident_bytes must reflect
  // the reserved capacity.
  EventQueue q;
  q.reserve(1000);
  EXPECT_GE(q.resident_bytes(), sizeof(EventQueue) + 1000 * 3 * sizeof(void*));
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.schedule_at(static_cast<SimTime>(100 - i), [&order, i] { order.push_back(i); });
  }
  q.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], 99 - i);
  EXPECT_EQ(q.events_processed(), 100u);
}

TEST(EventQueue, InterleavedTimesKeepPerTimestampFifo) {
  // Mixed timestamps with heavy ties: within each timestamp, insertion
  // order wins — the total (time, seq) order the fleet executor's canonical
  // message sort relies on.
  EventQueue q;
  std::vector<std::pair<int, int>> order;  // (time, insert index at that time)
  for (int round = 0; round < 5; ++round) {
    for (int t = 1; t <= 3; ++t) {
      q.schedule_at(static_cast<SimTime>(t), [&order, t, round] {
        order.emplace_back(t, round);
      });
    }
  }
  q.run();
  ASSERT_EQ(order.size(), 15u);
  std::size_t idx = 0;
  for (int t = 1; t <= 3; ++t) {
    for (int round = 0; round < 5; ++round) {
      EXPECT_EQ(order[idx], std::make_pair(t, round)) << "position " << idx;
      ++idx;
    }
  }
}

TEST(Engine, JobsSerializeFifo) {
  EventQueue q;
  Engine e(q, "test");
  std::vector<SimTime> ends;
  e.submit(10.0, [&](SimTime t) { ends.push_back(t); });
  e.submit(5.0, [&](SimTime t) { ends.push_back(t); });
  q.run();
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_DOUBLE_EQ(ends[0], 10.0);
  EXPECT_DOUBLE_EQ(ends[1], 15.0);
  EXPECT_DOUBLE_EQ(e.busy_time(), 15.0);
}

TEST(Engine, JobSubmittedLaterStartsAtSubmissionTime) {
  EventQueue q;
  Engine e(q, "test");
  SimTime end = 0;
  q.schedule_at(100.0, [&] { e.submit(5.0, [&](SimTime t) { end = t; }); });
  q.run();
  EXPECT_DOUBLE_EQ(end, 105.0);
}

TEST(Engine, BusyTimeSumsJobDurations) {
  EventQueue q;
  Engine e(q, "test");
  e.submit(25.0, {});
  e.submit(10.0, {});
  q.run();
  EXPECT_DOUBLE_EQ(e.busy_time(), 35.0);
  EXPECT_EQ(e.jobs_submitted(), 2u);
}

TEST(Engine, RejectsNegativeDuration) {
  EventQueue q;
  Engine e(q, "test");
  EXPECT_THROW(e.submit(-1.0, {}), ContractError);
}

TEST(Engine, ZeroDurationJobCompletesAtNow) {
  EventQueue q;
  Engine e(q, "test");
  SimTime end = -1;
  e.submit(0.0, [&](SimTime t) { end = t; });
  q.run();
  EXPECT_DOUBLE_EQ(end, 0.0);
  EXPECT_EQ(e.jobs_submitted(), 1u);
}

}  // namespace
}  // namespace sigvp

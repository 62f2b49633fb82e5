#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/rng.h"

namespace sstsp::sim {
namespace {

using namespace sstsp::sim::literals;

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(30_us, [&] { fired.push_back(3); });
  q.schedule(10_us, [&] { fired.push_back(1); });
  q.schedule(20_us, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAmongSimultaneous) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5_us, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(1_us, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelReturnsFalseForUnknownOrFired) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(0));
  EXPECT_FALSE(q.cancel(12345));
  const EventId id = q.schedule(1_us, [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id));  // already fired
}

TEST(EventQueue, DoubleCancelRejected) {
  EventQueue q;
  const EventId id = q.schedule(1_us, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, NextTimeSkipsCancelledHead) {
  EventQueue q;
  const EventId early = q.schedule(1_us, [] {});
  q.schedule(9_us, [] {});
  EXPECT_EQ(q.next_time(), 1_us);
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 9_us);
}

TEST(EventQueue, NextTimeEmpty) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), SimTime::never());
  const EventId id = q.schedule(1_us, [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), SimTime::never());
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(1_us, [] {});
  q.schedule(2_us, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopSkipsCancelledEntries) {
  EventQueue q;
  std::vector<int> fired;
  const EventId a = q.schedule(1_us, [&] { fired.push_back(1); });
  q.schedule(2_us, [&] { fired.push_back(2); });
  const EventId c = q.schedule(3_us, [&] { fired.push_back(3); });
  q.schedule(4_us, [&] { fired.push_back(4); });
  q.cancel(a);
  q.cancel(c);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{2, 4}));
}

TEST(EventQueue, MoveOnlyCaptureFires) {
  EventQueue q;
  int seen = 0;
  auto owned = std::make_unique<int>(7);
  q.schedule(1_us, [&seen, p = std::move(owned)] { seen = *p; });
  q.pop().fn();
  EXPECT_EQ(seen, 7);
}

TEST(EventQueue, ClosureOfExactlyInlineCapacityFits) {
  EventQueue q;
  std::array<char, InlineCallback::kCapacity - sizeof(int*)> pad{};
  pad.back() = 3;
  int seen = 0;
  int* out = &seen;
  q.schedule(1_us, [pad, out] { *out = pad.back(); });
  q.pop().fn();
  EXPECT_EQ(seen, 3);
}

TEST(EventQueue, CancelledCaptureReleasedWhenTombstoneDiscarded) {
  EventQueue q;
  auto token = std::make_shared<int>(1);
  const std::weak_ptr<int> watch = token;
  const EventId id = q.schedule(1_us, [token] { (void)token; });
  q.schedule(2_us, [] {});
  token.reset();
  ASSERT_TRUE(q.cancel(id));
  EXPECT_FALSE(watch.expired());  // tombstoned, still in the heap
  EXPECT_EQ(q.next_time(), 2_us);  // discards the tombstoned head
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueue, FiredCaptureReleasedAfterDispatch) {
  EventQueue q;
  auto token = std::make_shared<int>(1);
  const std::weak_ptr<int> watch = token;
  q.schedule(1_us, [token] { (void)token; });
  token.reset();
  {
    auto fired = q.pop();
    EXPECT_FALSE(watch.expired());  // the popped callback owns it now
    fired.fn();
  }
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueue, FifoAmongSimultaneousAcrossSlotReuse) {
  EventQueue q;
  std::vector<int> fired;
  // Fill and drain so the free list holds slots in scrambled order, then
  // schedule simultaneous events onto reused slots: order must follow
  // scheduling order, not slot index.
  std::vector<EventId> ids;
  for (int i = 0; i < 16; ++i) ids.push_back(q.schedule(1_us, [] {}));
  for (int i = 0; i < 16; i += 3) q.cancel(ids[static_cast<size_t>(i)]);
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 24; ++i) {
    q.schedule(5_us, [&fired, i] { fired.push_back(i); });
    if (i % 5 == 0) q.schedule(4_us, [] {});  // interleave earlier events
  }
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(fired.size(), 24u);
  for (int i = 0; i < 24; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

// Randomized stress against a reference model: a plain vector of live
// (time, seq) pairs where pop's expected victim is the (time, seq)-minimum.
// Exercises slot reuse, generation checks, tombstone compaction and
// next_time() under heavy interleaved schedule/cancel/pop traffic.
TEST(EventQueue, RandomizedModelCheck) {
  EventQueue q;
  struct Ref {
    std::int64_t time_ps;
    std::uint64_t seq;
    EventId id;
  };
  std::vector<Ref> live;
  std::vector<std::uint64_t> fired;
  std::uint64_t mix = 2006;
  std::uint64_t next_seq = 0;

  const auto reference_min = [&live] {
    return std::min_element(live.begin(), live.end(),
                            [](const Ref& a, const Ref& b) {
                              return a.time_ps != b.time_ps
                                         ? a.time_ps < b.time_ps
                                         : a.seq < b.seq;
                            });
  };

  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = splitmix64(mix) % 100;
    if (op < 55 || live.empty()) {
      // Times drawn from a tiny range so FIFO tie-breaking is constantly
      // exercised.
      const auto t = static_cast<std::int64_t>(splitmix64(mix) % 997);
      const std::uint64_t seq = next_seq++;
      const EventId id =
          q.schedule(SimTime::from_ps(t), [&fired, seq] { fired.push_back(seq); });
      live.push_back(Ref{t, seq, id});
    } else if (op < 80) {
      const auto pick = splitmix64(mix) % live.size();
      ASSERT_TRUE(q.cancel(live[pick].id));
      ASSERT_FALSE(q.cancel(live[pick].id));  // tombstoned, not reusable
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const auto best = reference_min();
      ASSERT_EQ(q.next_time(), SimTime::from_ps(best->time_ps));
      auto f = q.pop();
      ASSERT_EQ(f.time, SimTime::from_ps(best->time_ps));
      f.fn();
      ASSERT_EQ(fired.back(), best->seq);  // exact event, not just same time
      ASSERT_FALSE(q.cancel(best->id));    // fired ids never cancel
      live.erase(best);
    }
    ASSERT_EQ(q.size(), live.size());
    ASSERT_EQ(q.empty(), live.empty());
  }

  // Drain; the remainder must come out in exact (time, seq) order.
  while (!live.empty()) {
    const auto best = reference_min();
    auto f = q.pop();
    ASSERT_EQ(f.time, SimTime::from_ps(best->time_ps));
    f.fn();
    ASSERT_EQ(fired.back(), best->seq);
    live.erase(best);
  }
  ASSERT_TRUE(q.empty());
  ASSERT_EQ(q.next_time(), SimTime::never());
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  std::uint64_t mix = 42;
  std::vector<std::int64_t> times;
  for (int i = 0; i < 5000; ++i) {
    const auto t = static_cast<std::int64_t>(splitmix64(mix) % 1'000'000);
    times.push_back(t);
    q.schedule(SimTime::from_ps(t), [] {});
  }
  SimTime prev = SimTime::zero();
  while (!q.empty()) {
    auto f = q.pop();
    EXPECT_GE(f.time, prev);
    prev = f.time;
  }
}

}  // namespace
}  // namespace sstsp::sim

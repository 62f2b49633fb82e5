#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
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

// Ticks that log a label when they fire: one owner per tick, as a station
// keeps what its one scheduled tick stands for.
struct TickLog {
  struct Owner final : TickOwner {
    TickLog* log{nullptr};
    std::uint64_t label{0};
    void on_tick() override { log->seen.push_back(label); }
  };
  std::vector<std::uint64_t> seen;
  std::deque<Owner> owners;  // stable addresses

  EventId tick(EventQueue& q, SimTime at, std::uint64_t label) {
    Owner& owner = owners.emplace_back();
    owner.log = this;
    owner.label = label;
    return q.schedule_tick(at, owner);
  }
};

TEST(EventQueue, TicksFireInScheduleOrderAmongPlainEvents) {
  EventQueue q;
  TickLog log;
  log.tick(q, 5_us, 1);
  q.schedule(5_us, [&log] { log.seen.push_back(100); });
  log.tick(q, 2_us, 2);
  log.tick(q, 5_us, 3);
  q.schedule(1_us, [&log] { log.seen.push_back(101); });
  while (!q.empty()) q.pop()();
  EXPECT_EQ(log.seen, (std::vector<std::uint64_t>{101, 2, 1, 100, 3}));
}

TEST(EventQueue, StaleTickIdAfterFiring) {
  EventQueue q;
  TickLog log;
  const EventId first = log.tick(q, 1_us, 7);
  auto fired = q.pop();
  EXPECT_EQ(fired.id, first);
  EXPECT_EQ(fired.time, 1_us);
  fired();
  EXPECT_EQ(log.seen, (std::vector<std::uint64_t>{7}));
  EXPECT_FALSE(q.cancel(first));  // already fired
  // The next tick reuses the record; the old id must not reach it.
  const EventId second = log.tick(q, 2_us, 8);
  EXPECT_NE(second, first);
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(second));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TickCancelReturnsFalseTwice) {
  EventQueue q;
  TickLog log;
  // A pending tick: not yet sorted into a run.
  const EventId pending = log.tick(q, 3_us, 1);
  EXPECT_TRUE(q.cancel(pending));
  EXPECT_FALSE(q.cancel(pending));
  // Armed ticks: next_time() sorts the list into a run.
  const EventId a = log.tick(q, 1_us, 2);
  const EventId b = log.tick(q, 2_us, 3);
  EXPECT_EQ(q.next_time(), 1_us);
  EXPECT_TRUE(q.cancel(b));
  EXPECT_FALSE(q.cancel(b));
  EXPECT_TRUE(q.cancel(a));  // the run's head
  EXPECT_FALSE(q.cancel(a));
  EXPECT_EQ(q.next_time(), SimTime::never());
  EXPECT_FALSE(q.pop_due(SimTime::never()));
  EXPECT_TRUE(log.seen.empty());
  // A plain event's id and a tick's with the same index never mix up.
  const EventId plain = q.schedule(1_us, [] {});
  const EventId tick = log.tick(q, 1_us, 4);
  EXPECT_NE(plain, tick);
  EXPECT_TRUE(q.cancel(plain));
  EXPECT_EQ(q.size(), 1u);
  q.pop()();
  EXPECT_EQ(log.seen, (std::vector<std::uint64_t>{4}));
}

TEST(EventQueue, NextTimeWithOnlyPendingTicks) {
  EventQueue q;
  TickLog log;
  const EventId early = log.tick(q, 3_us, 1);
  log.tick(q, 5_us, 2);
  const EventId earliest = log.tick(q, 2_us, 3);
  EXPECT_TRUE(q.cancel(earliest));  // the list's minimum, before arming
  EXPECT_EQ(q.next_time(), 3_us);
  EXPECT_TRUE(q.cancel(early));  // now the run's head
  EXPECT_EQ(q.next_time(), 5_us);
  q.pop()();
  EXPECT_EQ(log.seen, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(q.next_time(), SimTime::never());
}

TEST(EventQueue, SizeCountsTicksAcrossArmAndCancel) {
  EventQueue q;
  TickLog log;
  // Tick i fires at (37 i mod 100) us: a permutation of 0..99 us.
  std::vector<EventId> ids;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto us = static_cast<std::int64_t>((i * 37) % 100);
    ids.push_back(log.tick(q, SimTime::from_us(us), i));
  }
  q.schedule(50_us, [&log] { log.seen.push_back(999); });
  EXPECT_EQ(q.size(), 101u);
  EXPECT_TRUE(q.cancel(ids[3]));  // pending
  EXPECT_EQ(q.size(), 100u);
  EXPECT_EQ(q.next_time(), 0_us);  // arms the 99 live ticks as one run
  EXPECT_EQ(q.size(), 100u);
  EXPECT_TRUE(q.cancel(ids[0]));   // the run's head (0 us)
  EXPECT_TRUE(q.cancel(ids[50]));  // mid-run (50 us)
  EXPECT_EQ(q.size(), 98u);
  // A new tick waits in a fresh pending list beside the armed run.
  log.tick(q, 50_us, 1000);
  EXPECT_EQ(q.size(), 99u);
  std::size_t pops = 0;
  while (!q.empty()) {
    q.pop()();
    ++pops;
    EXPECT_EQ(q.size(), 99u - pops);
  }
  EXPECT_EQ(pops, 99u);
  // Around 50 us: tick 77 (49 us), the plain event and the new tick (both
  // 50 us, in scheduling order), tick 23 (51 us).
  const auto it = std::find(log.seen.begin(), log.seen.end(), 999u);
  ASSERT_NE(it, log.seen.end());
  ASSERT_GE(it - log.seen.begin(), 1);
  ASSERT_GE(log.seen.end() - it, 3);
  EXPECT_EQ(std::vector<std::uint64_t>(it - 1, it + 3),
            (std::vector<std::uint64_t>{77, 999, 1000, 23}));
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

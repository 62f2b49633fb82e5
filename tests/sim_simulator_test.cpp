#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <memory>
#include <random>
#include <utility>
#include <vector>

namespace sstsp::sim {
namespace {

using namespace sstsp::sim::literals;

TEST(Simulator, RunsEventsAndAdvancesClock) {
  Simulator sim;
  std::vector<std::int64_t> at_us;
  sim.at(10_us, [&] { at_us.push_back(sim.now().to_us_floor()); });
  sim.at(5_us, [&] { at_us.push_back(sim.now().to_us_floor()); });
  sim.run_until(1_ms);
  EXPECT_EQ(at_us, (std::vector<std::int64_t>{5, 10}));
  EXPECT_EQ(sim.now(), 1_ms);  // clock lands on the horizon
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(Simulator, HorizonIsInclusive) {
  Simulator sim;
  bool fired = false;
  sim.at(100_us, [&] { fired = true; });
  sim.run_until(100_us);
  EXPECT_TRUE(fired);
}

TEST(Simulator, EventsBeyondHorizonStayPending) {
  Simulator sim;
  bool fired = false;
  sim.at(200_us, [&] { fired = true; });
  sim.run_until(100_us);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run_until(300_us);
  EXPECT_TRUE(fired);
}

TEST(Simulator, SchedulingInPastClampsToNow) {
  Simulator sim;
  sim.at(50_us, [&] {
    // From inside an event at t=50, schedule "at 10": must fire, at >= 50.
    sim.at(10_us, [&] { EXPECT_EQ(sim.now(), 50_us); });
  });
  sim.run_until(1_ms);
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(Simulator, AfterIsRelative) {
  Simulator sim;
  std::int64_t fired_at = -1;
  sim.at(30_us, [&] {
    sim.after(12_us, [&] { fired_at = sim.now().to_us_floor(); });
  });
  sim.run_until(1_ms);
  EXPECT_EQ(fired_at, 42);
}

TEST(Simulator, CancelWorksThroughSimulator) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.at(10_us, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run_until(1_ms);
  EXPECT_FALSE(fired);
}

TEST(Simulator, StepProcessesOneEvent) {
  Simulator sim;
  int count = 0;
  sim.at(1_us, [&] { ++count; });
  sim.at(2_us, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsCanChainIndefinitelyUntilHorizon) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    sim.after(100_us, chain);
  };
  sim.at(SimTime::zero(), chain);
  sim.run_until(10_ms);
  EXPECT_EQ(fired, 101);  // t = 0, 100us, ..., 10ms inclusive
}

TEST(Simulator, SubstreamsFromSeed) {
  Simulator a(5);
  Simulator b(5);
  Rng ra = a.substream("x", 1);
  Rng rb = b.substream("x", 1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(ra(), rb());
}

// Randomized model check of delivery batches: a world that schedules its
// fan-outs with Simulator::schedule_batch must dispatch exactly like the same
// world scheduling one Simulator::at per entry.  Both worlds run one script:
// events at a handful of instants (so ties are common, within a batch and
// against plain events), entries in the past (clamped to now) and seconds
// ahead (more radix passes), cancellations, handlers that schedule at now or
// start a new batch, and run_until horizons that fall inside a batch.
class BatchWorld {
 public:
  BatchWorld(bool batched, std::uint64_t seed)
      : batched_(batched), rng_(seed) {}

  Simulator sim;
  /// Dispatched labels with their instants, and cancel() outcomes.
  std::vector<std::pair<std::int64_t, std::int64_t>> log;

  /// Schedules a random mix of plain events and batches.
  void act() {
    const int actions = static_cast<int>(rng_() % 3);
    for (int a = 0; a < actions && labels_ < kBudget; ++a) {
      switch (rng_() % 4) {
        case 0:
          plain();
          break;
        case 1:
          batch(1 + rng_() % 64);
          break;
        case 2:
          if (!handles_.empty()) {
            const std::size_t h = rng_() % handles_.size();
            log.emplace_back(-1, sim.cancel(handles_[h]) ? 1 : 0);
          }
          break;
        default:
          break;
      }
    }
  }

  void seed_events() {
    for (int i = 0; i < 4; ++i) plain();
    for (int i = 0; i < 3; ++i) batch(1 + rng_() % 64);
  }

 private:
  static constexpr std::int64_t kBudget = 4000;

  class Fan final : public DeliveryBatch {
   public:
    explicit Fan(BatchWorld& world) : DeliveryBatch(0), world_(world) {}

   private:
    void deliver(const Entry& e) override { world_.fire(e.receiver); }
    BatchWorld& world_;
  };

  SimTime pick_time() {
    // Offsets from now: repeats make ties, -3 us is in the past, 1.5 s
    // sorts on six bytes.
    static constexpr std::int64_t kOffsetsPs[] = {
        0, 0, 1'000'000, 1'000'000, 2'000'000, 5'000'000, 5'000'000,
        -3'000'000, 1'500'000'000'000};
    const std::int64_t offset =
        kOffsetsPs[rng_() % std::size(kOffsetsPs)];
    return sim.now() + SimTime::from_ps(offset);
  }

  void plain() {
    const auto label = static_cast<std::uint32_t>(labels_++);
    handles_.push_back(sim.at(pick_time(), [this, label] { fire(label); }));
  }

  void batch(std::size_t n) {
    auto fan = std::make_unique<Fan>(*this);
    for (std::size_t i = 0; i < n; ++i) {
      const auto label = static_cast<std::uint32_t>(labels_++);
      const SimTime at = pick_time();
      if (batched_) {
        fan->add(at, label);
      } else {
        sim.at(at, [this, label] { fire(label); });
      }
    }
    if (batched_) sim.schedule_batch(std::move(fan));
  }

  void fire(std::uint32_t label) {
    log.emplace_back(label, sim.now().ps);
    act();
  }

  bool batched_;
  std::mt19937_64 rng_;
  std::int64_t labels_{0};
  std::vector<EventId> handles_;
};

TEST(Simulator, DeliveryBatchesDispatchLikeOneEventPerEntry) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    BatchWorld batched(true, seed);
    BatchWorld single(false, seed);
    batched.seed_events();
    single.seed_events();
    std::mt19937_64 ops(seed * 7919);
    for (int op = 0; op < 20000; ++op) {
      bool fired_b = false;
      bool fired_s = false;
      if (ops() % 4 == 0) {
        // A horizon a few microseconds ahead: often inside a batch.
        const SimTime horizon =
            batched.sim.now() + SimTime::from_ps(
                                    static_cast<std::int64_t>(ops() % 6) *
                                    1'000'000);
        batched.sim.run_until(horizon);
        single.sim.run_until(horizon);
      } else {
        fired_b = batched.sim.step();
        fired_s = single.sim.step();
      }
      ASSERT_EQ(fired_b, fired_s) << "seed " << seed << " op " << op;
      ASSERT_EQ(batched.log, single.log) << "seed " << seed << " op " << op;
      ASSERT_EQ(batched.sim.now(), single.sim.now());
      ASSERT_EQ(batched.sim.events_processed(),
                single.sim.events_processed());
      ASSERT_EQ(batched.sim.events_pending(), single.sim.events_pending());
      ASSERT_EQ(batched.sim.next_event_time(), single.sim.next_event_time());
      if (single.sim.events_pending() == 0) break;
    }
    EXPECT_EQ(batched.sim.events_pending(), 0u) << "seed " << seed;
    EXPECT_GT(batched.log.size(), 100u) << "seed " << seed;
  }
}

// Randomized model check of tick runs: a world whose station timers go
// through Simulator::tick_at must dispatch exactly like the same world
// scheduling one Simulator::at per timer.  Sixteen owners each keep a
// periodic timer about a beacon period (100 ms) ahead with microseconds of
// jitter, the way stations do, so runs arm many ticks at once.  The script
// also re-arms timers (cancelling the pending or armed one they replace),
// cancels random handles, schedules ticks into the past and at the firing
// instant itself (from inside a tick, too), and mixes in plain events and
// delivery batches whose instants tie with the ticks'.
class TickWorld {
 public:
  TickWorld(bool ticked, std::uint64_t seed) : ticked_(ticked), rng_(seed) {
    for (std::size_t o = 0; o < kOwners; ++o) {
      owners_[o].world = this;
      owners_[o].index = o;
    }
  }

  Simulator sim;
  /// Dispatched labels with their instants, and cancel() outcomes.
  std::vector<std::pair<std::int64_t, std::int64_t>> log;

  void seed_events() {
    for (std::size_t o = 0; o < kOwners; ++o) {
      rearm(o, SimTime::from_ps(static_cast<std::int64_t>(rng_() % 16) *
                                1'000'000));
    }
    for (int i = 0; i < 4; ++i) plain();
    batch(1 + rng_() % 64);
  }

  /// Schedules a random mix of timers, plain events and batches.
  void act() {
    const int actions = static_cast<int>(rng_() % 3);
    for (int a = 0; a < actions && labels_ < kBudget; ++a) {
      switch (rng_() % 6) {
        case 0:
          plain();
          break;
        case 1:
          batch(1 + rng_() % 16);
          break;
        case 2:
          if (!handles_.empty()) {
            const std::size_t h = rng_() % handles_.size();
            log.emplace_back(-1, sim.cancel(handles_[h]) ? 1 : 0);
          }
          break;
        case 3:
          one_shot();
          break;
        case 4:
          rearm(rng_() % kOwners, pick_time());
          break;
        default:
          break;
      }
    }
  }

 private:
  static constexpr std::size_t kOwners = 16;
  static constexpr std::int64_t kBudget = 4000;
  static constexpr std::int64_t kPeriodPs = 100'000'000'000;

  /// A station: one periodic timer at a time, whose label it keeps.
  struct Owner final : TickOwner {
    TickWorld* world{nullptr};
    std::size_t index{0};
    EventId periodic{0};
    std::uint32_t label{0};
    void on_tick() override { world->on_periodic(index); }
  };

  /// A timer that does not re-arm, with an owner of its own.
  struct OneShot final : TickOwner {
    TickWorld* world{nullptr};
    std::uint32_t label{0};
    void on_tick() override { world->fire(label); }
  };

  class Fan final : public DeliveryBatch {
   public:
    explicit Fan(TickWorld& world) : DeliveryBatch(0), world_(world) {}

   private:
    void deliver(const Entry& e) override { world_.fire(e.receiver); }
    TickWorld& world_;
  };

  SimTime pick_time() {
    // Offsets from now: repeats make ties, -3 us is in the past, 0 re-arms
    // at the firing instant, a period lands among the periodic timers.
    static constexpr std::int64_t kOffsetsPs[] = {
        0, 0, 1'000'000, 2'000'000, 5'000'000, -3'000'000, kPeriodPs};
    return sim.now() +
           SimTime::from_ps(kOffsetsPs[rng_() % std::size(kOffsetsPs)]);
  }

  /// Schedules `owner.on_tick()` as a tick or as one at() closure.
  EventId timer(SimTime at, TickOwner& owner) {
    if (ticked_) return sim.tick_at(at, owner);
    return sim.at(at, [&owner] { owner.on_tick(); });
  }

  /// Replaces owner o's periodic timer, as a station does after its clock
  /// moves.
  void rearm(std::size_t o, SimTime at) {
    Owner& owner = owners_[o];
    if (owner.periodic != 0) {
      log.emplace_back(-2, sim.cancel(owner.periodic) ? 1 : 0);
    }
    owner.label = static_cast<std::uint32_t>(labels_++);
    owner.periodic = timer(at, owner);
    handles_.push_back(owner.periodic);
  }

  void one_shot() {
    OneShot& shot = one_shots_.emplace_back();
    shot.world = this;
    shot.label = static_cast<std::uint32_t>(labels_++);
    handles_.push_back(timer(pick_time(), shot));
  }

  void on_periodic(std::size_t o) {
    const std::uint32_t label = owners_[o].label;
    owners_[o].periodic = 0;
    if (labels_ < kBudget) {
      const auto jitter = static_cast<std::int64_t>(rng_() % 8) * 1'000'000;
      rearm(o, sim.now() + SimTime::from_ps(kPeriodPs + jitter));
    }
    fire(label);
  }

  void plain() {
    const auto label = static_cast<std::uint32_t>(labels_++);
    handles_.push_back(sim.at(pick_time(), [this, label] { fire(label); }));
  }

  void batch(std::size_t n) {
    auto fan = std::make_unique<Fan>(*this);
    for (std::size_t i = 0; i < n; ++i) {
      fan->add(pick_time(), static_cast<std::uint32_t>(labels_++));
    }
    sim.schedule_batch(std::move(fan));
  }

  void fire(std::uint32_t label) {
    log.emplace_back(label, sim.now().ps);
    act();
  }

  bool ticked_;
  std::mt19937_64 rng_;
  std::int64_t labels_{0};
  std::array<Owner, kOwners> owners_;
  std::deque<OneShot> one_shots_;  // stable addresses
  std::vector<EventId> handles_;
};

TEST(Simulator, TickRunsDispatchLikeOneEventPerTimer) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    TickWorld ticked(true, seed);
    TickWorld single(false, seed);
    ticked.seed_events();
    single.seed_events();
    std::mt19937_64 ops(seed * 7919);
    for (int op = 0; op < 40000; ++op) {
      bool fired_t = false;
      bool fired_s = false;
      if (ops() % 4 == 0) {
        // A horizon a few microseconds ahead: often inside a run.
        const SimTime horizon =
            ticked.sim.now() + SimTime::from_ps(
                                   static_cast<std::int64_t>(ops() % 6) *
                                   1'000'000);
        ticked.sim.run_until(horizon);
        single.sim.run_until(horizon);
      } else {
        fired_t = ticked.sim.step();
        fired_s = single.sim.step();
      }
      ASSERT_EQ(fired_t, fired_s) << "seed " << seed << " op " << op;
      ASSERT_EQ(ticked.log, single.log) << "seed " << seed << " op " << op;
      ASSERT_EQ(ticked.sim.now(), single.sim.now());
      ASSERT_EQ(ticked.sim.events_processed(),
                single.sim.events_processed());
      ASSERT_EQ(ticked.sim.events_pending(), single.sim.events_pending());
      ASSERT_EQ(ticked.sim.next_event_time(), single.sim.next_event_time());
      if (single.sim.events_pending() == 0) break;
    }
    EXPECT_EQ(ticked.sim.events_pending(), 0u) << "seed " << seed;
    EXPECT_GT(ticked.log.size(), 1000u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace sstsp::sim

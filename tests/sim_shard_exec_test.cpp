// sim::ShardExecutor on its own: a scripted workload of self-rescheduling
// shard events, cross-shard messages routed through exchange/settle and
// control-timeline events, run at 5 shards on 1, 2 and 3 threads (so the
// threads own uneven shard sets).
#include "sim/shard_exec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sstsp::sim {
namespace {

using namespace sstsp::sim::literals;
using namespace std::chrono_literals;

constexpr int kShards = 5;
constexpr SimTime kLookahead = 7_us;
constexpr SimTime kHorizon = 2_ms;
const std::array<SimTime, 4> kControlTimes = {100_us, 333_us + SimTime{1},
                                              1_ms, kHorizon};

enum class Kind : int { kTick, kReceive, kHorizon, kPastHorizon };

struct Dispatch {
  std::int64_t ps;
  Kind kind;
  int window;
  bool operator==(const Dispatch&) const = default;
};

struct Message {
  SimTime sent;
  int to;
};

/// Where a scripted fault is thrown; kNone runs clean.
enum class Fault { kNone, kShardEvent, kControlEvent };

struct Script {
  ShardExecutor exec;
  int window{0};  // written by commit, read by shard events
  std::vector<SimTime> ends;
  std::vector<SimTime> control_fired;
  int control_clock_mismatches{0};
  int late_messages{0};
  std::array<std::vector<Dispatch>, kShards> log;
  std::array<std::vector<Message>, kShards> outbox;
  std::array<std::vector<Message>, kShards> inbox;
  std::array<std::uint64_t, kShards> lcg{};

  explicit Script(int threads)
      : exec(ShardExecutor::Options{kShards, threads, kLookahead}, 7) {}

  void record(int s, Kind kind) {
    log[static_cast<std::size_t>(s)].push_back(
        {exec.shard(s).now().ps, kind, window});
  }

  /// Gap to shard s's next tick, 1..20 µs plus a sub-µs jitter.
  SimTime next_gap(int s) {
    std::uint64_t& x = lcg[static_cast<std::size_t>(s)];
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return SimTime::from_us(1 + static_cast<std::int64_t>((x >> 33) % 20)) +
           SimTime{static_cast<std::int64_t>((x >> 13) % 1000)};
  }

  void tick(int s) {
    record(s, Kind::kTick);
    Simulator& sim = exec.shard(s);
    if (lcg[static_cast<std::size_t>(s)] % 3 == 0) {
      outbox[static_cast<std::size_t>(s)].push_back(
          {sim.now(), (s + 1) % kShards});
    }
    const SimTime next = sim.now() + next_gap(s);
    if (next <= kHorizon) sim.at(next, [this, s] { tick(s); });
  }
};

Script& run_script(Script& sc, Fault fault = Fault::kNone) {
  for (int s = 0; s < kShards; ++s) {
    sc.lcg[static_cast<std::size_t>(s)] = 0x9E3779B97F4A7C15ULL * (s + 1);
    sc.exec.shard(s).at(SimTime::from_us(s), [&sc, s] { sc.tick(s); });
  }
  sc.exec.shard(3).at(kHorizon, [&sc] { sc.record(3, Kind::kHorizon); });
  sc.exec.shard(2).at(kHorizon + SimTime{1},
                      [&sc] { sc.record(2, Kind::kPastHorizon); });
  if (fault == Fault::kShardEvent) {
    // Shard 1 is owned by thread 1, never the calling thread, when
    // threads > 1; the calling thread is still inside shard 0's window
    // when it throws.
    sc.exec.shard(0).at(500_us,
                        [] { std::this_thread::sleep_for(5ms); });
    sc.exec.shard(1).at(500_us,
                        [] { throw std::runtime_error("shard 1 fault"); });
  }
  for (const SimTime c : kControlTimes) {
    sc.exec.control().at(c, [&sc, fault] {
      const SimTime now = sc.exec.control().now();
      sc.control_fired.push_back(now);
      for (int s = 0; s < kShards; ++s) {
        if (sc.exec.shard(s).now() != now) ++sc.control_clock_mismatches;
      }
      if (fault == Fault::kControlEvent && now == 1_ms) {
        throw std::runtime_error("control fault");
      }
    });
  }
  sc.exec.run(
      kHorizon,
      [&sc](SimTime end) {
        sc.ends.push_back(end);
        for (auto& out : sc.outbox) {
          for (const Message& m : out) {
            sc.inbox[static_cast<std::size_t>(m.to)].push_back(m);
          }
          out.clear();
        }
      },
      [&sc](int s, SimTime end) {
        auto& in = sc.inbox[static_cast<std::size_t>(s)];
        for (const Message& m : in) {
          // A message sent inside the window arrives a lookahead later,
          // never before the window's end.
          if (m.sent + kLookahead < end) ++sc.late_messages;
          sc.exec.shard(s).at(m.sent + kLookahead,
                              [&sc, s] { sc.record(s, Kind::kReceive); });
        }
        in.clear();
      },
      [&sc](SimTime) { ++sc.window; });
  return sc;
}

TEST(ShardExec, WindowsRespectLookaheadAndControlEdges) {
  for (const int threads : {1, 2, 3}) {
    SCOPED_TRACE(threads);
    Script sc(threads);
    run_script(sc);
    ASSERT_FALSE(sc.ends.empty());
    EXPECT_EQ(sc.exec.windows(), sc.ends.size());
    EXPECT_EQ(sc.late_messages, 0);

    // Earliest dispatched shard event of each window.
    std::vector<SimTime> first(sc.ends.size(), SimTime::never());
    for (const auto& log : sc.log) {
      for (const Dispatch& d : log) {
        const auto w = static_cast<std::size_t>(d.window);
        ASSERT_LT(w, sc.ends.size());
        EXPECT_LT(SimTime{d.ps}, sc.ends[w]);
        if (w > 0) {
          EXPECT_GE(SimTime{d.ps}, sc.ends[w - 1]);
        }
        first[w] = std::min(first[w], SimTime{d.ps});
      }
    }
    for (std::size_t w = 0; w < sc.ends.size(); ++w) {
      if (first[w] < SimTime::never()) {
        EXPECT_LE(sc.ends[w], first[w] + kLookahead) << "window " << w;
      }
      if (w > 0) {
        EXPECT_LT(sc.ends[w - 1], sc.ends[w]);
      }
      // No window passes a control event: each lies on a window edge.
      for (const SimTime c : kControlTimes) {
        const SimTime start = w > 0 ? sc.ends[w - 1] : SimTime::zero();
        EXPECT_FALSE(start < c && c < sc.ends[w]) << "window " << w;
      }
    }
  }
}

TEST(ShardExec, EventsAtTheHorizonFireAndLaterOnesDoNot) {
  for (const int threads : {1, 2, 3}) {
    SCOPED_TRACE(threads);
    Script sc(threads);
    run_script(sc);
    const auto has = [&](int s, Kind kind) {
      const auto& log = sc.log[static_cast<std::size_t>(s)];
      return std::any_of(log.begin(), log.end(),
                         [&](const Dispatch& d) { return d.kind == kind; });
    };
    EXPECT_TRUE(has(3, Kind::kHorizon));
    EXPECT_FALSE(has(2, Kind::kPastHorizon));
    EXPECT_EQ(sc.exec.shard(2).events_pending(), 1u);
    EXPECT_EQ(sc.ends.back(), kHorizon + SimTime{1});
  }
}

TEST(ShardExec, ControlEventsSeeEveryShardClockAtTheWindowEdge) {
  for (const int threads : {1, 2, 3}) {
    SCOPED_TRACE(threads);
    Script sc(threads);
    run_script(sc);
    EXPECT_EQ(sc.control_fired,
              std::vector<SimTime>(kControlTimes.begin(), kControlTimes.end()));
    EXPECT_EQ(sc.control_clock_mismatches, 0);
  }
}

TEST(ShardExec, DispatchLogIsIdenticalForEveryThreadCount) {
  Script one(1);
  run_script(one);
  std::size_t receives = 0;
  for (const auto& log : one.log) {
    receives += static_cast<std::size_t>(
        std::count_if(log.begin(), log.end(), [](const Dispatch& d) {
          return d.kind == Kind::kReceive;
        }));
  }
  ASSERT_GT(receives, 0u);  // the script does route cross-shard messages
  for (const int threads : {2, 3}) {
    SCOPED_TRACE(threads);
    Script sc(threads);
    run_script(sc);
    for (int s = 0; s < kShards; ++s) {
      EXPECT_EQ(sc.log[static_cast<std::size_t>(s)],
                one.log[static_cast<std::size_t>(s)])
          << "shard " << s;
    }
    EXPECT_EQ(sc.ends, one.ends);
    EXPECT_EQ(sc.exec.total_events(), one.exec.total_events());
  }
}

TEST(ShardExec, ShardEventThrowComesOutOfRun) {
  for (const int threads : {1, 2, 3}) {
    SCOPED_TRACE(threads);
    Script sc(threads);
    try {
      run_script(sc, Fault::kShardEvent);
      ADD_FAILURE() << "run() returned normally";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 1 fault");
    }
    // The failing window never reached its exchange.
    EXPECT_LE(sc.ends.back(), 500_us);
  }
}

TEST(ShardExec, ControlEventThrowComesOutOfRun) {
  for (const int threads : {1, 2, 3}) {
    SCOPED_TRACE(threads);
    Script sc(threads);
    try {
      run_script(sc, Fault::kControlEvent);
      ADD_FAILURE() << "run() returned normally";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "control fault");
    }
    EXPECT_EQ(sc.ends.back(), 1_ms);
  }
}

// A shard's barrier wait is its owning thread's: the phase wall minus the
// busy time of every shard that thread runs, not of the shard alone.
TEST(ShardExec, BarrierWaitIsTheOwningThreadsIdleTime) {
  ShardWallStats ws;
  ws.busy_ns = {1, 2, 3, 4};
  ws.phase_wall_ns = 10;
  const auto waits = [&](int threads) {
    ws.threads = threads;
    std::vector<std::uint64_t> out;
    for (std::size_t s = 0; s < ws.busy_ns.size(); ++s) {
      out.push_back(ws.barrier_wait_ns(s));
    }
    return out;
  };
  EXPECT_EQ(waits(1), (std::vector<std::uint64_t>{0, 0, 0, 0}));
  EXPECT_EQ(waits(2), (std::vector<std::uint64_t>{6, 4, 6, 4}));
  EXPECT_EQ(waits(4), (std::vector<std::uint64_t>{9, 8, 7, 6}));

  // The executor records T = min(threads, shards).
  ShardExecutor exec({.shards = 3, .threads = 8, .lookahead = 3_us}, 1);
  exec.set_collect_wall_stats(true);
  EXPECT_EQ(exec.wall_stats().threads, 3);
}

}  // namespace
}  // namespace sstsp::sim

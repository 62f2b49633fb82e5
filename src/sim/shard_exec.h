// Conservative sharded execution of a discrete-event simulation.
//
// A ShardExecutor owns S independent Simulator instances ("shards", all
// seeded identically so substream derivation is shard-invariant) plus one
// control Simulator for the run-global timeline (churn, sampling, reference
// departures).  Time advances in lockstep windows under conservative
// lookahead L:
//
//     E_k = min(t_min + L, next_control, horizon + 1 tick)
//
// where t_min is the globally earliest pending shard event.  A window runs
// dispatch (parallel: every shard event with time < E_k), exchange
// (serial), settle (parallel) and commit (serial), then the control events
// due exactly at E_k with every shard clock advanced to E_k.
// The mac-layer exactness argument for why L = min(cca_time, rx_latency_min)
// makes this windowing *physically exact* — not an approximation — lives in
// DESIGN.md §12; this class only enforces the schedule.
//
// run() starts T = min(threads, shards) threads (the caller plus T-1
// std::jthreads); thread t always owns shards t, t+T, ...  One barrier ends
// each parallel phase, and its last arrival runs the serial step.  Shards
// share no mutable state between barriers, so results are bit-identical
// for any thread count; one thread runs the same loop on a barrier of one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.h"
#include "sim/time_types.h"

namespace sstsp::sim {

/// Wall-clock accounting for the parallel phases; only collected when
/// enabled (ShardExecutor::set_collect_wall_stats), because two clock reads
/// per shard-window are measurable at tens of millions of windows.  These
/// numbers are wall-time-derived and must never feed anything covered by
/// the bit-identity contract (they are surfaced via the profile block).
struct ShardWallStats {
  /// Per shard: time inside phase fns.
  std::vector<std::uint64_t> busy_ns;
  std::uint64_t phase_wall_ns{0};  ///< total wall across parallel phases
  /// Threads that ran the shards, min(threads, shards); thread t owns
  /// shards t, t+T, ...
  int threads{1};

  /// Imbalance of the busiest shard vs the mean busy time (1.0 = balanced).
  [[nodiscard]] double imbalance() const;
  /// Barrier wait of the thread owning `shard`: the phase wall minus the
  /// summed busy time of every shard that thread runs (near 0 on one
  /// thread, whose barrier never waits).
  [[nodiscard]] std::uint64_t barrier_wait_ns(std::size_t shard) const;
};

class ShardExecutor {
 public:
  struct Options {
    int shards{1};
    int threads{1};
    /// Conservative lookahead L.  The caller must derive it from the model
    /// (mac layer: min(cca_time, rx_latency_min)); the executor only
    /// requires L > 0.
    SimTime lookahead{SimTime::from_us(1)};
  };

  ShardExecutor(const Options& opt, std::uint64_t seed);

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  [[nodiscard]] int shard_count() const {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] Simulator& shard(int s) { return *shards_[s]; }
  /// Run-global timeline; its events fire between windows, serialized, with
  /// every shard clock advanced to the event time.
  [[nodiscard]] Simulator& control() { return *control_; }

  /// Exchange callback: serial, once per window at the barrier, before
  /// settle.  Receives the window end E (exclusive bound of the window).
  using ExchangeFn = std::function<void(SimTime end)>;
  /// Settle callback: parallel, once per (shard, window) after exchange.
  using SettleFn = std::function<void(int shard, SimTime end)>;
  /// Commit callback: serial, once per window after every settle returned
  /// (cross-shard aggregation of the window's settlement results).
  using CommitFn = std::function<void(SimTime end)>;

  /// Advances shards + control through `horizon` (events at exactly the
  /// horizon still fire, matching Simulator::run_until); all three
  /// callbacks are required.  An exception thrown on any thread (by a shard
  /// event, a callback or a control event) stops every thread at the next
  /// barrier and is rethrown here once all of them have joined.
  void run(SimTime horizon, const ExchangeFn& exchange, const SettleFn& settle,
           const CommitFn& commit);

  /// Sum of events dispatched by every shard plus the control timeline.
  [[nodiscard]] std::uint64_t total_events() const;
  [[nodiscard]] std::uint64_t windows() const { return windows_; }

  void set_collect_wall_stats(bool on);
  [[nodiscard]] const ShardWallStats& wall_stats() const {
    return wall_stats_;
  }

 private:
  SimTime lookahead_;
  int threads_;
  std::vector<std::unique_ptr<Simulator>> shards_;
  std::unique_ptr<Simulator> control_;
  std::uint64_t windows_{0};

  bool collect_wall_{false};
  ShardWallStats wall_stats_;
};

}  // namespace sstsp::sim

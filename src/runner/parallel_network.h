// ParallelNetwork: the sharded counterpart of run::Network.
//
// Materializes a Scenario onto the parallel kernel: a sim::ShardExecutor
// (one simulator per shard + one control simulator), a mac::ShardedWorld
// partitioning the deployment, and the stations distributed across shards.
// The run-global timeline — churn, reference departures, clock stress,
// clock-spread sampling — is the same Deployment (runner/deployment.h)
// Network uses, armed on the control simulator and so executed between
// windows, serialized against every shard.  Both kernels therefore share
// one node draw, one protocol factory and one substream keying; with the
// kernel's exactness contract (DESIGN.md §12) a run is bit-identical for
// any --threads/--shards combination.
//
// Deliberately narrower than Network: fault plans, invariant monitoring,
// telemetry streaming, flight recording and the phase sampler are not
// wired into the sharded kernel yet, and the constructor rejects scenarios
// requesting them (std::runtime_error) rather than silently dropping them.
#pragma once

#include <memory>
#include <vector>

#include "core/key_directory.h"
#include "mac/sharded_channel.h"
#include "obs/metrics.h"
#include "obs/observers.h"
#include "runner/deployment.h"
#include "runner/experiment.h"
#include "runner/scenario.h"
#include "sim/shard_exec.h"

namespace sstsp::run {

class ParallelNetwork {
 public:
  /// Throws std::runtime_error when the scenario requests a feature the
  /// sharded kernel does not support, or when the PHY parameters leave no
  /// conservative lookahead (cca_time or rx_latency_min of zero).
  explicit ParallelNetwork(const Scenario& scenario);

  ParallelNetwork(const ParallelNetwork&) = delete;
  ParallelNetwork& operator=(const ParallelNetwork&) = delete;

  /// Runs the full scenario (power-on through duration_s).
  void run();

  [[nodiscard]] int shard_count() const { return exec_.shard_count(); }

  // The deployment's view of the run (runner/deployment.h).
  [[nodiscard]] const Scenario& scenario() const {
    return deployment_.scenario();
  }
  [[nodiscard]] const metrics::Series& max_diff_series() const {
    return deployment_.max_diff_series();
  }
  [[nodiscard]] proto::ProtocolStats honest_stats() const {
    return deployment_.honest_stats();
  }
  [[nodiscard]] std::size_t station_count() const {
    return deployment_.station_count();
  }
  [[nodiscard]] proto::Station& station(std::size_t i) {
    return deployment_.station(i);
  }

  [[nodiscard]] mac::ChannelStats channel_stats() const {
    return world_->stats();
  }
  [[nodiscard]] std::uint64_t events_processed() const {
    return exec_.total_events();
  }

  /// Merged view of every shard registry (plus the control registry);
  /// counters sum, histograms merge bucket-wise, in shard order.
  [[nodiscard]] obs::RegistrySnapshot metrics_snapshot() const;

  /// Per-shard protocol-event traces; empty unless trace_capacity > 0.
  /// Events of one shard are in record order; use trace::EventTrace::select
  /// and sort across shards for a global view.
  [[nodiscard]] std::vector<trace::EventTrace*> shard_traces() const;

  /// Merged per-shard profiler phases; meaningful only when
  /// Scenario::profile is set.
  [[nodiscard]] obs::ProfileSnapshot profile_snapshot(
      double wall_seconds) const;

  /// Deterministic cross-shard trace merge: every retained per-shard event
  /// sorted by (time, node, kind) — a stable sort, so one node's causal
  /// order survives — replayed into a fresh ring of the scenario's
  /// capacity.  nullptr unless trace_capacity > 0.  Per-shard rings drop
  /// their oldest slices independently, so under eviction the merged ring
  /// holds each shard's newest slice, not a globally-newest window.
  [[nodiscard]] std::unique_ptr<trace::EventTrace> merged_trace() const;

 private:
  friend RunResult collect_result(ParallelNetwork& net, double wall_seconds);

  void build_stations();
  void publish_shard_metrics();

  sim::ShardExecutor exec_;
  /// Per shard: trace, instruments and profiler (shard_observers_[s]);
  /// the control bundle holds the sampling-side instruments and the
  /// kernel's own gauges.
  std::vector<std::unique_ptr<obs::Observers>> shard_observers_;
  std::unique_ptr<obs::Observers> control_observers_;
  std::unique_ptr<mac::ShardedWorld> world_;
  /// One key directory per shard (verification caches are per-receiver-
  /// shard); each holds the chains of every node audible to that shard.
  std::vector<std::unique_ptr<core::KeyDirectory>> directories_;
  Deployment deployment_;  // last: its stations borrow everything above
};

/// Collects a finished ParallelNetwork run into a RunResult (the sharded
/// counterpart of collect_result(Network&, double)).
[[nodiscard]] RunResult collect_result(ParallelNetwork& net,
                                       double wall_seconds);

}  // namespace sstsp::run

// ParallelNetwork: the sharded counterpart of run::Network.
//
// Materializes a Scenario onto the parallel kernel: a sim::ShardExecutor
// (one simulator per shard + one control simulator), a mac::ShardedWorld
// partitioning the deployment, and the stations distributed across shards.
// The run-global timeline — churn, reference departures, clock stress, the
// fault plan's node and clock events, clock-spread sampling — is the same
// Deployment (runner/deployment.h) Network uses, armed on the control
// simulator and so executed between windows, serialized against every
// shard.  Both kernels therefore share one node draw, one protocol factory
// and one substream keying; with the kernel's exactness contract
// (DESIGN.md §12) a run is bit-identical for any --threads/--shards
// combination.
//
// Observers: the control timeline holds the full bundle run::Network builds
// (trace, monitor, lifecycle, recovery, flight recorder, fault injector,
// telemetry).  Each shard holds a bundle of the thread-local observers
// (instruments, profiler, phase sampler) that buffers its stations' events;
// the window commit replays every shard's buffer into the control bundle in
// one (time, node, kind) order.
#pragma once
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
  /// Throws std::runtime_error on a scenario Deployment::validate rejects,
  /// on an unopenable telemetry or flight-recorder path, or when the PHY
  /// parameters leave no conservative lookahead (cca_time or
  /// rx_latency_min of zero).
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

  /// The control timeline's observers (obs/observers.h): the full bundle,
  /// fed every station event in the merged order.
  [[nodiscard]] obs::Observers& observers() { return *observers_; }
  [[nodiscard]] const obs::Observers& observers() const { return *observers_; }
  /// The merged protocol-event trace; nullptr unless
  /// Scenario::trace_capacity > 0.
  [[nodiscard]] trace::EventTrace* trace() { return observers_->trace(); }

  /// Merged per-shard profiler phases; meaningful only when
  /// Scenario::profile is set.
  [[nodiscard]] obs::ProfileSnapshot profile_snapshot(
      double wall_seconds) const;

 private:
  friend RunResult collect_result(ParallelNetwork& net, double wall_seconds);

  void build_stations();
  /// Replays the station events buffered since the last replay into the
  /// control bundle, sorted by (time, node, kind); ties keep shard order,
  /// then record order.
  void replay_events();
  void publish_shard_metrics();

  sim::ShardExecutor exec_;
  /// The control timeline's full bundle; it also holds the kernel's own
  /// gauges.
  std::unique_ptr<obs::Observers> observers_;
  /// Per shard: the thread-local observers and the station events they
  /// buffer for the next window commit.
  std::vector<std::unique_ptr<obs::Observers>> shard_observers_;
  std::vector<std::vector<obs::StationEvent>> shard_events_;
  std::vector<obs::StationEvent> merged_;  // replay scratch
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

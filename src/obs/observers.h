// Observers: every run observer of one host, built from one config in one
// place and attached to stations through one pointer.
//
// The observers check the paper's claims while a run executes and record
// what happened: the metrics instruments, the hot-path profiler and phase
// sampler, the invariant monitor with its beacon-lifecycle tracker (Lemma-1
// convergence, the µTESLA disclosure window, guard-time rejections,
// reference uniqueness), the fault injector and recovery tracker, the
// flight recorder, the telemetry sampler with its JSONL sinks, and the
// event trace.  run::Network, net::Swarm and sstsp_node each build one
// bundle; run::ParallelNetwork builds one per shard (plus one for its
// control timeline) with the subset the sharded kernel supports.
//
// What the bundle leaves to its host is the station census behind each
// spread and telemetry sample, cluster sampling and the power/clock hooks
// the fault plan drives.  Every multi-station host — both simulation
// kernels and net::Swarm — takes these from one run::Deployment
// (runner/deployment.h); sstsp_node hosts one station and samples only
// itself.  The live stack's divergence override stays in its hosts.
#pragma once

#include <csignal>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_config.h"
#include "core/sstsp_config.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "fault/recovery.h"
#include "obs/flight_recorder.h"
#include "obs/instruments.h"
#include "obs/invariants.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"
#include "protocols/sync_protocol.h"
#include "sim/simulator.h"
#include "trace/event_trace.h"
#include "trace/lifecycle.h"

namespace sstsp::mac {
class Channel;
class ShardChannel;
}  // namespace sstsp::mac

namespace sstsp::obs {

/// The user-facing observer switches: the base of run::Scenario, which
/// sstsp_sim, sstsp_swarm and sstsp_node all fill from one flag table
/// (runner/cli.h).
struct ObserverConfig {
  /// When > 0, a shared protocol-event trace (ring buffer of this capacity)
  /// records every station's events.
  std::size_t trace_capacity = 0;

  /// Metrics collection (counters/histograms through obs::Instruments).
  /// On by default: the recording cost is a pointer-indirect increment per
  /// event; RunResult carries the snapshot.
  bool collect_metrics = true;

  /// Wall-clock profiling of the simulation hot paths (obs::Profiler).
  /// Off by default; when off, the only cost is a null-pointer test at
  /// each span site.
  bool profile = false;

  /// Online invariant monitor + beacon-lifecycle tracking
  /// (obs::InvariantMonitor / trace::BeaconLifecycle).  Off by default;
  /// when off, every hook site is a null-pointer test.  Violations are
  /// collected as audit records in RunResult::audit.
  bool monitor = false;

  /// Streaming telemetry (DESIGN.md §10): when non-empty, append one
  /// TelemetrySample JSONL line per telemetry_interval_s of virtual time to
  /// this path.  Piggybacks on the clock-spread sampling tick, so enabling
  /// it adds no simulator events and leaves seeded runs bit-identical.
  std::string telemetry_out{};
  double telemetry_interval_s = 1.0;
  /// Attach per-node offset errors to cluster samples: 1 on, 0 off,
  /// -1 auto (on while the deployment has <= 64 nodes).
  int telemetry_per_node = -1;

  /// Phase-sampling profiler (obs::PhaseSampler, DESIGN.md §11): samples
  /// the current profiler phase, event-queue depth and per-phase exclusive
  /// time every phase_sampler_interval_s of virtual time.  Gated on the
  /// dispatch loop (one compare per event) — adds no simulator events and
  /// leaves seeded runs bit-identical.  Implies nothing about `profile`;
  /// phase attribution needs it, queue-depth sampling does not.
  bool phase_sampler = false;
  double phase_sampler_interval_s = 0.001;

  /// Flight recorder (obs::FlightRecorder): when non-empty, retain the
  /// newest flight_capacity protocol events and dump them to this path on
  /// any new audit record or an external dump request (SIGUSR1).
  std::string flight_recorder_out{};
  std::size_t flight_capacity = 512;
};

/// What the observers need to know about the run they watch.
struct ObservedRun {
  /// SSTSP runs get the protocol-specific monitor checks.
  bool sstsp_checks = true;
  core::SstspConfig sstsp{};
  double beacon_period_us = 1e5;
  /// Cluster runs widen the Lemma-1 thresholds by the cross-cluster bound
  /// and give the monitor its per-node domain topology.
  cluster::ClusterSpec cluster{};
  /// The injected fault plan: drives the injector and the recovery tracker
  /// and registers its windows as monitor disturbances.
  fault::FaultPlan faults{};
  /// Lemma-1 divergence bound override; < 0 keeps the monitor default.
  double diverge_threshold_us = -1.0;
  /// Recovery accounting needs a network-wide view; a lone live node
  /// turns it off.
  bool track_recovery = true;
  /// Run-level telemetry samples: their source tag and whether they carry
  /// process stats (wall-paced runs).  An empty source means the host
  /// samples per node itself and only the JSONL sink is opened here.
  std::string telemetry_source = "sim";
  bool process_stats = false;
  /// Extra consumer of every run-level sample; setting it turns the
  /// sampler on even without a telemetry path.
  TelemetrySampler::EmitFn on_sample{};
};

/// Telemetry's monotonic totals from a host's aggregated protocol stats.
[[nodiscard]] TelemetryCumulative telemetry_cumulative(
    const proto::ProtocolStats& stats, std::uint64_t events);

class Observers {
 public:
  /// Builds every observer `config` enables for `run`; the fault injector
  /// draws from `sim`'s "faults" substream.  Throws std::runtime_error when
  /// the telemetry or flight-recorder path cannot be opened.
  Observers(const ObserverConfig& config, const ObservedRun& run,
            const sim::Simulator& sim);

  Observers(const Observers&) = delete;
  Observers& operator=(const Observers&) = delete;

  /// The pointer stations hold: this bundle, or nullptr when no
  /// station-side observer is on, so Station::trace_event stays a single
  /// branch on unobserved runs.
  [[nodiscard]] const Observers* for_stations() const {
    const bool any = trace_ || instruments_ || profiler_ || monitor_ ||
                     recovery_ || flight_;
    return any ? this : nullptr;
  }

  /// Wires the simulator-side observers (instruments, profiler, phase
  /// sampler) and the channel-side ones (instruments, profiler).
  void attach(sim::Simulator& sim, mac::Channel& channel) const;
  /// One shard of the parallel kernel: the profiler on the shard
  /// simulator, the instruments on the shard channel only — a per-shard
  /// queue-depth histogram would change with the partition and break the
  /// any-shard-count bit-identity (DESIGN.md §12).
  void attach_shard(sim::Simulator& shard, mac::ShardChannel& channel) const;

  /// A station's protocol event, fanned out in a fixed order.  The flight
  /// recorder comes after the monitor, so a dump the monitor triggers on
  /// this event does not yet contain it.
  void on_event(const trace::TraceEvent& event) const {
    if (trace_) trace_->record(event);
    if (instruments_) {
      instruments_->on_protocol_event(event.kind, event.value_us);
    }
    if (monitor_) monitor_->on_event(event);
    if (lifecycle_) lifecycle_->on_event(event);
    if (recovery_) recovery_->on_trace_event(event);
    if (flight_) flight_->on_trace_event(event);
  }

  /// One clock-spread sampling tick over the synchronized honest clocks
  /// (`values`, non-empty; `mean` is their mean).
  void on_spread_sample(sim::SimTime now, const std::vector<double>& values,
                        double max_diff_us, double mean) const;
  /// Cluster runs: the inter-cluster spread (absent while no cluster has a
  /// synchronized node) and the fraction of awake nodes attached.
  void on_cluster_sample(sim::SimTime now, std::optional<double> spread_us,
                         double attached_fraction) const;

  /// Schedules the fault plan's node and clock events on `sim` through the
  /// host's power/clock/reference `hooks`, adding the recovery expectations
  /// every host shares: re-election after reference loss, re-attach after
  /// gateway loss (cluster runs), re-sync after clock faults and partition
  /// heals inside [0, duration_s).  No-op without a plan.
  void schedule_faults(sim::Simulator& sim, double duration_s,
                       fault::FaultHooks hooks) const;

  /// Run-level telemetry: due() gates the host's census, emit_telemetry()
  /// completes the sample (queue depth, audit count, recovery state,
  /// cumulative totals) and hands it to the sampler.
  [[nodiscard]] bool telemetry_due(double now_s) const {
    return sampler_ && sampler_->due(now_s);
  }
  void emit_telemetry(double now_s, TelemetrySample sample,
                      const proto::ProtocolStats& totals,
                      const sim::Simulator& sim) const;
  /// The observer-owned gauges of a sample: audit records, recovery state.
  void stamp(TelemetrySample& sample) const;
  /// Appends a sample to the telemetry JSONL (no-op without one).
  void write_sample(const TelemetrySample& sample) const;
  /// Whether samples have a destination here (JSONL path or flight ring).
  [[nodiscard]] bool keeps_samples() const {
    return telemetry_sink_ || flight_;
  }

  /// SIGUSR1 support: when the flag is nonzero at a poll, it is reset and
  /// the flight recorder dumps with reason "dump-request".
  void set_dump_request_flag(volatile std::sig_atomic_t* flag) {
    dump_flag_ = flag;
  }
  void poll_dump_request(double now_s) const;

  /// The run's metrics registry: always present, empty when nothing
  /// records into it.
  [[nodiscard]] Registry& registry() const { return *registry_; }
  // Each accessor is nullptr unless the config enabled that observer.
  [[nodiscard]] trace::EventTrace* trace() const { return trace_.get(); }
  [[nodiscard]] Instruments* instruments() const { return instruments_.get(); }
  [[nodiscard]] Profiler* profiler() const { return profiler_.get(); }
  [[nodiscard]] PhaseSampler* phase_sampler() const {
    return phase_sampler_.get();
  }
  [[nodiscard]] InvariantMonitor* monitor() const { return monitor_.get(); }
  [[nodiscard]] fault::FaultInjector* injector() const {
    return injector_.get();
  }
  [[nodiscard]] fault::RecoveryTracker* recovery() const {
    return recovery_.get();
  }
  [[nodiscard]] FlightRecorder* flight() const { return flight_.get(); }
  [[nodiscard]] TelemetrySampler* telemetry_sampler() const {
    return sampler_.get();
  }

 private:
  // Sinks and registry first: the observers below borrow them, so they
  // must be destroyed last.  The station fan-out pointers sit together.
  std::unique_ptr<Registry> registry_;
  std::unique_ptr<JsonlSink> flight_sink_;
  std::unique_ptr<JsonlSink> telemetry_sink_;
  std::unique_ptr<trace::EventTrace> trace_;
  std::unique_ptr<Instruments> instruments_;
  std::unique_ptr<InvariantMonitor> monitor_;
  std::unique_ptr<trace::BeaconLifecycle> lifecycle_;
  std::unique_ptr<fault::RecoveryTracker> recovery_;
  std::unique_ptr<FlightRecorder> flight_;
  std::unique_ptr<Profiler> profiler_;
  std::unique_ptr<PhaseSampler> phase_sampler_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<TelemetrySampler> sampler_;
  TelemetrySampler::EmitFn on_sample_;
  volatile std::sig_atomic_t* dump_flag_{nullptr};
  cluster::ClusterSpec cluster_;
};

}  // namespace sstsp::obs

#include "obs/observers.h"

#include <cmath>
#include <stdexcept>

#include "core/discipline.h"

namespace sstsp::obs {

namespace {

InvariantConfig invariant_config(const ObservedRun& run) {
  InvariantConfig cfg;
  cfg.sstsp_checks = run.sstsp_checks;
  cfg.bp_us = run.beacon_period_us;
  cfg.m = run.sstsp.m;
  cfg.l = run.sstsp.l;
  cfg.t0_us = run.sstsp.t0_us;
  cfg.interval_slack_us = run.sstsp.interval_slack_us;
  cfg.k_min = run.sstsp.k_min;
  cfg.k_max = run.sstsp.k_max;
  if (run.cluster.enabled()) {
    // The global spread now includes the inter-cluster translation error,
    // so the single-domain Lemma-1 thresholds widen by the documented
    // cross-cluster bound; the dedicated cluster-spread check enforces the
    // bound itself.
    const double bound = run.cluster.cross_cluster_bound_us();
    cfg.converged_threshold_us += bound;
    cfg.diverge_threshold_us += bound;
    cfg.cluster_max_depth = run.cluster.max_depth();
    cfg.cluster_hop_bound_us = run.cluster.hop_bound_us;
  }
  if (run.diverge_threshold_us >= 0.0) {
    cfg.diverge_threshold_us = run.diverge_threshold_us;
  }
  return cfg;
}

std::unique_ptr<JsonlSink> open_sink(const std::string& path) {
  auto sink = std::make_unique<JsonlSink>();
  std::string error;
  if (!sink->open(path, &error)) throw std::runtime_error(error);
  return sink;
}

sim::SimTime at(double t_s) { return sim::SimTime::from_sec_double(t_s); }

}  // namespace

TelemetryCumulative telemetry_cumulative(const proto::ProtocolStats& stats,
                                         std::uint64_t events) {
  TelemetryCumulative cum;
  cum.beacons_tx = stats.beacons_sent;
  cum.beacons_rx = stats.beacons_received;
  cum.adjustments = stats.adjustments + stats.adoptions;
  cum.coarse_steps = stats.coarse_steps;
  cum.rejects = stats.rejected_interval + stats.rejected_key +
                stats.rejected_mac + stats.rejected_guard;
  cum.elections = stats.elections_won;
  cum.events = events;
  return cum;
}

Observers::Observers(const ObserverConfig& config, const ObservedRun& run,
                     const sim::Simulator& sim)
    : registry_(std::make_unique<Registry>()), cluster_(run.cluster) {
  if (config.trace_capacity > 0) {
    trace_ = std::make_unique<trace::EventTrace>(config.trace_capacity);
  }
  if (config.collect_metrics) {
    instruments_ = std::make_unique<Instruments>(*registry_);
    if (run.sstsp.discipline.effective_name() != "paper") {
      // Per-verdict counters only for non-default disciplines: the default
      // path's registry snapshot (and with it the seeded run JSON) must
      // stay byte-identical (DESIGN.md §14).
      instruments_->enable_discipline(run.sstsp.discipline.effective_name(),
                                      core::discipline_verdict_names());
    }
  }
  if (config.profile) profiler_ = std::make_unique<Profiler>();
  if (config.phase_sampler) {
    PhaseSampler::Options opt;
    if (config.phase_sampler_interval_s > 0.0) {
      opt.interval_s = config.phase_sampler_interval_s;
    }
    phase_sampler_ = std::make_unique<PhaseSampler>(opt, *registry_);
    phase_sampler_->attach_profiler(profiler_.get());
  }
  if (config.monitor) {
    monitor_ = std::make_unique<InvariantMonitor>(invariant_config(run));
    wants_checks_ = true;
    lifecycle_ = std::make_unique<trace::BeaconLifecycle>(*registry_);
    if (run.cluster.enabled()) {
      std::vector<NodeDomainInfo> topo(
          static_cast<std::size_t>(run.cluster.total_nodes()));
      for (std::size_t i = 0; i < topo.size(); ++i) {
        const int c =
            cluster::cluster_of(run.cluster, static_cast<mac::NodeId>(i));
        topo[i].cluster = c;
        topo[i].phase_us = cluster::phase_of(run.cluster, c);
      }
      monitor_->set_cluster_topology(std::move(topo));
    }
  }
  if (!run.faults.empty()) {
    // The injector owns its RNG substream, keyed by the plan's seed: the
    // channel's and nodes' own draw sequences are untouched, so attaching a
    // plan never perturbs the baseline run and the same (plan, seed) pair
    // replays bit-identically.
    injector_ = std::make_unique<fault::FaultInjector>(
        run.faults, sim.substream("faults", run.faults.seed));
    if (run.track_recovery) {
      recovery_ = std::make_unique<fault::RecoveryTracker>(
          run.beacon_period_us * 1e-6, /*sync_threshold_us=*/25.0);
    }
    if (monitor_ != nullptr) {
      // Planned partitions and node and clock faults are disturbances, not
      // violations: suspend the invariants a healthy network is *supposed*
      // to break while recovering (one reference per partition, Lemma 1
      // restart).
      for (const auto& p : run.faults.partitions) {
        monitor_->add_disturbance(at(p.start_s), p.end_s < 0.0
                                                     ? sim::SimTime::never()
                                                     : at(p.end_s));
      }
      for (const auto& f : run.faults.node_faults) {
        monitor_->add_disturbance(
            at(f.at_s), at(f.restart_s < 0.0 ? f.at_s : f.restart_s));
      }
      for (const auto& c : run.faults.clock_faults) {
        monitor_->add_disturbance(at(c.at_s), at(c.at_s));
      }
    }
  }
  if (!config.flight_recorder_out.empty()) {
    flight_sink_ = open_sink(config.flight_recorder_out);
    FlightRecorder::Config fc;
    fc.event_capacity = config.flight_capacity;
    flight_ = std::make_unique<FlightRecorder>(fc, flight_sink_.get());
    if (monitor_ != nullptr) {
      // Dump the retained history the instant a *new* violation class
      // appears — the post-mortem is written before the failure cascades.
      monitor_->set_on_new_record(
          [this](sim::SimTime now, const AuditRecord& rec) {
            flight_->on_audit_record(now.to_sec(), rec);
          });
    }
  }
  if (!config.telemetry_out.empty()) {
    telemetry_sink_ = open_sink(config.telemetry_out);
  }
  on_sample_ = run.on_sample;
  if (!run.telemetry_source.empty() && (telemetry_sink_ || on_sample_)) {
    TelemetrySampler::Options opt;
    opt.interval_s =
        config.telemetry_interval_s > 0.0 ? config.telemetry_interval_s : 1.0;
    opt.source = run.telemetry_source;
    opt.process_stats = run.process_stats;
    sampler_ = std::make_unique<TelemetrySampler>(
        opt, [this](const TelemetrySample& sample) {
          write_sample(sample);
          if (flight_ != nullptr) flight_->on_sample(sample);
          if (on_sample_) on_sample_(sample);
        });
  }
}

void Observers::attach(sim::Simulator& sim, mac::Medium& medium) const {
  sim.set_instruments(instruments_.get());
  sim.set_profiler(profiler_.get());
  sim.set_phase_sampler(phase_sampler_.get());
  medium.set_instruments(instruments_.get());
  medium.set_profiler(profiler_.get());
}

void Observers::attach_shard(sim::Simulator& shard,
                             mac::Medium& channel) const {
  shard.set_profiler(profiler_.get());
  shard.set_phase_sampler(phase_sampler_.get());
  channel.set_instruments(instruments_.get());
  channel.set_profiler(profiler_.get());
}

void Observers::buffer_for(const Observers& control,
                           std::vector<StationEvent>& buffer) {
  const bool consumed = control.trace_ || control.monitor_ ||
                        control.recovery_ || control.flight_;
  buffer_ = consumed ? &buffer : nullptr;
  wants_checks_ = control.wants_checks_;
}

void Observers::on_spread_sample(sim::SimTime now,
                                 const std::vector<double>& values,
                                 double max_diff_us, double mean) const {
  if (monitor_ != nullptr) monitor_->on_max_diff_sample(now, max_diff_us);
  if (recovery_ != nullptr) {
    recovery_->on_max_diff_sample(now.to_sec(), max_diff_us);
  }
  if (instruments_ != nullptr) {
    instruments_->on_max_diff_sample(max_diff_us);
    for (const double v : values) {
      instruments_->on_node_error_sample(std::fabs(v - mean));
    }
  }
}

void Observers::on_cluster_sample(sim::SimTime now,
                                  std::optional<double> spread_us,
                                  double attached_fraction) const {
  if (spread_us && monitor_ != nullptr) {
    monitor_->on_cluster_spread_sample(now, *spread_us);
  }
  if (recovery_ != nullptr) {
    recovery_->on_cluster_attach_sample(now.to_sec(), attached_fraction);
  }
}

void Observers::schedule_faults(sim::Simulator& sim, double duration_s,
                                fault::FaultHooks hooks) const {
  if (injector_ == nullptr) return;
  if (recovery_ != nullptr) {
    fault::RecoveryTracker* recovery = recovery_.get();
    hooks.on_node_fault = [this, recovery, &sim](const fault::NodeFault& f,
                                                 mac::NodeId id) {
      const bool crash = f.kind == fault::NodeFaultKind::kCrash;
      // Losing the reference forces a re-election (the paper's l-BP
      // silence tolerance, §3.3); losing a follower only dents coverage.
      if (f.reference) {
        recovery->expect_reelection(
            crash ? "reference-crash" : "reference-pause", id,
            sim.now().to_sec());
      } else if (cluster_.enabled() && cluster::is_gateway(cluster_, id)) {
        // Losing a gateway severs a cluster's translation path: wait for
        // the attach fraction to dip (stale-tau detachment) and return.
        recovery->expect_reattach(crash ? "gateway-crash" : "gateway-pause",
                                  id, sim.now().to_sec());
      }
    };
    hooks.on_clock_fault = [recovery, &sim](const fault::ClockFault&,
                                            mac::NodeId id) {
      recovery->expect_resync("clock-fault", id, sim.now().to_sec());
    };
    // Partition heals that happen inside the run are re-sync deadlines.
    for (const auto& p : injector_->plan().partitions) {
      if (p.end_s >= 0.0 && p.end_s < duration_s) {
        const double heal_s = p.end_s;
        sim.at(at(heal_s), [recovery, heal_s] {
          recovery->expect_resync("partition-heal", mac::kNoNode, heal_s);
        });
      }
    }
  }
  fault::schedule_fault_events(sim, injector_->plan(), injector_.get(),
                               std::move(hooks));
}

void Observers::emit_telemetry(double now_s, TelemetrySample sample,
                               const proto::ProtocolStats& totals,
                               const sim::Simulator& sim) const {
  sample.queue_depth = sim.events_pending();
  stamp(sample);
  sampler_->emit(now_s, std::move(sample),
                 telemetry_cumulative(totals, sim.events_processed()));
}

void Observers::stamp(TelemetrySample& sample) const {
  if (monitor_ != nullptr) sample.audit_records = monitor_->total_violations();
  sample.recovery_pending = recovery_ != nullptr && recovery_->pending();
}

void Observers::write_sample(const TelemetrySample& sample) const {
  if (telemetry_sink_ != nullptr) {
    telemetry_sink_->write_line(telemetry_to_jsonl(sample));
  }
}

void Observers::poll_dump_request(double now_s) const {
  if (dump_flag_ == nullptr || *dump_flag_ == 0 || flight_ == nullptr) return;
  *dump_flag_ = 0;
  flight_->dump(now_s, "dump-request", nullptr);
}

}  // namespace sstsp::obs

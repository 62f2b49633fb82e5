#include "net/swarm.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace sstsp::net {

const char* transport_kind_name(TransportKind kind) {
  switch (kind) {
    case TransportKind::kLoopback:
      return "loopback";
    case TransportKind::kUdp:
      return "udp";
  }
  return "?";
}

SwarmConfig::SwarmConfig() {
  num_nodes = 5;
  duration_s = 10.0;
  sstsp = live_sstsp_defaults();
}

Swarm::Swarm(const SwarmConfig& config)
    : config_(config), sim_(config.seed) {
  obs::ObservedRun run;
  run.sstsp = config_.sstsp;
  run.beacon_period_us = config_.phy.beacon_period.to_us();
  run.faults = config_.faults;
  run.diverge_threshold_us = config_.monitor_diverge_us;
  if (run.diverge_threshold_us < 0.0 &&
      config_.transport == TransportKind::kUdp) {
    run.diverge_threshold_us = kUdpDivergeThresholdUs;
  }
  run.telemetry_source = "swarm";
  // Process stats (RSS, wall clock) only on the wall-paced transport; a
  // virtual-time loopback run stays bit-reproducible.
  run.process_stats = config_.transport == TransportKind::kUdp;
  if (config_.watch) run.on_sample = print_watch_line;
  observers_ = std::make_unique<obs::Observers>(config_, run, sim_);
}

std::unique_ptr<Swarm> Swarm::create(const SwarmConfig& config,
                                     std::string* error) {
  auto fail = [error](std::string message) -> std::unique_ptr<Swarm> {
    if (error != nullptr) *error = std::move(message);
    return nullptr;
  };
  if (config.num_nodes < 1) return fail("swarm needs at least one node");
  if (config.num_nodes > 250) {
    // One UDP socket and one private channel per node; the cap is a sanity
    // bound well past the paper's 100-node deployments.
    return fail("swarm is capped at 250 nodes");
  }
  if (config.duration_s <= 0.0) return fail("duration must be positive");
  if (config.cluster.enabled()) return fail("swarm runs no cluster scenario");

  std::unique_ptr<Swarm> swarm;
  try {
    swarm.reset(new Swarm(config));
  } catch (const std::runtime_error& e) {
    return fail(e.what());  // an unopenable telemetry / flight path
  }
  if (!swarm->init(error)) return nullptr;
  return swarm;
}

bool Swarm::init(std::string* error) {
  std::vector<Transport*> endpoints;
  endpoints.reserve(static_cast<std::size_t>(config_.num_nodes));

  if (config_.transport == TransportKind::kUdp) {
    reactor_ = std::make_unique<Reactor>(sim_);
    for (int i = 0; i < config_.num_nodes; ++i) {
      UdpConfig uc;
      uc.bind_address = config_.bind_address;
      uc.bind_port =
          config_.base_port == 0
              ? std::uint16_t{0}
              : static_cast<std::uint16_t>(config_.base_port + i);
      std::string udp_error;
      auto transport = UdpTransport::open(*reactor_, uc, &udp_error);
      if (!transport) {
        if (error != nullptr) {
          *error = "node " + std::to_string(i) + ": " + udp_error;
        }
        return false;
      }
      udp_.push_back(std::move(transport));
    }
    // Every socket is bound (ephemeral ports resolved) — wire the full
    // unicast mesh.
    for (int i = 0; i < config_.num_nodes; ++i) {
      std::vector<UdpEndpoint> peers;
      peers.reserve(static_cast<std::size_t>(config_.num_nodes - 1));
      for (int j = 0; j < config_.num_nodes; ++j) {
        if (j == i) continue;
        peers.push_back(UdpEndpoint{
            config_.bind_address,
            udp_[static_cast<std::size_t>(j)]->local_port()});
      }
      std::string peer_error;
      if (!udp_[static_cast<std::size_t>(i)]->set_peers(peers,
                                                        &peer_error)) {
        if (error != nullptr) *error = std::move(peer_error);
        return false;
      }
      endpoints.push_back(udp_[static_cast<std::size_t>(i)].get());
    }
  } else {
    hub_ = std::make_unique<LoopbackHub>(sim_, config_.loopback);
    for (int i = 0; i < config_.num_nodes; ++i) {
      endpoints.push_back(&hub_->create_endpoint());
    }
  }

  if (fault::FaultInjector* injector = observers_->injector()) {
    // Decorate every endpoint: the node installs its rx handler on the
    // decorator, which consults the injector per arriving datagram —
    // identical verdict semantics to the simulated channel's hook.
    for (int i = 0; i < config_.num_nodes; ++i) {
      faulty_.push_back(std::make_unique<fault::FaultyTransport>(
          *endpoints[static_cast<std::size_t>(i)], sim_, *injector,
          static_cast<mac::NodeId>(i)));
      endpoints[static_cast<std::size_t>(i)] =
          faulty_.back().get();
    }
  }

  double wire_latency_us = config_.wire_latency_us;
  if (wire_latency_us < 0.0) {
    wire_latency_us =
        config_.transport == TransportKind::kLoopback
            ? 0.5 * (config_.loopback.latency_min.to_us() +
                     config_.loopback.latency_max.to_us())
            : kUdpWireLatencyUs;
  }

  for (int i = 0; i < config_.num_nodes; ++i) {
    NodeConfig nc = node_config(config_);
    nc.id = static_cast<mac::NodeId>(i);
    nc.wire_latency_us = wire_latency_us;
    nc.start_as_reference = config_.preestablished_reference && i == 0;
    nodes_.push_back(std::make_unique<NodeRuntime>(
        sim_, *endpoints[static_cast<std::size_t>(i)], nc));
  }

  for (auto& node : nodes_) {
    if (reactor_ != nullptr) {
      // Wall-paced mode: let every node measure its own tx dispatch
      // lateness and reconstruct datagram arrivals (see
      // NodeRuntime::set_wall_clock).
      node->set_wall_clock(
          [reactor = reactor_.get()] { return reactor->wall_sim_now(); });
    }
    node->attach_observers(*observers_);
  }
  deployment_ = std::make_unique<run::Deployment>(config_, sim_, *observers_);
  for (auto& node : nodes_) deployment_->add_station(node->station());

  if (config_.prom_port >= 0) {
    if (reactor_ == nullptr) {
      if (error != nullptr) {
        *error = "--prom-port needs the udp transport (a loopback run has "
                 "no live reactor to serve scrapes)";
      }
      return false;
    }
    prom_ = std::make_unique<PromExporter>();
    if (!prom_->open(
            *reactor_, static_cast<std::uint16_t>(config_.prom_port),
            [this] { return prometheus_scrape_body(); }, error)) {
      return false;
    }
  }
  return init_telemetry(error);
}

std::string Swarm::prometheus_scrape_body() {
  // Fold the SIGPROF hit counters in first so a scrape always sees current
  // totals, then attach the cluster-state gauges the registry does not
  // carry (they are instantaneous derivations, not recorded metrics).
  if (auto* sampler = observers_->phase_sampler()) sampler->publish_live();
  std::vector<std::pair<std::string, double>> extra;
  int awake = 0;
  int synced = 0;
  for (const auto& node : nodes_) {
    const proto::Station& st = node->station();
    if (!st.awake()) continue;
    ++awake;
    if (st.protocol().is_synchronized()) ++synced;
  }
  extra.emplace_back("swarm_nodes_total",
                     static_cast<double>(config_.num_nodes));
  extra.emplace_back("swarm_nodes_awake", static_cast<double>(awake));
  extra.emplace_back("swarm_nodes_synced", static_cast<double>(synced));
  if (const auto diff = instant_max_diff_us()) {
    extra.emplace_back("swarm_max_offset_us", *diff);
  }
  extra.emplace_back("swarm_sim_time_seconds", sim_.now().to_sec());
  if (reactor_ != nullptr) {
    extra.emplace_back("reactor_wait_seconds",
                       static_cast<double>(reactor_->wait_ns()) * 1e-9);
    extra.emplace_back("reactor_work_seconds",
                       static_cast<double>(reactor_->work_ns()) * 1e-9);
  }
  return prometheus_body(observers_->registry().snapshot(), extra);
}

bool Swarm::init_telemetry(std::string* error) {
  if (observers_->telemetry_sampler() == nullptr) return true;
  if (config_.transport == TransportKind::kUdp) {
    // Live export path: each node publishes its sample as one datagram to
    // the swarm's collector socket on the reactor — the same path an
    // external collector would use — and the collector folds whatever
    // arrives into the aggregate JSONL stream.
    std::string link_error;
    collector_ = TelemetryCollector::open(
        *reactor_, "127.0.0.1", 0,
        [this](const obs::TelemetrySample& sample) {
          observers_->write_sample(sample);
        },
        &link_error);
    if (collector_ == nullptr) {
      if (error != nullptr) *error = "telemetry collector: " + link_error;
      return false;
    }
    for (int i = 0; i < config_.num_nodes; ++i) {
      auto exporter = TelemetryExporter::open(
          "127.0.0.1", collector_->local_port(), &link_error);
      if (exporter == nullptr) {
        if (error != nullptr) {
          *error = "telemetry exporter " + std::to_string(i) + ": " +
                   link_error;
        }
        return false;
      }
      exporters_.push_back(std::move(exporter));
    }
  }
  return true;
}

void Swarm::arm() {
  if (armed_) return;
  armed_ = true;
  if (const obs::TelemetrySampler* sampler = observers_->telemetry_sampler()) {
    // Per-node samplers ride the hosting timeline: wall-paced through the
    // reactor in UDP mode (published as datagrams), virtual-time in
    // loopback mode (folded straight into the aggregate stream).
    const auto until = sim::SimTime::from_sec_double(config_.duration_s);
    const bool wall_paced = config_.transport == TransportKind::kUdp;
    obs::TelemetrySampler::Options node_opts = sampler->options();
    node_opts.source = "node";
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      obs::TelemetrySampler::EmitFn emit;
      if (wall_paced) {
        emit = [exporter = exporters_[i].get()](
                   const obs::TelemetrySample& sample) {
          exporter->publish(sample);
        };
      } else {
        emit = [this](const obs::TelemetrySample& sample) {
          observers_->write_sample(sample);
        };
      }
      nodes_[i]->start_telemetry(node_opts, until, std::move(emit));
    }
  }
  deployment_->arm();
}

void Swarm::print_watch_line(const obs::TelemetrySample& sample) {
  std::string ref = sample.reference >= 0
                        ? std::to_string(sample.reference)
                        : std::string("-");
  std::string err = "-";
  if (std::isfinite(sample.max_offset_us)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", sample.max_offset_us);
    err = buf;
  }
  std::fprintf(stderr,
               "\r[swarm %7.1fs] synced %d/%d ref %s max %s us rx %llu "
               "audit %llu   ",
               sample.t_s, sample.nodes_synced, sample.nodes_total,
               ref.c_str(), err.c_str(),
               static_cast<unsigned long long>(sample.beacons_rx),
               static_cast<unsigned long long>(sample.audit_records));
  std::fflush(stderr);
}

void Swarm::run() {
  // Anchor before arming so any frame transmitted during power-on already
  // measures its dispatch lateness against a live wall mapping.
  if (config_.transport == TransportKind::kUdp) reactor_->anchor(sim_.now());
  arm();
  const auto wall_start = std::chrono::steady_clock::now();
  const auto horizon = sim::SimTime::from_sec_double(config_.duration_s);
  if (config_.transport == TransportKind::kUdp) {
    // Wall-paced runs add the statistical SIGPROF sampler on top of the
    // dispatch-gated one: ITIMER_PROF fires on consumed CPU time, so
    // reactor sleeps are invisible to it (the wait/work gauges cover them).
    obs::PhaseSampler* sampler = observers_->phase_sampler();
    if (sampler != nullptr) {
      std::string live_error;
      if (!sampler->start_live(&live_error)) {
        std::fprintf(stderr, "warning: live phase sampler: %s\n",
                     live_error.c_str());
      }
    }
    reactor_->run_until(horizon);
    if (sampler != nullptr) sampler->stop_live();
  } else {
    sim_.run_until(horizon);
  }
  wall_seconds_ = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
  if (config_.watch) std::fputc('\n', stderr);
}

run::RunResult Swarm::collect() {
  run::RunResult result = deployment_->result();
  NetRunStats net;
  for (const auto& node : nodes_) {
    // Per-node private channels: transmissions are the node's own beacons;
    // "deliveries" are wire-tap handoffs (1:1 with transmissions), not
    // over-the-air receptions — those live in RunResult::net.
    result.channel += node->channel().stats();
    net += node->net_stats();
  }
  result.net = net;

  if (reactor_ != nullptr) {
    obs::Registry& registry = observers_->registry();
    registry.gauge("reactor.wait_seconds")
        .set(static_cast<double>(reactor_->wait_ns()) * 1e-9);
    registry.gauge("reactor.work_seconds")
        .set(static_cast<double>(reactor_->work_ns()) * 1e-9);
  }
  result.events_processed = sim_.events_processed();
  run::collect_observers(result, *observers_, wall_seconds_);

  // A node that died or stayed deaf without a planned fault must not pass
  // as a clean (just quieter) run: flag it as a node-failure audit record
  // and report it through failed_nodes() so the tool exits nonzero.
  // "Deaf" = it decoded not a single frame while its peers were clearly
  // beaconing.  The whole-run peer-frame count only witnesses against a
  // node when those frames were actually deliverable to it: under a
  // declared partition the plan itself drops cross-group frames, so an
  // isolated side's reference legitimately hears nothing while the other
  // side beacons — the heuristic stands down for partition plans rather
  // than misread planned isolation as a wedged process.
  failed_nodes_.clear();
  const bool plan_partitions = !config_.faults.partitions.empty();
  const std::uint64_t frames_on_wire = net.frames_sent;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (deployment_->planned_down(i)) continue;
    const auto& node = *nodes_[i];
    const std::uint64_t peer_frames =
        frames_on_wire - node.net_stats().frames_sent;
    const bool dead = !node.station().awake();
    const bool deaf = !plan_partitions &&
                      node.net_stats().frames_received == 0 &&
                      peer_frames > 10;
    if (!dead && !deaf) continue;
    const mac::NodeId id = node.config().id;
    failed_nodes_.push_back(id);
    if (!result.audit) result.audit.emplace();
    obs::AuditRecord record;
    record.kind = obs::InvariantKind::kNodeFailure;
    record.severity = obs::Severity::kCritical;
    record.node = id;
    record.count = 1;
    record.first_t_s = record.last_t_s = sim_.now().to_sec();
    record.detail = dead ? "node is down with no planned fault"
                         : "node received no frame while peers sent " +
                               std::to_string(peer_frames);
    if (obs::FlightRecorder* flight = observers_->flight()) {
      // Unplanned death is exactly what the flight recorder exists for:
      // dump the recent history with the failure record attached (never
      // rate-limited, unlike audit-triggered dumps).
      flight->dump(sim_.now().to_sec(), "node-failure", &record);
    }
    result.audit->records.push_back(std::move(record));
  }
  return result;
}

}  // namespace sstsp::net

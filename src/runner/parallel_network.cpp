#include "runner/parallel_network.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace sstsp::run {

namespace {

[[noreturn]] void reject(const char* what) {
  throw std::runtime_error(std::string("the sharded kernel (--threads) does "
                                       "not support ") +
                           what + " yet; run with --threads 0");
}

/// Validates the scenario and derives the executor geometry.  Runs before
/// any member construction, so unsupported scenarios fail loudly instead
/// of half-building.
sim::ShardExecutor::Options exec_options(const Scenario& s) {
  if (s.monitor) reject("the invariant monitor (--monitor)");
  if (s.cluster.enabled()) reject("cluster scenarios (--clusters)");
  if (!s.faults.empty()) reject("fault plans");
  if (!s.telemetry_out.empty()) reject("telemetry streaming");
  if (!s.flight_recorder_out.empty()) reject("the flight recorder");
  if (s.phase_sampler) reject("the phase sampler");

  sim::ShardExecutor::Options opt;
  opt.threads = std::max(1, s.threads);
  opt.shards = s.shards > 0 ? s.shards : opt.threads;
  opt.lookahead = std::min(s.phy.cca_time, s.phy.rx_latency_min);
  if (!(opt.lookahead > sim::SimTime::zero())) {
    throw std::runtime_error(
        "the sharded kernel needs a positive conservative lookahead: "
        "min(cca_time, rx_latency_min) must be > 0");
  }
  return opt;
}

obs::ObservedRun observed_run(const Scenario& s) {
  obs::ObservedRun run;
  run.sstsp = s.sstsp;
  return run;
}

/// The control timeline's bundle: clock-spread instruments and the kernel
/// gauges.  No injector, so the deployment's fault step is a no-op here.
std::unique_ptr<obs::Observers> control_bundle(const Scenario& s,
                                               const sim::Simulator& control) {
  obs::ObserverConfig config;
  config.collect_metrics = s.collect_metrics;
  return std::make_unique<obs::Observers>(config, observed_run(s), control);
}

std::size_t vm_hwm_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

}  // namespace

ParallelNetwork::ParallelNetwork(const Scenario& scenario)
    : exec_(exec_options(scenario), scenario.seed),
      control_observers_(control_bundle(scenario, exec_.control())),
      deployment_(scenario, exec_.control(), *control_observers_) {
  const int shards = exec_.shard_count();
  // One bundle per shard with the observers the sharded kernel supports
  // (trace, metrics, profiler; exec_options rejects the rest).
  for (int s = 0; s < shards; ++s) {
    shard_observers_.push_back(std::make_unique<obs::Observers>(
        scenario, observed_run(scenario), exec_.shard(s)));
  }
  if (scenario.profile) exec_.set_collect_wall_stats(true);

  std::vector<sim::Simulator*> sims;
  sims.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) sims.push_back(&exec_.shard(s));
  world_ = std::make_unique<mac::ShardedWorld>(scenario.phy, std::move(sims));

  build_stations();
}

void ParallelNetwork::build_stations() {
  const auto draws = deployment_.draw_nodes();
  std::vector<mac::Position> positions;
  positions.reserve(draws.size());
  for (const auto& d : draws) positions.push_back(d.pos);
  world_->partition(positions);
  const int shards = exec_.shard_count();

  directories_.clear();
  for (int s = 0; s < shards; ++s) {
    directories_.push_back(std::make_unique<core::KeyDirectory>());
  }
  if (scenario().protocol == ProtocolKind::kSstsp) {
    // A shard verifies only frames its stations can hear, so each node's
    // chain goes into exactly the directories of its announce fan-out set
    // (all shards in the single-hop configuration) — memory stays linear
    // in the shard's audible population, not the whole deployment.
    std::vector<int> audible;
    for (std::size_t i = 0; i < draws.size(); ++i) {
      const auto id = static_cast<mac::NodeId>(i);
      const crypto::ChainParams params = deployment_.chain_params(id);
      world_->audible_shards(positions[i].x_m, audible);
      for (const int s : audible) {
        directories_[static_cast<std::size_t>(s)]->register_node(id, params);
      }
    }
  }

  for (int s = 0; s < shards; ++s) {
    shard_observers_[static_cast<std::size_t>(s)]->attach_shard(
        exec_.shard(s), world_->channel(s));
  }

  for (std::size_t i = 0; i < draws.size(); ++i) {
    const int shard = world_->shard_of(i);
    const auto sh = static_cast<std::size_t>(shard);
    const Deployment::NodeDraw& d = draws[i];
    proto::Station& station = deployment_.emplace_station(
        exec_.shard(shard), world_->channel(shard),
        static_cast<mac::NodeId>(i), clk::HardwareClock(d.drift, d.offset_us),
        d.pos);
    deployment_.install_protocol(i, *directories_[sh]);
    station.set_observers(shard_observers_[sh]->for_stations());
  }
}

void ParallelNetwork::run() {
  deployment_.arm();
  exec_.run(
      sim::SimTime::from_sec_double(scenario().duration_s),
      [this](sim::SimTime end) { world_->exchange(end); },
      [this](int s, sim::SimTime end) {
        // Attribute barrier settlement (interference + delivery fan-out)
        // to the channel-delivery phase, like Channel::finish_transmission.
        obs::Span span(
            shard_observers_[static_cast<std::size_t>(s)]->profiler(),
            obs::Phase::kChannelDelivery);
        world_->settle(s, end);
      },
      [this](sim::SimTime end) { world_->commit(end); });
  if (scenario().profile) publish_shard_metrics();
}

void ParallelNetwork::publish_shard_metrics() {
  obs::Registry& r = control_observers_->registry();
  r.gauge("shard.count").set(static_cast<double>(exec_.shard_count()));
  r.counter("shard.windows").inc(exec_.windows());
  r.counter("shard.announcements").inc(world_->announcements_total());
  r.gauge("run.peak_rss_kb").set(static_cast<double>(vm_hwm_kb()));
  const sim::ShardWallStats& ws = exec_.wall_stats();
  if (!ws.busy_ns.empty()) {
    r.gauge("shard.imbalance").set(ws.imbalance());
    r.gauge("shard.phase_wall_ns")
        .set(static_cast<double>(ws.phase_wall_ns));
  }
  for (int s = 0; s < exec_.shard_count(); ++s) {
    const std::string prefix = "shard." + std::to_string(s);
    const auto i = static_cast<std::size_t>(s);
    r.counter(prefix + ".events").inc(exec_.shard(s).events_processed());
    r.gauge(prefix + ".stations")
        .set(static_cast<double>(world_->channel(s).station_count()));
    r.gauge(prefix + ".peak_tx_records")
        .set(static_cast<double>(world_->channel(s).peak_tx_records()));
    r.counter(prefix + ".announcements")
        .inc(world_->channel(s).announcements_sent());
    if (!ws.busy_ns.empty()) {
      r.gauge(prefix + ".busy_ns").set(static_cast<double>(ws.busy_ns[i]));
      r.gauge(prefix + ".barrier_wait_ns")
          .set(static_cast<double>(ws.wait_ns[i]));
    }
  }
}

obs::RegistrySnapshot ParallelNetwork::metrics_snapshot() const {
  obs::Registry merged;
  merged.merge_from(control_observers_->registry());
  for (const auto& o : shard_observers_) merged.merge_from(o->registry());
  return merged.snapshot();
}

obs::ProfileSnapshot ParallelNetwork::profile_snapshot(
    double wall_seconds) const {
  obs::ProfileSnapshot snap;
  for (const auto& o : shard_observers_) {
    const obs::Profiler* p = o->profiler();
    if (p == nullptr) continue;
    for (std::size_t ph = 0; ph < obs::kPhaseCount; ++ph) {
      const obs::PhaseStats& st = p->stats(static_cast<obs::Phase>(ph));
      snap.phases[ph].exclusive_ns += st.exclusive_ns;
      snap.phases[ph].spans += st.spans;
      snap.total_ns += st.exclusive_ns;
    }
  }
  snap.events = events_processed();
  snap.wall_seconds = wall_seconds;
  return snap;
}

std::vector<trace::EventTrace*> ParallelNetwork::shard_traces() const {
  std::vector<trace::EventTrace*> traces;
  for (const auto& o : shard_observers_) {
    if (o->trace() != nullptr) traces.push_back(o->trace());
  }
  return traces;
}

std::unique_ptr<trace::EventTrace> ParallelNetwork::merged_trace() const {
  const auto traces = shard_traces();
  if (traces.empty()) return nullptr;
  std::vector<trace::TraceEvent> all;
  for (const auto* t : traces) {
    const auto events =
        t->select([](const trace::TraceEvent&) { return true; });
    all.insert(all.end(), events.begin(), events.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const trace::TraceEvent& a, const trace::TraceEvent& b) {
                     if (a.time < b.time) return true;
                     if (b.time < a.time) return false;
                     if (a.node != b.node) return a.node < b.node;
                     return static_cast<int>(a.kind) <
                            static_cast<int>(b.kind);
                   });
  auto merged =
      std::make_unique<trace::EventTrace>(scenario().trace_capacity);
  for (const auto& e : all) merged->record(e);
  return merged;
}

RunResult collect_result(ParallelNetwork& net, double wall_seconds) {
  RunResult result = net.deployment_.result();
  result.channel = net.channel_stats();
  result.metrics = net.metrics_snapshot();
  result.events_processed = net.events_processed();
  result.wall_seconds = wall_seconds;
  if (net.scenario().profile) {
    result.profile = net.profile_snapshot(wall_seconds);
  }
  return result;
}

}  // namespace sstsp::run

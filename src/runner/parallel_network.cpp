#include "runner/parallel_network.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace sstsp::run {

namespace {

/// Validates the scenario and derives the executor geometry.  Runs before
/// any member construction, so a bad scenario fails before any observer
/// output is opened.
sim::ShardExecutor::Options exec_options(const Scenario& s) {
  Deployment::validate(s);
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

/// The control timeline's bundle: every observer of the scenario but the
/// thread-local ones, which run per shard.
obs::ObserverConfig control_config(const Scenario& s) {
  obs::ObserverConfig config = s;
  config.profile = false;
  config.phase_sampler = false;
  return config;
}

/// A shard's bundle: the thread-local observers only.
obs::ObserverConfig shard_config(const Scenario& s) {
  obs::ObserverConfig config;
  config.collect_metrics = s.collect_metrics;
  config.profile = s.profile;
  config.phase_sampler = s.phase_sampler;
  config.phase_sampler_interval_s = s.phase_sampler_interval_s;
  return config;
}

/// The kind in the merge key: the trace kinds, then the monitor checks.
int merge_kind(const obs::StationEvent& e) {
  return e.traced() ? static_cast<int>(e.event.kind)
                    : static_cast<int>(trace::kEventKindCount) +
                          static_cast<int>(e.check.index());
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
      observers_(std::make_unique<obs::Observers>(
          control_config(scenario), Deployment::observed_run(scenario),
          exec_.control())),
      deployment_(scenario, exec_.control(), *observers_) {
  const int shards = exec_.shard_count();
  obs::ObservedRun shard_run = Deployment::observed_run(scenario);
  shard_run.faults = {};  // the control bundle owns the injector
  shard_events_.resize(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    auto& o = shard_observers_.emplace_back(std::make_unique<obs::Observers>(
        shard_config(scenario), shard_run, exec_.shard(s)));
    o->buffer_for(*observers_, shard_events_[static_cast<std::size_t>(s)]);
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
    directories_.push_back(std::make_unique<core::KeyDirectory>(
        scenario().seed, scenario().sstsp.chain_length));
  }
  if (scenario().protocol == ProtocolKind::kSstsp) {
    // A shard verifies only frames its stations can hear, so each node's
    // chain goes into exactly the directories of its announce fan-out set
    // (all shards in the single-hop configuration) — memory stays linear
    // in the shard's audible population, not the whole deployment.  The
    // first pass sizes each directory, the second fills it.
    std::vector<int> audible;
    std::vector<std::size_t> counts(static_cast<std::size_t>(shards));
    for (const mac::Position& p : positions) {
      world_->announce_targets(p.x_m, audible);
      for (const int s : audible) ++counts[static_cast<std::size_t>(s)];
    }
    for (std::size_t s = 0; s < counts.size(); ++s) {
      directories_[s]->reserve(counts[s]);
    }
    for (std::size_t i = 0; i < draws.size(); ++i) {
      world_->announce_targets(positions[i].x_m, audible);
      for (const int s : audible) {
        directories_[static_cast<std::size_t>(s)]->register_node(
            static_cast<mac::NodeId>(i));
      }
    }
  }

  for (int s = 0; s < shards; ++s) {
    shard_observers_[static_cast<std::size_t>(s)]->attach_shard(
        exec_.shard(s), world_->channel(s));
    world_->channel(s).set_fault_injector(observers_->injector());
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
      [this](int s, sim::SimTime end) { world_->settle(s, end); },
      [this](sim::SimTime end) {
        world_->commit(end);
        replay_events();
      });
  replay_events();  // what the last control events recorded
  if (scenario().profile) publish_shard_metrics();
}

void ParallelNetwork::replay_events() {
  merged_.clear();
  for (auto& events : shard_events_) {
    merged_.insert(merged_.end(), events.begin(), events.end());
    events.clear();
  }
  std::stable_sort(merged_.begin(), merged_.end(),
                   [](const obs::StationEvent& a, const obs::StationEvent& b) {
                     if (a.event.time != b.event.time) {
                       return a.event.time < b.event.time;
                     }
                     if (a.event.node != b.event.node) {
                       return a.event.node < b.event.node;
                     }
                     return merge_kind(a) < merge_kind(b);
                   });
  for (const obs::StationEvent& e : merged_) observers_->deliver(e);
}

void ParallelNetwork::publish_shard_metrics() {
  obs::Registry& r = observers_->registry();
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
          .set(static_cast<double>(ws.barrier_wait_ns(i)));
    }
  }
}

obs::RegistrySnapshot ParallelNetwork::metrics_snapshot() const {
  obs::Registry merged;
  merged.merge_from(observers_->registry());
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

RunResult collect_result(ParallelNetwork& net, double wall_seconds) {
  RunResult result = net.deployment_.result();
  result.channel = net.channel_stats();
  result.events_processed = net.events_processed();
  if (fault::FaultInjector* injector = net.observers_->injector()) {
    injector->add_stats(net.world_->fault_stats());
  }
  collect_observers(result, *net.observers_, wall_seconds);
  // The shards' registries and profilers join the control bundle's.
  result.metrics = net.metrics_snapshot();
  if (net.scenario().profile) {
    result.profile = net.profile_snapshot(wall_seconds);
  }
  return result;
}

}  // namespace sstsp::run

#include "runner/parallel_network.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "attack/adversary.h"
#include "core/sstsp.h"
#include "crypto/hash_chain.h"
#include "obs/json.h"
#include "protocols/tsf_family.h"

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
    : scenario_(scenario),
      exec_(exec_options(scenario), scenario.seed),
      attacker_index_(0) {
  const int shards = exec_.shard_count();
  // One bundle per shard with the observers the sharded kernel supports
  // (trace, metrics, profiler; exec_options rejects the rest), and one for
  // the control timeline: clock-spread instruments and the kernel gauges.
  obs::ObservedRun run;
  run.sstsp = scenario_.sstsp;
  for (int s = 0; s < shards; ++s) {
    shard_observers_.push_back(
        std::make_unique<obs::Observers>(scenario_, run, exec_.shard(s)));
  }
  obs::ObserverConfig control;
  control.collect_metrics = scenario_.collect_metrics;
  control_observers_ =
      std::make_unique<obs::Observers>(control, run, exec_.control());
  if (scenario_.profile) exec_.set_collect_wall_stats(true);

  std::vector<sim::Simulator*> sims;
  sims.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) sims.push_back(&exec_.shard(s));
  world_ = std::make_unique<mac::ShardedWorld>(scenario_.phy, std::move(sims));

  build_stations();
}

void ParallelNetwork::build_stations() {
  const int n = scenario_.num_nodes;
  const bool has_attacker = !scenario_.attack.empty();
  const int total = n + (has_attacker ? 1 : 0);
  attacker_index_ = has_attacker ? static_cast<std::size_t>(n)
                                 : static_cast<std::size_t>(total);

  // Exactly Network::build_stations' draw sequence, from the control
  // simulator's root RNG — same seed, same substreams, same per-stream
  // order, so every node gets the position and oscillator it would get on
  // the single-threaded kernel.
  sim::Rng placement = control().substream("placement", 0);
  sim::Rng clocks = control().substream("clocks", 0);

  struct NodeDraw {
    mac::Position pos;
    clk::DriftModel drift;
    double offset;
  };
  std::vector<NodeDraw> draws;
  draws.reserve(static_cast<std::size_t>(total));
  std::vector<mac::Position> positions;
  positions.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    const double r =
        scenario_.phy.placement_radius_m * std::sqrt(placement.uniform());
    const double theta = placement.uniform(0.0, 2.0 * M_PI);
    const mac::Position pos{r * std::cos(theta), r * std::sin(theta)};
    auto drift = clk::DriftModel::uniform(clocks, scenario_.max_drift_ppm);
    const double offset = clocks.uniform(-scenario_.initial_offset_us,
                                         scenario_.initial_offset_us);
    if (has_attacker && static_cast<std::size_t>(i) == attacker_index_) {
      const double factor = attack::adversary_drift_factor(scenario_.attack);
      if (!std::isnan(factor)) {
        drift = clk::DriftModel::from_ppm(factor * scenario_.max_drift_ppm);
      }
    }
    draws.push_back(NodeDraw{pos, drift, offset});
    positions.push_back(pos);
  }

  world_->partition(positions);
  const int shards = exec_.shard_count();

  const bool is_sstsp = scenario_.protocol == ProtocolKind::kSstsp;
  directories_.clear();
  for (int s = 0; s < shards; ++s) {
    directories_.push_back(std::make_unique<core::KeyDirectory>());
  }
  if (is_sstsp) {
    // A shard verifies only frames its stations can hear, so each node's
    // chain goes into exactly the directories of its announce fan-out set
    // (all shards in the single-hop configuration) — memory stays linear
    // in the shard's audible population, not the whole deployment.
    std::vector<int> audible;
    for (int i = 0; i < total; ++i) {
      const auto id = static_cast<mac::NodeId>(i);
      const crypto::ChainParams params{
          crypto::derive_seed(scenario_.seed, id),
          scenario_.sstsp.chain_length};
      world_->audible_shards(positions[static_cast<std::size_t>(i)].x_m,
                             audible);
      for (const int s : audible) {
        directories_[static_cast<std::size_t>(s)]->register_node(id, params);
      }
    }
  }

  for (int s = 0; s < shards; ++s) {
    shard_observers_[static_cast<std::size_t>(s)]->attach_shard(
        exec_.shard(s), world_->channel(s));
  }

  for (int i = 0; i < total; ++i) {
    const auto id = static_cast<mac::NodeId>(i);
    const auto shard =
        static_cast<std::size_t>(world_->shard_of(static_cast<std::size_t>(i)));
    const NodeDraw& d = draws[static_cast<std::size_t>(i)];
    auto station = std::make_unique<proto::Station>(
        exec_.shard(static_cast<int>(shard)), world_->channel(static_cast<int>(shard)),
        id, clk::HardwareClock(d.drift, d.offset), d.pos);

    const bool is_attacker =
        has_attacker && static_cast<std::size_t>(i) == attacker_index_;
    core::KeyDirectory& directory = *directories_[shard];
    std::unique_ptr<proto::SyncProtocol> proto;
    if (is_attacker) {
      std::optional<obs::json::Value> params;
      if (!scenario_.attack_params_json.empty()) {
        params = obs::json::parse(scenario_.attack_params_json);
        if (!params) {
          throw std::runtime_error("invalid attack params JSON: " +
                                   scenario_.attack_params_json);
        }
      }
      attack::AdversaryContext ctx{*station,
                                   directory,
                                   scenario_.sstsp,
                                   scenario_.tsf_attack,
                                   scenario_.sstsp_attack,
                                   params ? &*params : nullptr};
      proto = attack::make_adversary(scenario_.attack, ctx);
      if (proto == nullptr) {
        throw std::runtime_error("unknown adversary: " + scenario_.attack);
      }
    } else {
      switch (scenario_.protocol) {
        case ProtocolKind::kTsf:
          proto = std::make_unique<proto::Tsf>(*station);
          break;
        case ProtocolKind::kAtsp:
          proto = std::make_unique<proto::Atsp>(*station, scenario_.atsp);
          break;
        case ProtocolKind::kTatsp:
          proto = std::make_unique<proto::Tatsp>(*station, scenario_.tatsp);
          break;
        case ProtocolKind::kSatsf:
          proto = std::make_unique<proto::Satsf>(*station, scenario_.satsf);
          break;
        case ProtocolKind::kRentelKunz:
          proto = std::make_unique<proto::RentelKunz>(*station,
                                                      scenario_.rentel_kunz);
          break;
        case ProtocolKind::kSstsp: {
          core::Sstsp::Options opts;
          opts.calibrated_boot = true;
          opts.start_as_reference =
              scenario_.preestablished_reference && i == 0;
          proto = std::make_unique<core::Sstsp>(*station, scenario_.sstsp,
                                                directory, opts);
          break;
        }
      }
    }
    station->set_protocol(std::move(proto));
    station->set_observers(shard_observers_[shard]->for_stations());
    stations_.push_back(std::move(station));
  }
}

void ParallelNetwork::arm() {
  if (armed_) return;
  armed_ = true;
  for (auto& st : stations_) st->power_on();
  schedule_environment();
  schedule_sampling();
}

void ParallelNetwork::schedule_environment() {
  // Identical schedule and substream keying to Network (the control
  // simulator shares the scenario seed, so substream("churn", k) yields
  // the same leaver picks).
  if (scenario_.churn) {
    const ChurnSpec churn = *scenario_.churn;
    std::uint64_t churn_index = 0;
    for (double t = churn.period_s; t < scenario_.duration_s;
         t += churn.period_s) {
      const std::uint64_t event_index = churn_index++;
      control().at(
          sim::SimTime::from_sec_double(t), [this, churn, event_index] {
            sim::Rng pick = control().substream("churn", event_index);
            const auto ref = current_reference_index();
            const auto honest_count =
                std::min(stations_.size(), attacker_index_);
            const auto leavers = static_cast<std::size_t>(std::lround(
                churn.fraction * static_cast<double>(honest_count)));
            std::size_t left = 0;
            std::size_t guardrail = 0;
            while (left < leavers && guardrail++ < honest_count * 20) {
              const auto idx = static_cast<std::size_t>(
                  pick.uniform_int(0, honest_count - 1));
              if (!stations_[idx]->awake()) continue;
              if (ref && *ref == idx) continue;
              stations_[idx]->power_off();
              control().after(
                  sim::SimTime::from_sec_double(churn.absence_s),
                  [this, idx] { stations_[idx]->power_on(); });
              ++left;
            }
          });
    }
  }

  for (const double t : scenario_.reference_departures_s) {
    control().at(sim::SimTime::from_sec_double(t), [this] {
      const auto ref = current_reference_index();
      if (!ref) return;
      const std::size_t idx = *ref;
      stations_[idx]->power_off();
      control().after(
          sim::SimTime::from_sec_double(scenario_.departure_absence_s),
          [this, idx] { stations_[idx]->power_on(); });
    });
  }

  // Oscillator stressors: identical substream keying to Network so both
  // kernels drive the same per-node frequency walk.
  if (scenario_.clock_stress.enabled()) {
    const auto honest_count = std::min(stations_.size(), attacker_index_);
    stressors_.reserve(honest_count);
    for (std::size_t i = 0; i < honest_count; ++i) {
      stressors_.emplace_back(scenario_.clock_stress,
                              control().substream("clock-stress", i));
    }
    control().at(
        sim::SimTime::from_sec_double(scenario_.clock_stress.period_s),
        [this] { clock_stress_tick(); });
  }
}

void ParallelNetwork::clock_stress_tick() {
  const double dt_s = scenario_.clock_stress.period_s;
  const double t_s = control().now().to_sec();
  for (std::size_t i = 0; i < stressors_.size(); ++i) {
    const double delta = stressors_[i].step_delta_ppm(t_s, dt_s);
    if (delta != 0.0) stations_[i]->inject_clock_fault(0.0, delta);
  }
  const auto period = sim::SimTime::from_sec_double(dt_s);
  if (control().now() + period <=
      sim::SimTime::from_sec_double(scenario_.duration_s)) {
    control().after(period, [this] { clock_stress_tick(); });
  }
}

void ParallelNetwork::schedule_sampling() {
  control().at(sim::SimTime::from_sec_double(scenario_.sample_period_s),
               [this] { sampling_tick(); });
}

void ParallelNetwork::sampling_tick() {
  sample_clock_spread();
  const auto period = sim::SimTime::from_sec_double(scenario_.sample_period_s);
  if (control().now() + period <=
      sim::SimTime::from_sec_double(scenario_.duration_s)) {
    control().after(period, [this] { sampling_tick(); });
  }
}

void ParallelNetwork::sample_clock_spread() {
  sample_values_.clear();
  // The executor advanced every shard clock to this control instant, so a
  // protocol's network_time_us reads a consistent now() on its own shard.
  const sim::SimTime now = control().now();
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (i == attacker_index_) continue;  // honest clocks only
    const proto::Station& st = *stations_[i];
    if (!st.awake() || !st.protocol().is_synchronized()) continue;
    sample_values_.push_back(st.protocol().network_time_us(now));
  }
  if (sample_values_.empty()) return;
  double lo = sample_values_.front();
  double hi = lo;
  double sum = 0.0;
  for (const double v : sample_values_) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    sum += v;
  }
  const double diff = hi - lo;
  max_diff_.push(now.to_sec(), diff);
  control_observers_->on_spread_sample(
      now, sample_values_, diff,
      sum / static_cast<double>(sample_values_.size()));
}

std::optional<std::size_t> ParallelNetwork::current_reference_index() const {
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (i == attacker_index_) continue;
    if (stations_[i]->awake() && stations_[i]->protocol().is_reference()) {
      return i;
    }
  }
  return std::nullopt;
}

void ParallelNetwork::run() {
  arm();
  exec_.run(
      sim::SimTime::from_sec_double(scenario_.duration_s),
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
  if (scenario_.profile) publish_shard_metrics();
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

proto::ProtocolStats ParallelNetwork::honest_stats() const {
  proto::ProtocolStats agg;
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (i == attacker_index_) continue;
    agg += stations_[i]->protocol().stats();
  }
  return agg;
}

const proto::ProtocolStats* ParallelNetwork::attacker_stats() const {
  if (attacker_index_ >= stations_.size()) return nullptr;
  return &stations_[attacker_index_]->protocol().stats();
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
      std::make_unique<trace::EventTrace>(scenario_.trace_capacity);
  for (const auto& e : all) merged->record(e);
  return merged;
}

RunResult collect_result(ParallelNetwork& net, double wall_seconds) {
  const Scenario& scenario = net.scenario();
  RunResult result;
  result.max_diff = net.max_diff_series();
  result.channel = net.channel_stats();
  result.honest = net.honest_stats();
  if (const auto* atk = net.attacker_stats()) result.attacker = *atk;
  result.metrics = net.metrics_snapshot();
  result.events_processed = net.events_processed();
  result.wall_seconds = wall_seconds;
  if (scenario.profile) {
    result.profile = net.profile_snapshot(wall_seconds);
  }
  derive_series_stats(result, scenario.duration_s);
  return result;
}

RunResult run_parallel_scenario(const Scenario& scenario) {
  ParallelNetwork net(scenario);
  const auto wall_start = std::chrono::steady_clock::now();
  net.run();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return collect_result(net, wall_seconds);
}

}  // namespace sstsp::run

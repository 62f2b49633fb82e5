#include "runner/deployment.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "attack/adversary.h"
#include "cluster/sstsp_cluster.h"
#include "core/sstsp.h"
#include "protocols/tsf_family.h"

namespace sstsp::run {

namespace {

/// Sync latency, steady max and steady p99 of result.max_diff over
/// [0, duration_s].
void derive_series_stats(RunResult& result, double duration_s) {
  result.sync_latency_s =
      result.max_diff.first_sustained_below(kSyncThresholdUs, 1.0);
  const double steady_from =
      std::max(20.0, result.sync_latency_s.value_or(0.0) + 5.0);
  result.steady_max_us = result.max_diff.max_in(steady_from, duration_s);
  result.steady_p99_us =
      result.max_diff.quantile_in(0.99, steady_from, duration_s);
}

/// The scenario's adversary build step.  Throws std::runtime_error on
/// attack params without an attack, an unknown adversary or params it does
/// not read — CLI and config validation reject these first, but a
/// programmatic Scenario must fail loudly, not run with them ignored.
attack::AdversaryBuild configure_attack(const Scenario& scenario) {
  if (scenario.attack.empty()) {
    if (!scenario.attack_params_json.empty()) {
      throw std::runtime_error("attack params without an attack: " +
                               scenario.attack_params_json);
    }
    return {};
  }
  std::string error;
  auto build = attack::configure_adversary(
      scenario.attack, scenario.attack_params_json,
      {scenario.tsf_attack, scenario.sstsp_attack}, &error);
  if (!build) throw std::runtime_error(error);
  return build;
}

}  // namespace

Deployment::Deployment(const Scenario& scenario, sim::Simulator& timeline,
                       const obs::Observers& observers)
    : scenario_(scenario),
      timeline_(timeline),
      observers_(observers),
      attacker_index_(static_cast<std::size_t>(scenario.num_nodes)) {}

void Deployment::validate(const Scenario& scenario) {
  (void)configure_attack(scenario);
  if (!scenario.cluster.enabled()) return;
  const auto& c = scenario.cluster;
  if (scenario.protocol != ProtocolKind::kSstsp) {
    throw std::runtime_error("cluster scenarios require the SSTSP protocol");
  }
  if (!scenario.attack.empty()) {
    throw std::runtime_error(
        "cluster scenarios do not support attacker stations");
  }
  if (scenario.num_nodes != c.total_nodes()) {
    throw std::runtime_error(
        "cluster scenarios require num_nodes == clusters * "
        "nodes_per_cluster");
  }
  if (c.gateways < 1 || c.gateways >= c.nodes_per_cluster) {
    throw std::runtime_error(
        "cluster scenarios need 1 <= gateways < nodes_per_cluster");
  }
  // The geometry contract (cluster/cluster_config.h): members hear their
  // reference, gateways hear both clusters, and bridge announcements of
  // cluster c reach the gateways of c+1.
  const double range = scenario.phy.radio_range_m;
  if (range > 0.0 &&
      (2.0 * c.radius_m > range || c.spacing_m / 2.0 + c.radius_m > range ||
       c.spacing_m > range)) {
    throw std::runtime_error(
        "cluster geometry violates the radio-range contract "
        "(need 2*radius, spacing/2 + radius and spacing <= range)");
  }
}

std::vector<Deployment::NodeDraw> Deployment::draw_nodes() const {
  const std::size_t total =
      attacker_index_ + (scenario_.attack.empty() ? 0 : 1);
  sim::Rng placement = timeline_.substream("placement", 0);
  sim::Rng clocks = timeline_.substream("clocks", 0);
  const auto& spec = scenario_.cluster;

  std::vector<NodeDraw> draws;
  draws.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const auto id = static_cast<mac::NodeId>(i);
    mac::Position pos;
    if (spec.enabled() && cluster::is_gateway(spec, id)) {
      // Deterministic (no placement draw): gateways must sit where both
      // clusters are in range, not wherever the disc sampler lands.
      pos = cluster::gateway_position(spec, id);
    } else {
      // Uniform position in the deployment disc, or in the node's cluster.
      const double radius =
          spec.enabled() ? spec.radius_m : scenario_.phy.placement_radius_m;
      const double r = radius * std::sqrt(placement.uniform());
      const double theta = placement.uniform(0.0, 2.0 * M_PI);
      pos = {r * std::cos(theta), r * std::sin(theta)};
      if (spec.enabled()) {
        const mac::Position center =
            cluster::cluster_center(spec, cluster::cluster_of(spec, id));
        pos.x_m += center.x_m;
        pos.y_m += center.y_m;
      }
    }

    auto drift = clk::DriftModel::uniform(clocks, scenario_.max_drift_ppm);
    const double offset = clocks.uniform(-scenario_.initial_offset_us,
                                         scenario_.initial_offset_us);
    if (i == attacker_index_) {
      // Some adversaries bring deliberately tuned oscillator hardware
      // (e.g. the TSF attacker's fast clock that wins every contention,
      // §5); the registry publishes the factor, NaN = honest draw.
      const double factor = attack::adversary_drift_factor(scenario_.attack);
      if (!std::isnan(factor)) {
        drift = clk::DriftModel::from_ppm(factor * scenario_.max_drift_ppm);
      }
    }
    draws.push_back(NodeDraw{pos, drift, offset});
  }
  return draws;
}

crypto::ChainParams Deployment::chain_params(mac::NodeId id) const {
  return crypto::ChainParams{crypto::derive_seed(scenario_.seed, id),
                             scenario_.sstsp.chain_length};
}

std::unique_ptr<proto::SyncProtocol> Deployment::make_protocol(
    std::size_t i, core::KeyDirectory& directory) {
  proto::Station& st = *stations_[i];
  if (i == attacker_index_) {
    return configure_attack(scenario_)({st, directory, scenario_.sstsp});
  }
  switch (scenario_.protocol) {
    case ProtocolKind::kTsf:
      return std::make_unique<proto::Tsf>(st);
    case ProtocolKind::kAtsp:
      return std::make_unique<proto::Atsp>(st, scenario_.atsp);
    case ProtocolKind::kTatsp:
      return std::make_unique<proto::Tatsp>(st, scenario_.tatsp);
    case ProtocolKind::kSatsf:
      return std::make_unique<proto::Satsf>(st, scenario_.satsf);
    case ProtocolKind::kRentelKunz:
      return std::make_unique<proto::RentelKunz>(st, scenario_.rentel_kunz);
    case ProtocolKind::kSstsp:
      break;
  }
  if (scenario_.cluster.enabled()) {
    const auto& spec = scenario_.cluster;
    const auto cid = static_cast<mac::NodeId>(i);
    cluster::ClusterSstsp::Options copts;
    copts.spec = spec;
    copts.cluster = cluster::cluster_of(spec, cid);
    copts.gateway = cluster::is_gateway(spec, cid);
    // Preestablished references: the first non-gateway member of every
    // cluster (gateways must stay followers — their chain is spent on the
    // bridge, and a reference cannot also be passive uplink prey to guard
    // resets).
    copts.start_as_reference =
        scenario_.preestablished_reference &&
        cluster::member_index(spec, cid) ==
            (copts.cluster == 0 ? 0 : spec.gateways);
    return std::make_unique<cluster::ClusterSstsp>(st, scenario_.sstsp,
                                                   directory, copts);
  }
  core::Sstsp::Options opts;
  opts.calibrated_boot = true;
  opts.start_as_reference = scenario_.preestablished_reference && i == 0;
  return std::make_unique<core::Sstsp>(st, scenario_.sstsp, directory, opts);
}

void Deployment::arm() {
  if (armed_) return;
  armed_ = true;
  for (proto::Station* st : stations_) st->power_on();
  schedule_environment();
  schedule_faults();
  // Each sample schedules the next, re-armed through `this`.
  timeline_.at(sim::SimTime::from_sec_double(scenario_.sample_period_s),
               [this] { sampling_tick(); });
}

void Deployment::schedule_faults() {
  // A no-op without a fault plan, and so on the sharded kernel, whose
  // control bundle has no injector.
  fault::FaultHooks hooks;
  hooks.current_reference = [this]() -> std::optional<mac::NodeId> {
    const auto idx = current_reference_index();
    if (!idx) return std::nullopt;
    // Station indices double as node ids in every host.
    return static_cast<mac::NodeId>(*idx);
  };
  hooks.set_power = [this](mac::NodeId id, bool powered) {
    const auto idx = static_cast<std::size_t>(id);
    if (idx >= stations_.size() || idx == attacker_index_) return;
    if (planned_down_.empty()) planned_down_.resize(stations_.size());
    planned_down_[idx] = !powered;
    if (powered) {
      stations_[idx]->power_on();
    } else {
      stations_[idx]->power_off();
    }
  };
  hooks.clock_fault = [this](mac::NodeId id, double step_us,
                             double drift_delta_ppm) {
    const auto idx = static_cast<std::size_t>(id);
    if (idx >= stations_.size()) return;
    stations_[idx]->inject_clock_fault(step_us, drift_delta_ppm);
  };
  observers_.schedule_faults(timeline_, scenario_.duration_s,
                             std::move(hooks));
}

void Deployment::schedule_environment() {
  // Churn: `fraction` of the honest, non-reference stations leave at each
  // multiple of period_s and return absence_s later.
  if (scenario_.churn) {
    const ChurnSpec churn = *scenario_.churn;
    std::uint64_t churn_index = 0;
    for (double t = churn.period_s; t < scenario_.duration_s;
         t += churn.period_s) {
      // Substreams are keyed by the churn-event index, not the (truncated)
      // event time: churn events less than 1 s apart would otherwise reuse
      // the same substream and pick identical leaver sets.
      const std::uint64_t event_index = churn_index++;
      timeline_.at(sim::SimTime::from_sec_double(t), [this, churn,
                                                     event_index] {
        sim::Rng pick = timeline_.substream("churn", event_index);
        const auto ref = current_reference_index();
        const auto honest_count = std::min(stations_.size(), attacker_index_);
        const auto leavers = static_cast<std::size_t>(
            std::lround(churn.fraction * static_cast<double>(honest_count)));
        std::size_t left = 0;
        std::size_t guardrail = 0;
        while (left < leavers && guardrail++ < honest_count * 20) {
          const auto idx = static_cast<std::size_t>(
              pick.uniform_int(0, honest_count - 1));
          if (!stations_[idx]->awake()) continue;
          if (ref && *ref == idx) continue;  // ref departures are separate
          stations_[idx]->power_off();
          timeline_.after(sim::SimTime::from_sec_double(churn.absence_s),
                          [this, idx] { stations_[idx]->power_on(); });
          ++left;
        }
      });
    }
  }

  // Reference departures (SSTSP experiments).
  for (const double t : scenario_.reference_departures_s) {
    timeline_.at(sim::SimTime::from_sec_double(t), [this] {
      const auto ref = current_reference_index();
      if (!ref) return;
      const std::size_t idx = *ref;
      stations_[idx]->power_off();
      timeline_.after(
          sim::SimTime::from_sec_double(scenario_.departure_absence_s),
          [this, idx] { stations_[idx]->power_on(); });
    });
  }

  schedule_clock_stress();
}

void Deployment::schedule_clock_stress() {
  // Oscillator stressors (clock/drift_model.h): periodic per-honest-node
  // frequency deltas via inject_clock_fault, so phase stays continuous.
  if (!scenario_.clock_stress.enabled()) return;
  const auto honest_count = std::min(stations_.size(), attacker_index_);
  stressors_.reserve(honest_count);
  for (std::size_t i = 0; i < honest_count; ++i) {
    stressors_.emplace_back(scenario_.clock_stress,
                            timeline_.substream("clock-stress", i));
  }
  timeline_.at(sim::SimTime::from_sec_double(scenario_.clock_stress.period_s),
               [this] { clock_stress_tick(); });
}

void Deployment::clock_stress_tick() {
  const double dt_s = scenario_.clock_stress.period_s;
  const double t_s = timeline_.now().to_sec();
  for (std::size_t i = 0; i < stressors_.size(); ++i) {
    const double delta = stressors_[i].step_delta_ppm(t_s, dt_s);
    if (delta != 0.0) stations_[i]->inject_clock_fault(0.0, delta);
  }
  const auto period = sim::SimTime::from_sec_double(dt_s);
  if (timeline_.now() + period <=
      sim::SimTime::from_sec_double(scenario_.duration_s)) {
    timeline_.after(period, [this] { clock_stress_tick(); });
  }
}

void Deployment::sampling_tick() {
  sample_clock_spread();
  const auto period = sim::SimTime::from_sec_double(scenario_.sample_period_s);
  if (timeline_.now() + period <=
      sim::SimTime::from_sec_double(scenario_.duration_s)) {
    timeline_.after(period, [this] { sampling_tick(); });
  }
}

void Deployment::read_synced_clocks(sim::SimTime now,
                                    std::vector<double>& out) const {
  out.clear();
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (i == attacker_index_) continue;  // honest clocks only
    const proto::Station& st = *stations_[i];
    if (!st.awake() || !st.protocol().is_synchronized()) continue;
    out.push_back(st.protocol().network_time_us(now));
  }
}

void Deployment::sample_clock_spread() {
  // On the sharded kernel the executor advanced every shard clock to this
  // control instant, so network_time_us reads a consistent now().
  const sim::SimTime now = timeline_.now();
  read_synced_clocks(now, sample_values_);
  const bool have = !sample_values_.empty();
  double lo = 0.0;
  double hi = 0.0;
  double sum = 0.0;
  if (have) {
    const auto [min, max] =
        std::minmax_element(sample_values_.begin(), sample_values_.end());
    lo = *min;
    hi = *max;
    sum = std::accumulate(sample_values_.begin(), sample_values_.end(), 0.0);
    const double diff = hi - lo;
    max_diff_.push(now.to_sec(), diff);
    observers_.on_spread_sample(
        now, sample_values_, diff,
        sum / static_cast<double>(sample_values_.size()));
  }
  if (scenario_.cluster.enabled()) sample_cluster(now);
  // Telemetry rides the same tick — no extra events, so a seeded run's
  // event/RNG sequence is identical with telemetry on or off.
  if (observers_.telemetry_due(now.to_sec())) {
    emit_telemetry(now, have, lo, hi, sum);
  }
  observers_.poll_dump_request(now.to_sec());
}

void Deployment::sample_cluster(sim::SimTime now) {
  const auto& spec = scenario_.cluster;
  cluster_sum_.assign(static_cast<std::size_t>(spec.clusters), 0.0);
  cluster_n_.assign(static_cast<std::size_t>(spec.clusters), 0);
  int awake = 0;
  int attached = 0;
  for (const proto::Station* station : stations_) {
    const proto::Station& st = *station;
    if (!st.awake()) continue;
    ++awake;
    // Cluster scenarios reject attackers and run ClusterSstsp on every
    // station, so the downcast is total.
    const auto& cs = static_cast<const cluster::ClusterSstsp&>(st.protocol());
    if (!cs.is_synchronized()) continue;
    ++attached;
    const auto c = static_cast<std::size_t>(cs.cluster());
    cluster_sum_[c] += cs.network_time_us(now);
    ++cluster_n_[c];
  }
  bool have = false;
  double lo = 0.0;
  double hi = 0.0;
  for (std::size_t c = 0; c < cluster_sum_.size(); ++c) {
    if (cluster_n_[c] == 0) continue;
    const double mean = cluster_sum_[c] / static_cast<double>(cluster_n_[c]);
    if (!have) {
      lo = hi = mean;
      have = true;
    } else {
      lo = std::min(lo, mean);
      hi = std::max(hi, mean);
    }
  }
  std::optional<double> spread;
  if (have) {
    spread = hi - lo;
    cluster_spread_.push(now.to_sec(), *spread);
  }
  const double fraction =
      awake > 0 ? static_cast<double>(attached) / static_cast<double>(awake)
                : 0.0;
  attach_fraction_.push(now.to_sec(), fraction);
  observers_.on_cluster_sample(now, spread, fraction);
}

void Deployment::emit_telemetry(sim::SimTime now, bool have, double lo,
                                double hi, double sum) {
  obs::TelemetrySample s;
  s.nodes_total = scenario_.num_nodes;
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (i != attacker_index_ && stations_[i]->awake()) ++s.nodes_awake;
  }
  s.nodes_synced = static_cast<int>(sample_values_.size());
  const auto ref = current_reference_index();
  if (ref) s.reference = static_cast<std::int64_t>(*ref);
  const auto count = sample_values_.size();
  const double mean = have ? sum / static_cast<double>(count) : 0.0;
  if (count >= 2) {
    s.max_offset_us = hi - lo;
    double abs_dev = 0.0;
    for (const double v : sample_values_) abs_dev += std::fabs(v - mean);
    s.mean_offset_us = abs_dev / static_cast<double>(count);
  }
  const bool per_node =
      scenario_.telemetry_per_node > 0 ||
      (scenario_.telemetry_per_node < 0 && scenario_.num_nodes <= 64);
  if (per_node && have) {
    for (std::size_t i = 0; i < stations_.size(); ++i) {
      if (i == attacker_index_) continue;
      const proto::Station& st = *stations_[i];
      obs::TelemetrySample::NodeError e;
      e.node = static_cast<std::int64_t>(st.id());
      e.synced = st.awake() && st.protocol().is_synchronized();
      if (e.synced) e.err_us = st.protocol().network_time_us(now) - mean;
      s.node_errors.push_back(e);
    }
  }
  observers_.emit_telemetry(now.to_sec(), std::move(s), honest_stats(),
                            timeline_);
}

std::optional<std::size_t> Deployment::current_reference_index() const {
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (i == attacker_index_) continue;
    if (stations_[i]->awake() && stations_[i]->protocol().is_reference()) {
      // Cluster runs elect one reference per cluster; "the" reference —
      // the one fault plans and departures target — is the root cluster's
      // (the network timescale's origin).
      if (scenario_.cluster.enabled() &&
          cluster::cluster_of(scenario_.cluster,
                              static_cast<mac::NodeId>(i)) != 0) {
        continue;
      }
      return i;
    }
  }
  return std::nullopt;
}

std::optional<double> Deployment::instant_max_diff_us() const {
  std::vector<double> values;
  read_synced_clocks(timeline_.now(), values);
  if (values.empty()) return std::nullopt;
  const auto [min, max] = std::minmax_element(values.begin(), values.end());
  return *max - *min;
}

proto::ProtocolStats Deployment::honest_stats() const {
  proto::ProtocolStats agg;
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (i == attacker_index_) continue;
    agg += stations_[i]->protocol().stats();
  }
  return agg;
}

RunResult Deployment::result() const {
  RunResult result;
  result.max_diff = max_diff_;
  result.honest = honest_stats();
  if (attacker_index_ < stations_.size()) {
    result.attacker = stations_[attacker_index_]->protocol().stats();
  }
  if (scenario_.cluster.enabled()) {
    result.cluster_spread = cluster_spread_;
    result.attach_fraction = attach_fraction_;
    // Same steady window as derive_series_stats, but against the widened
    // cluster threshold (global spread carries the translation error).
    const double threshold =
        kSyncThresholdUs + scenario_.cluster.cross_cluster_bound_us();
    const auto latency = result.max_diff.first_sustained_below(threshold, 1.0);
    const double steady_from = std::max(20.0, latency.value_or(0.0) + 5.0);
    result.cluster_steady_max_us =
        result.cluster_spread.max_in(steady_from, scenario_.duration_s);
  }
  derive_series_stats(result, scenario_.duration_s);
  return result;
}

}  // namespace sstsp::run

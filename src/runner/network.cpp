#include "runner/network.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "attack/adversary.h"
#include "cluster/sstsp_cluster.h"
#include "core/sstsp.h"
#include "crypto/hash_chain.h"
#include "obs/json.h"
#include "protocols/tsf_family.h"

namespace sstsp::run {

Network::Network(const Scenario& scenario)
    : scenario_(scenario),
      sim_(scenario.seed),
      channel_(sim_, scenario.phy),
      attacker_index_(0) {
  if (scenario_.cluster.enabled()) {
    const auto& c = scenario_.cluster;
    if (scenario_.protocol != ProtocolKind::kSstsp) {
      throw std::runtime_error("cluster scenarios require the SSTSP protocol");
    }
    if (!scenario_.attack.empty()) {
      throw std::runtime_error(
          "cluster scenarios do not support attacker stations");
    }
    if (scenario_.num_nodes != c.total_nodes()) {
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
    const double range = scenario_.phy.radio_range_m;
    if (range > 0.0 &&
        (2.0 * c.radius_m > range || c.spacing_m / 2.0 + c.radius_m > range ||
         c.spacing_m > range)) {
      throw std::runtime_error(
          "cluster geometry violates the radio-range contract "
          "(need 2*radius, spacing/2 + radius and spacing <= range)");
    }
  }
  obs::ObservedRun run;
  run.sstsp_checks = scenario_.protocol == ProtocolKind::kSstsp;
  run.sstsp = scenario_.sstsp;
  run.beacon_period_us = scenario_.phy.beacon_period.to_us();
  run.cluster = scenario_.cluster;
  run.faults = scenario_.faults;
  observers_ = std::make_unique<obs::Observers>(scenario_, run, sim_);
  observers_->attach(sim_, channel_);
  channel_.set_fault_injector(observers_->injector());
  build_stations();
}

void Network::build_stations() {
  const int n = scenario_.num_nodes;
  const bool has_attacker = !scenario_.attack.empty();
  const int total = n + (has_attacker ? 1 : 0);
  attacker_index_ = has_attacker ? static_cast<std::size_t>(n)
                                 : static_cast<std::size_t>(total);

  sim::Rng placement = sim_.substream("placement", 0);
  sim::Rng clocks = sim_.substream("clocks", 0);

  const bool is_sstsp = scenario_.protocol == ProtocolKind::kSstsp;

  const bool cluster_mode = scenario_.cluster.enabled();
  for (int i = 0; i < total; ++i) {
    mac::Position pos;
    if (cluster_mode) {
      const auto cid = static_cast<mac::NodeId>(i);
      if (cluster::is_gateway(scenario_.cluster, cid)) {
        // Deterministic (no placement draw): gateways must sit where both
        // clusters are in range, not wherever the disc sampler lands.
        pos = cluster::gateway_position(scenario_.cluster, cid);
      } else {
        const double r =
            scenario_.cluster.radius_m * std::sqrt(placement.uniform());
        const double theta = placement.uniform(0.0, 2.0 * M_PI);
        const mac::Position center = cluster::cluster_center(
            scenario_.cluster, cluster::cluster_of(scenario_.cluster, cid));
        pos = {center.x_m + r * std::cos(theta),
               center.y_m + r * std::sin(theta)};
      }
    } else {
      // Uniform position in the deployment disc.
      const double r =
          scenario_.phy.placement_radius_m * std::sqrt(placement.uniform());
      const double theta = placement.uniform(0.0, 2.0 * M_PI);
      pos = {r * std::cos(theta), r * std::sin(theta)};
    }

    auto drift = clk::DriftModel::uniform(clocks, scenario_.max_drift_ppm);
    const double offset = clocks.uniform(-scenario_.initial_offset_us,
                                         scenario_.initial_offset_us);
    const auto id = static_cast<mac::NodeId>(i);
    if (has_attacker && static_cast<std::size_t>(i) == attacker_index_) {
      // Some adversaries bring deliberately tuned oscillator hardware
      // (e.g. the TSF attacker's fast clock that wins every contention,
      // §5); the registry publishes the factor, NaN = honest draw.
      const double factor =
          attack::adversary_drift_factor(scenario_.attack);
      if (!std::isnan(factor)) {
        drift = clk::DriftModel::from_ppm(factor * scenario_.max_drift_ppm);
      }
    }

    auto station = std::make_unique<proto::Station>(
        sim_, channel_, id, clk::HardwareClock(drift, offset), pos);

    if (is_sstsp) {
      // Every node (including the internal attacker) owns a published
      // chain; see core/key_directory.h for the trust-bootstrap model.
      directory_.register_node(
          id, crypto::ChainParams{crypto::derive_seed(scenario_.seed, id),
                                  scenario_.sstsp.chain_length});
    }
    stations_.push_back(std::move(station));
  }

  for (int i = 0; i < total; ++i) {
    proto::Station& st = *stations_[static_cast<std::size_t>(i)];
    const bool is_attacker =
        has_attacker && static_cast<std::size_t>(i) == attacker_index_;

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
      attack::AdversaryContext ctx{st,
                                   directory_,
                                   scenario_.sstsp,
                                   scenario_.tsf_attack,
                                   scenario_.sstsp_attack,
                                   params ? &*params : nullptr};
      proto = attack::make_adversary(scenario_.attack, ctx);
      if (proto == nullptr) {
        // CLI / config validation rejects unknown names before we get
        // here; a programmatic Scenario with a typo'd name should fail
        // loudly, not run attacker-less.
        throw std::runtime_error("unknown adversary: " + scenario_.attack);
      }
    } else {
      switch (scenario_.protocol) {
        case ProtocolKind::kTsf:
          proto = std::make_unique<proto::Tsf>(st);
          break;
        case ProtocolKind::kAtsp:
          proto = std::make_unique<proto::Atsp>(st, scenario_.atsp);
          break;
        case ProtocolKind::kTatsp:
          proto = std::make_unique<proto::Tatsp>(st, scenario_.tatsp);
          break;
        case ProtocolKind::kSatsf:
          proto = std::make_unique<proto::Satsf>(st, scenario_.satsf);
          break;
        case ProtocolKind::kRentelKunz:
          proto = std::make_unique<proto::RentelKunz>(st,
                                                      scenario_.rentel_kunz);
          break;
        case ProtocolKind::kSstsp: {
          if (scenario_.cluster.enabled()) {
            const auto& spec = scenario_.cluster;
            const auto cid = static_cast<mac::NodeId>(i);
            cluster::ClusterSstsp::Options copts;
            copts.spec = spec;
            copts.cluster = cluster::cluster_of(spec, cid);
            copts.gateway = cluster::is_gateway(spec, cid);
            // Preestablished references: the first non-gateway member of
            // every cluster (gateways must stay followers — their chain is
            // spent on the bridge, and a reference cannot also be passive
            // uplink prey to guard resets).
            copts.start_as_reference =
                scenario_.preestablished_reference &&
                cluster::member_index(spec, cid) ==
                    (copts.cluster == 0 ? 0 : spec.gateways);
            proto = std::make_unique<cluster::ClusterSstsp>(
                st, scenario_.sstsp, directory_, copts);
            break;
          }
          core::Sstsp::Options opts;
          opts.calibrated_boot = true;
          opts.start_as_reference =
              scenario_.preestablished_reference && i == 0;
          proto = std::make_unique<core::Sstsp>(st, scenario_.sstsp,
                                                directory_, opts);
          break;
        }
      }
    }
    st.set_protocol(std::move(proto));
  }

  for (auto& station : stations_) {
    station->set_observers(observers_->for_stations());
  }
}

void Network::arm() {
  if (armed_) return;
  armed_ = true;
  for (auto& st : stations_) st->power_on();
  schedule_environment();
  schedule_faults();
  schedule_sampling();
}

void Network::schedule_faults() {
  fault::FaultHooks hooks;
  hooks.current_reference = [this]() -> std::optional<mac::NodeId> {
    const auto idx = current_reference_index();
    if (!idx) return std::nullopt;
    // Station channel indices double as node ids in the scenario runner.
    return static_cast<mac::NodeId>(*idx);
  };
  hooks.set_power = [this](mac::NodeId id, bool powered) {
    const auto idx = static_cast<std::size_t>(id);
    if (idx >= stations_.size() || idx == attacker_index_) return;
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
  observers_->schedule_faults(sim_, scenario_.duration_s, std::move(hooks));
}

void Network::schedule_environment() {
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
      sim_.at(sim::SimTime::from_sec_double(t), [this, churn, event_index] {
        sim::Rng pick = sim_.substream("churn", event_index);
        const auto ref = current_reference_index();
        const auto honest_count = std::min(
            stations_.size(), attacker_index_);
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
          sim_.after(sim::SimTime::from_sec_double(churn.absence_s),
                     [this, idx] { stations_[idx]->power_on(); });
          ++left;
        }
      });
    }
  }

  // Reference departures (SSTSP experiments).
  for (const double t : scenario_.reference_departures_s) {
    sim_.at(sim::SimTime::from_sec_double(t), [this] {
      const auto ref = current_reference_index();
      if (!ref) return;
      const std::size_t idx = *ref;
      stations_[idx]->power_off();
      sim_.after(sim::SimTime::from_sec_double(scenario_.departure_absence_s),
                 [this, idx] { stations_[idx]->power_on(); });
    });
  }

  schedule_clock_stress();
}

void Network::schedule_clock_stress() {
  // Oscillator stressors (clock/drift_model.h): periodic per-honest-node
  // frequency deltas via inject_clock_fault, so phase stays continuous.
  if (!scenario_.clock_stress.enabled()) return;
  const auto honest_count = std::min(stations_.size(), attacker_index_);
  stressors_.reserve(honest_count);
  for (std::size_t i = 0; i < honest_count; ++i) {
    stressors_.emplace_back(scenario_.clock_stress,
                            sim_.substream("clock-stress", i));
  }
  sim_.at(sim::SimTime::from_sec_double(scenario_.clock_stress.period_s),
          [this] { clock_stress_tick(); });
}

void Network::clock_stress_tick() {
  const double dt_s = scenario_.clock_stress.period_s;
  const double t_s = sim_.now().to_sec();
  for (std::size_t i = 0; i < stressors_.size(); ++i) {
    const double delta = stressors_[i].step_delta_ppm(t_s, dt_s);
    if (delta != 0.0) stations_[i]->inject_clock_fault(0.0, delta);
  }
  const auto period = sim::SimTime::from_sec_double(dt_s);
  if (sim_.now() + period <=
      sim::SimTime::from_sec_double(scenario_.duration_s)) {
    sim_.after(period, [this] { clock_stress_tick(); });
  }
}

void Network::schedule_sampling() {
  // Each sample schedules the next, re-armed through `this`.
  sim_.at(sim::SimTime::from_sec_double(scenario_.sample_period_s),
          [this] { sampling_tick(); });
}

void Network::sampling_tick() {
  sample_clock_spread();
  const auto period =
      sim::SimTime::from_sec_double(scenario_.sample_period_s);
  if (sim_.now() + period <=
      sim::SimTime::from_sec_double(scenario_.duration_s)) {
    sim_.after(period, [this] { sampling_tick(); });
  }
}

void Network::sample_clock_spread() {
  sample_values_.clear();
  const sim::SimTime now = sim_.now();
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (i == attacker_index_) continue;  // honest clocks only
    const proto::Station& st = *stations_[i];
    if (!st.awake() || !st.protocol().is_synchronized()) continue;
    sample_values_.push_back(st.protocol().network_time_us(now));
  }
  const bool have = !sample_values_.empty();
  double lo = 0.0;
  double hi = 0.0;
  double sum = 0.0;
  if (have) {
    lo = hi = sample_values_.front();
    for (const double v : sample_values_) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      sum += v;
    }
    const double diff = hi - lo;
    max_diff_.push(now.to_sec(), diff);
    observers_->on_spread_sample(
        now, sample_values_, diff,
        sum / static_cast<double>(sample_values_.size()));
  }
  if (scenario_.cluster.enabled()) sample_cluster(now);
  // Telemetry rides the same tick — no extra events, so a seeded run's
  // event/RNG sequence is identical with telemetry on or off.
  if (observers_->telemetry_due(now.to_sec())) {
    emit_telemetry(now, have, lo, hi, sum);
  }
  observers_->poll_dump_request(now.to_sec());
}

void Network::sample_cluster(sim::SimTime now) {
  const auto& spec = scenario_.cluster;
  cluster_sum_.assign(static_cast<std::size_t>(spec.clusters), 0.0);
  cluster_n_.assign(static_cast<std::size_t>(spec.clusters), 0);
  int awake = 0;
  int attached = 0;
  for (const auto& station : stations_) {
    const proto::Station& st = *station;
    if (!st.awake()) continue;
    ++awake;
    // Cluster scenarios reject attackers and run ClusterSstsp on every
    // station, so the downcast is total.
    const auto& cs =
        static_cast<const cluster::ClusterSstsp&>(st.protocol());
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
  observers_->on_cluster_sample(now, spread, fraction);
}

void Network::emit_telemetry(sim::SimTime now, bool have, double lo,
                             double hi, double sum) {
  obs::TelemetrySample s;
  s.nodes_total = scenario_.num_nodes;
  int awake = 0;
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (i == attacker_index_) continue;
    if (stations_[i]->awake()) ++awake;
  }
  s.nodes_awake = awake;
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
  observers_->emit_telemetry(now.to_sec(), std::move(s), honest_stats(), sim_);
}

std::optional<std::size_t> Network::current_reference_index() const {
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

std::optional<double> Network::instant_max_diff_us() const {
  double lo = 0.0;
  double hi = 0.0;
  bool any = false;
  const sim::SimTime now = sim_.now();
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (i == attacker_index_) continue;  // honest clocks only
    const proto::Station& st = *stations_[i];
    if (!st.awake() || !st.protocol().is_synchronized()) continue;
    const double v = st.protocol().network_time_us(now);
    if (!any) {
      lo = hi = v;
      any = true;
    } else {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  if (!any) return std::nullopt;
  return hi - lo;
}

void Network::run() { run_until(scenario_.duration_s); }

void Network::run_until(double horizon_s) {
  arm();
  sim_.run_until(sim::SimTime::from_sec_double(horizon_s));
}

const mac::ChannelStats& Network::channel_stats() const {
  return channel_.stats();
}

proto::ProtocolStats Network::honest_stats() const {
  proto::ProtocolStats agg;
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (i == attacker_index_) continue;
    agg += stations_[i]->protocol().stats();
  }
  return agg;
}

const proto::ProtocolStats* Network::attacker_stats() const {
  if (attacker_index_ >= stations_.size()) return nullptr;
  return &stations_[attacker_index_]->protocol().stats();
}

}  // namespace sstsp::run

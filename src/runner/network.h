// Network: materializes a Scenario into a simulator, channel, stations and
// schedule of environmental events (churn, reference departures, attacks,
// metric sampling), then runs it.
#pragma once

#include <memory>
#include <vector>

#include "clock/drift_model.h"
#include "core/key_directory.h"
#include "metrics/series.h"
#include "obs/observers.h"
#include "protocols/station.h"
#include "runner/scenario.h"

namespace sstsp::run {

class Network {
 public:
  explicit Network(const Scenario& scenario);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Runs the full scenario (power-on through duration_s).
  void run();

  /// Runs up to `horizon_s` only; callable repeatedly (examples use this to
  /// interleave their own probes).
  void run_until(double horizon_s);

  /// Call once before the first run_until(); run() does this itself.
  void arm();

  [[nodiscard]] const metrics::Series& max_diff_series() const {
    return max_diff_;
  }

  /// Cluster runs only (empty otherwise): per-sample inter-cluster spread
  /// (max - min of per-cluster mean global readings, attached nodes only)
  /// and the fraction of awake honest nodes attached to the root timescale.
  [[nodiscard]] const metrics::Series& cluster_spread_series() const {
    return cluster_spread_;
  }
  [[nodiscard]] const metrics::Series& attach_fraction_series() const {
    return attach_fraction_;
  }
  [[nodiscard]] const mac::ChannelStats& channel_stats() const;
  [[nodiscard]] proto::ProtocolStats honest_stats() const;
  [[nodiscard]] const proto::ProtocolStats* attacker_stats() const;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const Scenario& scenario() const { return scenario_; }

  [[nodiscard]] std::size_t station_count() const { return stations_.size(); }
  [[nodiscard]] proto::Station& station(std::size_t i) {
    return *stations_[i];
  }

  /// Index of the station currently holding the reference role (SSTSP),
  /// or nullopt.
  [[nodiscard]] std::optional<std::size_t> current_reference_index() const;

  /// Instantaneous max pairwise difference of the synchronized clocks of
  /// awake, synchronized, honest stations (max - min; O(N)).
  [[nodiscard]] std::optional<double> instant_max_diff_us() const;

  /// The run's observers (obs/observers.h), built from the scenario's
  /// ObserverConfig.  The constructor throws std::runtime_error when the
  /// telemetry or flight-recorder path cannot be opened.
  [[nodiscard]] obs::Observers& observers() { return *observers_; }
  [[nodiscard]] const obs::Observers& observers() const { return *observers_; }
  /// The shared protocol-event trace; nullptr unless
  /// Scenario::trace_capacity > 0.
  [[nodiscard]] trace::EventTrace* trace() { return observers_->trace(); }

 private:
  void build_stations();
  void schedule_environment();
  void schedule_clock_stress();
  void clock_stress_tick();
  void schedule_faults();
  void schedule_sampling();
  void sampling_tick();
  void sample_clock_spread();
  void sample_cluster(sim::SimTime now);
  void emit_telemetry(sim::SimTime now, bool have, double lo, double hi,
                      double sum);

  Scenario scenario_;
  sim::Simulator sim_;
  std::unique_ptr<obs::Observers> observers_;  // outlives its attachments
  mac::Channel channel_;
  core::KeyDirectory directory_;
  std::vector<std::unique_ptr<proto::Station>> stations_;
  std::size_t attacker_index_;  // == stations_.size() when no attacker
  std::vector<clk::DriftStressor> stressors_;  // per honest node, if stressed
  metrics::Series max_diff_;
  metrics::Series cluster_spread_;
  metrics::Series attach_fraction_;
  std::vector<double> sample_values_;  // reused per sampling tick
  std::vector<double> cluster_sum_;    // per-cluster scratch, cluster runs
  std::vector<int> cluster_n_;
  bool armed_{false};
};

}  // namespace sstsp::run

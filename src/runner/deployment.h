// Deployment: the host-independent half of a run, shared by both simulation
// kernels (run::Network, run::ParallelNetwork) and the live swarm (net::Swarm).
// Each host declares it after the members it and its stations borrow, so it is
// destroyed first.  It holds the two policies every host must share draw for
// draw: the RNG substream keying (placement, clocks, churn, clock stress) and
// the environment timeline — power-on, churn, reference departures, clock
// stress, fault hooks and the sampling tick with its station census (clock
// spread, cluster and telemetry samples) — armed on the host's timeline
// simulator (Network's only one, the sharded kernel's control simulator, the
// swarm's hosting simulator) and feeding that simulator's observer bundle.  The
// kernels have it own their stations, constructed in place on the kernel's
// simulators and channels, and build their protocols; the swarm lends it the
// stations inside its NodeRuntimes.  The order of station creation, chain
// registration and observer attachment stays each host's own.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "clock/drift_model.h"
#include "core/key_directory.h"
#include "crypto/hash_chain.h"
#include "metrics/series.h"
#include "obs/observers.h"
#include "protocols/station.h"
#include "runner/experiment.h"
#include "runner/scenario.h"

namespace sstsp::run {

class Deployment {
 public:
  /// `timeline` runs the environment events and is where every substream
  /// derives from; `observers` receives the samples taken on it.
  Deployment(const Scenario& scenario, sim::Simulator& timeline,
             const obs::Observers& observers);

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Throws std::runtime_error on a scenario that cannot be built: attack
  /// params without an attack or that its adversary does not read, or a
  /// cluster scenario with the wrong protocol, an attacker, node count,
  /// gateways or geometry.  A kernel calls it before opening any observer
  /// output.
  static void validate(const Scenario& scenario);

  struct NodeDraw {
    mac::Position pos;
    clk::DriftModel drift;
    double offset_us;
  };
  /// Position and oscillator of every station in global-id order (honest
  /// nodes, then the attacker): disc or cluster placement, then drift and
  /// initial offset, then the adversary's tuned drift factor.
  [[nodiscard]] std::vector<NodeDraw> draw_nodes() const;

  /// Node `id`'s published hash chain (SSTSP runs register one per node,
  /// the internal attacker included; see core/key_directory.h).
  [[nodiscard]] crypto::ChainParams chain_params(mac::NodeId id) const;

  /// Appends the next station in global-id order: one built in place and
  /// owned here (the kernels), or one its host owns and keeps alive for as
  /// long as the deployment (the swarm's NodeRuntime stations).
  template <class... Args>
  proto::Station& emplace_station(Args&&... args) {
    return add_station(owned_.emplace_back(std::forward<Args>(args)...));
  }
  proto::Station& add_station(proto::Station& station) {
    stations_.push_back(&station);
    return station;
  }

  /// Builds station `i`'s protocol — its adversary when `i` is the
  /// attacker — verifying against `directory`, and installs it.  Throws
  /// std::runtime_error on an unknown adversary or bad attack params.
  void install_protocol(std::size_t i, core::KeyDirectory& directory) {
    stations_[i]->set_protocol(make_protocol(i, directory));
  }

  /// Powers every station on, then schedules churn, reference departures,
  /// clock stress, the fault plan and sampling, in that order (events at
  /// equal times dispatch FIFO).  Idempotent.
  void arm();

  [[nodiscard]] const Scenario& scenario() const { return scenario_; }
  [[nodiscard]] std::size_t station_count() const { return stations_.size(); }
  [[nodiscard]] proto::Station& station(std::size_t i) {
    return *stations_[i];
  }

  [[nodiscard]] const metrics::Series& max_diff_series() const {
    return max_diff_;
  }
  [[nodiscard]] proto::ProtocolStats honest_stats() const;

  /// Index of the station currently holding the reference role (SSTSP; the
  /// root cluster's in cluster runs), or nullopt.
  [[nodiscard]] std::optional<std::size_t> current_reference_index() const;

  /// Instantaneous max pairwise difference of the synchronized clocks of
  /// awake, synchronized, honest stations (max - min; O(N)).
  [[nodiscard]] std::optional<double> instant_max_diff_us() const;

  /// Whether the fault plan is holding station `i` powered off (a planned
  /// crash or pause not yet undone), so an outage there is no failure.
  [[nodiscard]] bool planned_down(std::size_t i) const {
    return i < planned_down_.size() && planned_down_[i];
  }

  /// The host-independent part of a finished run's RunResult: the
  /// series and their derived statistics, and the protocol stats.
  [[nodiscard]] RunResult result() const;

 private:
  [[nodiscard]] std::unique_ptr<proto::SyncProtocol> make_protocol(
      std::size_t i, core::KeyDirectory& directory);
  void schedule_environment();
  void schedule_clock_stress();
  void clock_stress_tick();
  void schedule_faults();
  void sampling_tick();
  /// The network clocks of the awake, synchronized honest stations.
  void read_synced_clocks(sim::SimTime now, std::vector<double>& out) const;
  void sample_clock_spread();
  void sample_cluster(sim::SimTime now);
  void emit_telemetry(sim::SimTime now, bool have, double lo, double hi,
                      double sum);

  Scenario scenario_;
  sim::Simulator& timeline_;
  const obs::Observers& observers_;  // the timeline bundle
  std::vector<proto::Station*> stations_;  // global id order
  std::deque<proto::Station> owned_;  // the kernels', never relocated
  std::size_t attacker_index_;  // == stations_.size() when no attacker
  std::vector<clk::DriftStressor> stressors_;  // per honest node, if stressed
  metrics::Series max_diff_;
  // Cluster runs only (empty otherwise): per-sample inter-cluster spread
  // (max - min of per-cluster mean global readings, attached nodes only)
  // and the fraction of awake honest nodes attached to the root timescale.
  metrics::Series cluster_spread_;
  metrics::Series attach_fraction_;
  std::vector<double> sample_values_;  // reused per sampling tick
  std::vector<double> cluster_sum_;    // per-cluster scratch, cluster runs
  std::vector<int> cluster_n_;
  std::vector<bool> planned_down_;  // sized by the first planned outage
  bool armed_{false};
};

}  // namespace sstsp::run

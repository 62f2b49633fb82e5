// Network: the single-simulator kernel.  Materializes a Scenario into one
// simulator, channel and key directory, builds the stations onto them, and
// runs the environment timeline (churn, reference departures, attacks,
// faults, metric sampling) that its Deployment (runner/deployment.h) arms
// on that same simulator.
#pragma once

#include <memory>

#include "core/key_directory.h"
#include "mac/channel.h"
#include "obs/observers.h"
#include "runner/deployment.h"
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
  void arm() { deployment_.arm(); }

  // The deployment's view of the run (runner/deployment.h).
  [[nodiscard]] const Scenario& scenario() const {
    return deployment_.scenario();
  }
  [[nodiscard]] const metrics::Series& max_diff_series() const {
    return deployment_.max_diff_series();
  }
  [[nodiscard]] proto::ProtocolStats honest_stats() const {
    return deployment_.honest_stats();
  }
  [[nodiscard]] std::size_t station_count() const {
    return deployment_.station_count();
  }
  [[nodiscard]] proto::Station& station(std::size_t i) {
    return deployment_.station(i);
  }
  [[nodiscard]] std::optional<std::size_t> current_reference_index() const {
    return deployment_.current_reference_index();
  }
  [[nodiscard]] std::optional<double> instant_max_diff_us() const {
    return deployment_.instant_max_diff_us();
  }

  [[nodiscard]] const mac::ChannelStats& channel_stats() const {
    return channel_.stats();
  }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// The run's observers (obs/observers.h), built from the scenario's
  /// ObserverConfig.  The constructor throws std::runtime_error when the
  /// telemetry or flight-recorder path cannot be opened.
  [[nodiscard]] obs::Observers& observers() { return *observers_; }
  [[nodiscard]] const obs::Observers& observers() const { return *observers_; }
  /// The shared protocol-event trace; nullptr unless
  /// Scenario::trace_capacity > 0.
  [[nodiscard]] trace::EventTrace* trace() { return observers_->trace(); }

 private:
  friend RunResult collect_result(Network& net, double wall_seconds);

  void build_stations();

  sim::Simulator sim_;
  std::unique_ptr<obs::Observers> observers_;  // outlives its attachments
  mac::Channel channel_;
  core::KeyDirectory directory_;
  Deployment deployment_;  // last: its stations borrow everything above
};

}  // namespace sstsp::run

#include "runner/network.h"

namespace sstsp::run {

namespace {

/// The run's observer bundle, opened only once the scenario is known to be
/// buildable.
std::unique_ptr<obs::Observers> make_observers(const Scenario& scenario,
                                               const sim::Simulator& sim) {
  Deployment::validate(scenario);
  obs::ObservedRun run;
  run.sstsp_checks = scenario.protocol == ProtocolKind::kSstsp;
  run.sstsp = scenario.sstsp;
  run.beacon_period_us = scenario.phy.beacon_period.to_us();
  run.cluster = scenario.cluster;
  run.faults = scenario.faults;
  return std::make_unique<obs::Observers>(scenario, run, sim);
}

}  // namespace

Network::Network(const Scenario& scenario)
    : sim_(scenario.seed),
      observers_(make_observers(scenario, sim_)),
      channel_(sim_, scenario.phy),
      deployment_(scenario, sim_, *observers_) {
  observers_->attach(sim_, channel_);
  channel_.set_fault_injector(observers_->injector());
  build_stations();
}

void Network::build_stations() {
  const auto draws = deployment_.draw_nodes();
  const bool is_sstsp =
      deployment_.scenario().protocol == ProtocolKind::kSstsp;
  for (std::size_t i = 0; i < draws.size(); ++i) {
    const auto id = static_cast<mac::NodeId>(i);
    const Deployment::NodeDraw& d = draws[i];
    deployment_.emplace_station(sim_, channel_, id,
                                clk::HardwareClock(d.drift, d.offset_us),
                                d.pos);
    if (is_sstsp) directory_.register_node(id, deployment_.chain_params(id));
  }
  for (std::size_t i = 0; i < draws.size(); ++i) {
    deployment_.install_protocol(i, directory_);
    deployment_.station(i).set_observers(observers_->for_stations());
  }
}

void Network::run() { run_until(deployment_.scenario().duration_s); }

void Network::run_until(double horizon_s) {
  arm();
  sim_.run_until(sim::SimTime::from_sec_double(horizon_s));
}

}  // namespace sstsp::run

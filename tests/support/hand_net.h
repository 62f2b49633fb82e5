// HandNet: the hand-wired simulation rig for tests that need stations the
// scenario runner does not build — custom attackers, duelling references,
// a lone receiver fed by hand.  One seeded simulator, one broadcast
// mac::Channel on a PHY fixed at construction, the key directory (chains
// derived from the rig's seed, of one length fixed at construction) and
// SSTSP config its SSTSP stations share, and the stations a test adds in id
// order.  Fixtures derive from it and add their own protocols.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "clock/drift_model.h"
#include "clock/hardware_clock.h"
#include "core/key_directory.h"
#include "core/sstsp.h"
#include "crypto/hash_chain.h"
#include "mac/channel.h"
#include "obs/observers.h"
#include "protocols/station.h"
#include "sim/simulator.h"

namespace sstsp::rig {

/// The default PHY without packet errors, the one most rigs run on.
[[nodiscard]] inline mac::PhyParams lossless_phy() {
  mac::PhyParams phy;
  phy.packet_error_rate = 0.0;
  return phy;
}

struct HandNet {
  std::uint64_t seed;
  sim::Simulator sim;
  mac::PhyParams phy;
  mac::Channel channel;
  core::KeyDirectory directory;
  core::SstspConfig cfg;
  /// Stations added by drift and offset sit this far apart on the x axis.
  double spacing_m = 1.0;
  /// Handed to every station added while it is set.
  const obs::Observers* station_observers = nullptr;
  std::vector<std::unique_ptr<proto::Station>> stations;

  explicit HandNet(std::uint64_t rig_seed,
                   const mac::PhyParams& rig_phy = lossless_phy(),
                   std::size_t chain_length = core::SstspConfig{}.chain_length)
      : seed(rig_seed),
        sim(rig_seed),
        phy(rig_phy),
        channel(sim, phy),
        directory(rig_seed, chain_length) {
    cfg.chain_length = chain_length;
  }

  /// Adds the next station (its id is its index) with clock `hw` at `pos`.
  proto::Station& add_station(const clk::HardwareClock& hw,
                              mac::Position pos) {
    const auto id = static_cast<mac::NodeId>(stations.size());
    stations.push_back(
        std::make_unique<proto::Station>(sim, channel, id, hw, pos));
    if (station_observers != nullptr) {
      stations.back()->set_observers(station_observers);
    }
    return *stations.back();
  }

  /// Adds the next station with a fixed-drift clock, on the x axis.
  proto::Station& add_station(double ppm, double offset_us) {
    const double x_m = static_cast<double>(stations.size()) * spacing_m;
    return add_station(
        clk::HardwareClock(clk::DriftModel::from_ppm(ppm), offset_us),
        mac::Position{x_m, 0.0});
  }

  /// Registers node `id`'s hash chain, derived from the rig's seed.
  void register_chain(mac::NodeId id) { directory.register_node(id); }

  /// Adds an honest SSTSP station: registered chain, default options.
  proto::Station& add_honest(double ppm, double offset_us) {
    proto::Station& st = add_station(ppm, offset_us);
    register_chain(st.id());
    st.set_protocol(std::make_unique<core::Sstsp>(st, cfg, directory,
                                                  core::Sstsp::Options{}));
    return st;
  }

  /// Powers on every station that is still off (power_on is idempotent).
  void power_on_all() {
    for (auto& st : stations) st->power_on();
  }

  /// Powers on every station, then runs the simulator to `until_s`.
  void run(double until_s) {
    power_on_all();
    sim.run_until(sim::SimTime::from_sec_double(until_s));
  }

  /// Max minus min network time over every station, now.
  [[nodiscard]] double spread_us() const {
    double lo = 1e18;
    double hi = -1e18;
    for (const auto& st : stations) {
      const double v = st->protocol().network_time_us(sim.now());
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    return hi - lo;
  }
};

}  // namespace sstsp::rig

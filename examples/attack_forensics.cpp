// Attack forensics: wire up every adversary the paper's §4 discusses
// against a small SSTSP cell and show exactly which defence layer stops
// each one.  Also demonstrates the coarse-phase outlier filters (GESD +
// threshold) on a poisoned offset sample, standalone.
#include <iostream>
#include <memory>

#include "attack/replay.h"
#include "core/coarse_sync.h"
#include "core/sstsp.h"
#include "filter/gesd.h"
#include "mac/channel.h"
#include "metrics/report.h"
#include "protocols/station.h"
#include "sim/simulator.h"

using namespace sstsp;

namespace {

struct Cell {
  sim::Simulator sim{1234};
  mac::PhyParams phy;
  std::unique_ptr<mac::Channel> channel;
  static constexpr std::size_t kChain = 1000;
  core::SstspConfig cfg;
  core::KeyDirectory directory{1234, kChain};
  std::vector<std::unique_ptr<proto::Station>> stations;

  Cell() {
    phy.packet_error_rate = 0.0;
    cfg.chain_length = kChain;
    channel = std::make_unique<mac::Channel>(sim, phy);
  }

  proto::Station& add_station(double ppm, double offset_us) {
    const auto id = static_cast<mac::NodeId>(stations.size());
    stations.push_back(std::make_unique<proto::Station>(
        sim, *channel, id,
        clk::HardwareClock(clk::DriftModel::from_ppm(ppm), offset_us),
        mac::Position{static_cast<double>(id) * 3.0, 0.0}));
    return *stations.back();
  }

  proto::Station& add_honest(double ppm, double offset_us) {
    auto& st = add_station(ppm, offset_us);
    directory.register_node(st.id());
    st.set_protocol(std::make_unique<core::Sstsp>(st, cfg, directory,
                                                  core::Sstsp::Options{}));
    return st;
  }

  void run_all(double until_s) {
    for (auto& st : stations) {
      if (!st->awake()) st->power_on();
    }
    sim.run_until(sim::SimTime::from_sec_double(until_s));
  }

  proto::ProtocolStats totals() const {
    proto::ProtocolStats agg;
    for (const auto& st : stations) {
      if (!directory.known(st->id())) continue;
      const auto& s = st->protocol().stats();
      agg.rejected_key += s.rejected_key;
      agg.rejected_mac += s.rejected_mac;
      agg.rejected_interval += s.rejected_interval;
      agg.rejected_guard += s.rejected_guard;
      agg.adjustments += s.adjustments;
    }
    return agg;
  }

  double spread_us() const {
    double lo = 1e18, hi = -1e18;
    for (const auto& st : stations) {
      if (!directory.known(st->id()) || !st->awake()) continue;
      const double v = st->protocol().network_time_us(sim.now());
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    return hi - lo;
  }
};

void banner(const char* name) {
  std::cout << "\n=== " << name << " ===\n";
}

}  // namespace

int main() {
  std::cout << "SSTSP attack forensics — which defence layer stops what\n";

  banner("external forger (no credentials)");
  {
    Cell cell;
    for (int i = 0; i < 8; ++i) cell.add_honest(-60.0 + 15.0 * i, 8.0 * i);
    auto& forger = cell.add_station(0.0, 0.0);
    forger.set_protocol(std::make_unique<attack::ExternalForger>(
        forger, attack::ExternalForger::Params{0.1, mac::kNoNode}));
    cell.run_all(30.0);
    const auto agg = cell.totals();
    std::cout << "forged beacons rejected at the DISCLOSED-KEY check: "
              << agg.rejected_key << "\n"
              << "honest adjustments unaffected: " << agg.adjustments
              << ", network spread " << metrics::fmt(cell.spread_us(), 1)
              << " us\n"
              << "-> an identity without a published hash-chain anchor "
                 "cannot produce verifiable keys (µTESLA).\n";
  }

  banner("identity spoofer (forges an honest node's id)");
  {
    Cell cell;
    for (int i = 0; i < 8; ++i) cell.add_honest(-60.0 + 15.0 * i, 8.0 * i);
    auto& forger = cell.add_station(0.0, 0.0);
    forger.set_protocol(std::make_unique<attack::ExternalForger>(
        forger, attack::ExternalForger::Params{0.1, /*spoofed=*/3}));
    cell.run_all(30.0);
    const auto agg = cell.totals();
    std::cout << "spoofed-identity beacons rejected (key/MAC): "
              << agg.rejected_key << "/" << agg.rejected_mac << '\n'
              << "-> knowing an identity is useless without its chain "
                 "seed; keys must hash to the published anchor.\n";
  }

  banner("replay attacker (records and re-transmits valid beacons)");
  {
    Cell cell;
    for (int i = 0; i < 8; ++i) cell.add_honest(-60.0 + 15.0 * i, 8.0 * i);
    auto& rep = cell.add_station(0.0, 0.0);
    rep.set_protocol(std::make_unique<attack::ReplayAttacker>(
        rep, attack::ReplayParams{5.0, 30.0, /*delay_bps=*/3}));
    cell.run_all(35.0);
    const auto agg = cell.totals();
    std::cout << "replayed beacons rejected at the INTERVAL check: "
              << agg.rejected_interval << '\n'
              << "-> a beacon replayed after its interval claims a key "
                 "that is already public; µTESLA's security condition "
                 "rejects it before any clock math runs.\n";
  }

  banner("coarse-phase poisoning (bogus offsets during (re)join scan)");
  {
    // Standalone filter demonstration: 10 honest offsets near +70 us, three
    // malicious ones trying to pull the joining node 8 ms into the future.
    core::SstspConfig cfg;
    core::CoarseSync coarse;
    sim::Rng rng(99);
    for (int i = 0; i < 10; ++i) coarse.add_offset(rng.uniform(60.0, 80.0));
    for (int i = 0; i < 3; ++i) coarse.add_offset(8000.0 + i);
    std::size_t rejected = 0;
    const auto est = coarse.estimate(cfg, &rejected);
    std::cout << "13 offset samples (3 poisoned at +8000 us) -> estimate "
              << metrics::fmt(est.value_or(-1), 1) << " us, " << rejected
              << " rejected by GESD + threshold filter\n"
              << "-> the Song-Zhu-Cao filters keep a joining node's single "
                 "coarse step honest.\n";
  }

  std::cout << "\n(The §5 headline attacks — slow-beacon flooding against "
               "TSF and the internal\nreference takeover against SSTSP — "
               "are reproduced quantitatively by\nbench/fig3_tsf_attack and "
               "bench/fig4_sstsp_attack.)\n";
  return 0;
}

// Replay attacker (external): records valid SSTSP beacons off the air and
// re-transmits them verbatim a configurable number of BPs later, hoping to
// magnify the offset between declared and actual time (§4).  µTESLA defeats
// this: by replay time the receiver's interval check fails (the beacon's
// interval is stale and its key already disclosed).  Exercised by
// tests/attack_replay_test.cpp and examples/attack_forensics.cpp.
#pragma once

#include <memory>
#include <optional>

#include "protocols/station.h"
#include "protocols/sync_protocol.h"

namespace sstsp::attack {

struct ReplayParams {
  double start_s = 100.0;
  double end_s = 1e18;
  /// Delay between capture and replay, in beacon periods ...
  int delay_bps = 3;
  /// ... plus a sub-interval component.  delay_bps = 0 with a sub-BP/2
  /// extra delay models the paper's §4 *pulse-delay* attack: the replayed
  /// frame still claims the current interval (so µTESLA's interval check
  /// passes), but its timestamp is now `extra_delay_us` behind the
  /// receiver's clock — exactly what the guard time is for.
  double extra_delay_us = 0.0;
};

class ReplayAttacker final : public proto::SyncProtocol {
 public:
  ReplayAttacker(proto::Station& station, ReplayParams params)
      : SyncProtocol(station), params_(params) {}

  void start() override { running_ = true; }
  void stop() override { running_ = false; }

  void on_receive(const mac::Frame& frame, const mac::RxInfo&) override {
    if (!running_ || !frame.is_sstsp()) return;
    const double t = station_.sim().now().to_sec();
    if (t < params_.start_s || t >= params_.end_s) return;

    // Capture and schedule verbatim retransmission.
    const auto& phy = station_.channel().phy();
    const sim::SimTime delay =
        phy.beacon_period * params_.delay_bps +
        sim::SimTime::from_us_double(params_.extra_delay_us);
    // The frame is held by handle: a Frame by value is too large for the
    // event queue's inline callback storage.
    auto captured = std::make_shared<const mac::Frame>(frame);
    station_.sim().after(delay, [this, captured] {
      if (!running_) return;
      station_.transmit(*captured,
                        station_.channel().phy().sstsp_beacon_duration);
      ++stats_.beacons_sent;
    });
  }

  [[nodiscard]] double network_time_us(sim::SimTime real) const override {
    return station_.hw().read_us(real);
  }
  [[nodiscard]] bool is_synchronized() const override { return false; }

 private:
  ReplayParams params_;
  bool running_{false};
};

/// External forger: transmits SSTSP-shaped beacons under an identity with
/// no published anchor (or garbage MACs under a spoofed identity).  The
/// receiver pipeline rejects these at the disclosed-key step.
class ExternalForger final : public proto::SyncProtocol {
 public:
  struct Params {
    double period_s = 0.1;      ///< forgery rate
    mac::NodeId spoofed = mac::kNoNode;  ///< kNoNode: use own (unknown) id
  };

  ExternalForger(proto::Station& station, Params params)
      : SyncProtocol(station), params_(params) {}

  void start() override {
    running_ = true;
    schedule_next();
  }
  void stop() override { running_ = false; }

  void on_receive(const mac::Frame&, const mac::RxInfo&) override {}

  [[nodiscard]] double network_time_us(sim::SimTime real) const override {
    return station_.hw().read_us(real);
  }
  [[nodiscard]] bool is_synchronized() const override { return false; }

 private:
  void schedule_next() {
    station_.sim().after(sim::SimTime::from_sec_double(params_.period_s),
                         [this] {
                           if (!running_) return;
                           forge();
                           schedule_next();
                         });
  }

  void forge() {
    const auto& phy = station_.channel().phy();
    mac::SstspBeaconBody body;
    body.timestamp_us = static_cast<std::int64_t>(
        station_.hw().read_us(station_.sim().now()));
    body.interval = static_cast<std::int64_t>(
        station_.sim().now().to_us() / phy.beacon_period.to_us() + 0.5);
    // Garbage MAC and key: the attacker has no chain material.
    for (auto& b : body.mac) b = static_cast<std::uint8_t>(station_.rng()());
    for (auto& b : body.disclosed_key) {
      b = static_cast<std::uint8_t>(station_.rng()());
    }
    mac::Frame frame;
    frame.sender =
        params_.spoofed == mac::kNoNode ? station_.id() : params_.spoofed;
    frame.air_bytes = phy.sstsp_beacon_bytes;
    frame.body = body;
    station_.transmit(std::move(frame), phy.sstsp_beacon_duration);
    ++stats_.beacons_sent;
  }

  Params params_;
  bool running_{false};
};

}  // namespace sstsp::attack

// The §5 attack against TSF: during the attack window the node beacons at
// every BP "without delay", carrying a timestamp deliberately *slower* than
// its own clock, with the aim of (a) winning/wrecking every beacon
// contention so the genuinely fast stations are silenced, and (b) never
// being adopted (its timestamps trail every honest clock).  The honest
// network then free-runs and drifts apart — paper Fig. 3 shows the TSF
// error exploding to ~2*10^4 us during the attack window.
//
// Winning the contention under a faithful CSMA model takes more than
// "transmit at slot 0": the attacker must place transmissions *inside* the
// honest stations' beacon generation windows, or its frames are delivered
// before their TBTTs and forgotten.  The implementation therefore
//
//   * clamps its TSF timer (in both directions — it is malicious, the
//     forward-only rule does not bind it) to `timer_advance_us` ahead of
//     every timestamp it hears, so its TBTT leads the fastest honest TBTT
//     by a small, known margin;
//   * transmits a short burst of `burst_count` beacons spaced
//     `burst_spacing_us` apart from its TBTT, blanketing the 280 us honest
//     window: stations either sense the medium busy at backoff expiry,
//     receive a (never-adopted) beacon and cancel their own, or collide
//     with a burst frame;
//   * is deployed with worst-case-fast oscillator hardware (the scenario
//     runner pins it to +max_drift_ppm) so the margin erodes as slowly as
//     possible between the rare honest escapes that re-anchor the clamp.
//
// Outside the window the node behaves as a standard TSF station.
#pragma once

#include "protocols/tsf_family.h"

namespace sstsp::attack {

struct TsfAttackParams {
  double start_s = 400.0;
  double end_s = 600.0;
  /// How much slower than the attacker's own timer the forged timestamps
  /// are; anything comfortably above the honest spread works.
  double slow_offset_us = 500.0;
  /// Margin the attacker keeps ahead of the newest heard timestamp.
  double timer_advance_us = 25.0;
  /// Beacons per BP and their spacing: coverage of the honest window.
  /// 8 x 85 us blankets ~630 us — the full 31-slot window plus the spread
  /// the free-running victims accumulate between escapes.
  int burst_count = 8;
  double burst_spacing_us = 85.0;
};

class TsfSlowBeaconAttacker final : public proto::TsfFamilyBase {
 public:
  TsfSlowBeaconAttacker(proto::Station& station, TsfAttackParams params)
      : TsfFamilyBase(station), params_(params) {}

  [[nodiscard]] bool attacking() const {
    const double t = station_.sim().now().to_sec();
    return t >= params_.start_s && t < params_.end_s;
  }

 protected:
  void on_beacon(const mac::Frame& frame, const mac::RxInfo& rx) override {
    TsfFamilyBase::on_beacon(frame, rx);
    if (!attacking()) return;
    // Re-anchor just ahead of whatever got through.  Forward-only: the
    // escapes worth chasing come from the fast cohort; anchoring down onto
    // a straggler's beacon would move the burst away from the fast
    // stations' windows and free them.  (The attacker's own fast oscillator
    // plus the ~300 us burst coverage absorbs the slow upward overshoot.)
    const double target = sender_time_us(frame, rx) + params_.timer_advance_us;
    if (target > timer_.read_us(rx.delivered)) {
      timer_.step_to(target, station_.hw().read_us(rx.delivered));
      schedule_next_tbtt();
    }
  }

  [[nodiscard]] bool participates(std::uint64_t) override {
    // Honest contention only outside the attack window; during the attack
    // the burst machinery below does the transmitting.
    return !attacking();
  }

  void on_bp_begin(std::uint64_t) override {
    if (!attacking()) return;
    for (int k = 0; k < params_.burst_count; ++k) {
      station_.sim().after(
          sim::SimTime::from_us_double(k * params_.burst_spacing_us),
          [this] { transmit_forged(); });
    }
  }

 private:
  void transmit_forged() {
    if (!attacking()) return;
    const sim::SimTime now = station_.sim().now();
    const auto& phy = station_.channel().phy();
    mac::Frame frame;
    frame.sender = station_.id();
    frame.air_bytes = phy.tsf_beacon_bytes;
    frame.body = mac::TsfBeaconBody{
        timer_.read_counter(now) -
        static_cast<std::int64_t>(params_.slow_offset_us)};
    const std::uint64_t tid =
        station_.transmit(std::move(frame), phy.tsf_beacon_duration);
    ++stats_.beacons_sent;
    station_.trace_event(trace::EventKind::kBeaconTx, mac::kNoNode, 0.0, tid);
  }

  TsfAttackParams params_;
};

}  // namespace sstsp::attack

// The beacon-contention engine of the TSF family (TSF, ATSP, TATSP, SATSF)
// and Rentel–Kunz.
//
// All of them follow the IEEE 802.11 IBSS beacon generation scheme: at each
// Target Beacon Transmission Time (a multiple of the beacon period on the
// station's own timer) a participating station draws a random delay
// uniform in [0, w] slots, cancels its pending beacon if one is received
// first, defers if the medium is sensed busy at expiry, and otherwise
// transmits a beacon carrying its timer's counter value (traced as
// beacon-tx).  By default receivers adopt a timestamp if and only if it is
// later than their own timer (forward-only — TSF's "no backward leap"
// guarantee).
//
// The TSF variants differ *only* in the participation policy (which BPs a
// station contends in) — exactly the axis ATSP/TATSP/SATSF explore.
// Rentel–Kunz also replaces adoption with its controlled-clock update
// (on_beacon) and keeps its own per-BP state (on_bp_begin).  The timer is
// an AdjustedClock: k stays 1 under adoption, Rentel–Kunz sets both k and b.
#pragma once

#include "clock/adjusted_clock.h"
#include "protocols/station.h"
#include "protocols/sync_protocol.h"

namespace sstsp::proto {

class TsfFamilyBase : public SyncProtocol, private sim::TickOwner {
 public:
  explicit TsfFamilyBase(Station& station);

  void start() override;
  void stop() override;
  void on_receive(const mac::Frame& frame, const mac::RxInfo& rx) override;

  [[nodiscard]] double network_time_us(sim::SimTime real) const override {
    return timer_.read_us(real);
  }
  [[nodiscard]] bool is_synchronized() const override { return true; }

 protected:
  /// Does this station contend for beacon transmission in this BP?  Runs
  /// at TBTT after on_bp_begin and before the backoff draw.
  [[nodiscard]] virtual bool participates(std::uint64_t bp_count) = 0;

  /// Per-BP hook, fired at TBTT before the contention draw, while
  /// beacon_seen_this_bp() still describes the BP that just ended.
  virtual void on_bp_begin(std::uint64_t /*bp_count*/) {}

  /// A TSF beacon was received, after the shared bookkeeping (receive
  /// count, beacon flag, backoff cancel).  The standard behaviour is
  /// forward-only adoption followed by on_beacon_observation.
  virtual void on_beacon(const mac::Frame& frame, const mac::RxInfo& rx);

  /// Adoption hook: `heard_later` is true when the received timestamp was
  /// ahead of the local timer (i.e. the sender is faster).
  virtual void on_beacon_observation(bool /*heard_later*/) {}

  /// Whether a beacon was received or sent in the current BP.
  [[nodiscard]] bool beacon_seen_this_bp() const {
    return beacon_seen_this_bp_;
  }

  /// The sender's timer at delivery: the stamped timestamp plus the
  /// nominal air delay.
  [[nodiscard]] static double sender_time_us(const mac::Frame& frame,
                                             const mac::RxInfo& rx) {
    return static_cast<double>(frame.tsf().timestamp_us) +
           rx.nominal_delay_us;
  }

  clk::AdjustedClock timer_;

  /// Re-derives the next TBTT from the current timer value (needed after
  /// any timer jump: adoption, a controlled-clock update, an attacker
  /// biasing itself).
  void schedule_next_tbtt();

 private:
  /// The TBTT is a tick run entry (sim::Simulator::tick_at).
  void on_tick() override { handle_tbtt(); }
  void handle_tbtt();
  void handle_backoff_expiry();

  sim::EventId tbtt_event_{0};
  sim::EventId backoff_event_{0};
  double last_tbtt_us_{-1.0};
  double next_tbtt_us_{0.0};
  std::uint64_t bp_count_{0};
  bool beacon_seen_this_bp_{false};
  bool running_{false};
};

/// Plain IEEE 802.11 TSF: every station contends in every beacon period.
class Tsf final : public TsfFamilyBase {
 public:
  using TsfFamilyBase::TsfFamilyBase;

 protected:
  [[nodiscard]] bool participates(std::uint64_t) override { return true; }
};

}  // namespace sstsp::proto

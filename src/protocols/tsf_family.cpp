#include "protocols/tsf_family.h"

#include <cmath>

namespace sstsp::proto {

TsfFamilyBase::TsfFamilyBase(Station& station)
    : SyncProtocol(station), timer_(&station.hw()) {}

void TsfFamilyBase::start() {
  running_ = true;
  beacon_seen_this_bp_ = false;
  last_tbtt_us_ = -1.0;
  schedule_next_tbtt();
}

void TsfFamilyBase::stop() {
  running_ = false;
  if (tbtt_event_ != 0) {
    station_.sim().cancel(tbtt_event_);
    tbtt_event_ = 0;
  }
  if (backoff_event_ != 0) {
    station_.sim().cancel(backoff_event_);
    backoff_event_ = 0;
  }
}

void TsfFamilyBase::schedule_next_tbtt() {
  if (tbtt_event_ != 0) station_.sim().cancel(tbtt_event_);
  const double bp_us = station_.channel().phy().beacon_period.to_us();
  const double timer_now = timer_.read_us(station_.sim().now());
  // Guard against floating-point re-derivation of the boundary just fired:
  // the next TBTT must be strictly after the last one handled, or the event
  // would re-arm at the same instant forever.
  double next_tbtt = (std::floor(timer_now / bp_us) + 1.0) * bp_us;
  if (next_tbtt <= last_tbtt_us_) next_tbtt = last_tbtt_us_ + bp_us;
  next_tbtt_us_ = next_tbtt;
  tbtt_event_ = station_.sim().tick_at(timer_.real_at(next_tbtt), *this);
}

void TsfFamilyBase::handle_tbtt() {
  tbtt_event_ = 0;
  if (!running_) return;
  last_tbtt_us_ = next_tbtt_us_;
  ++bp_count_;
  on_bp_begin(bp_count_);
  beacon_seen_this_bp_ = false;

  if (participates(bp_count_)) {
    const auto& phy = station_.channel().phy();
    const auto slots = static_cast<std::int64_t>(station_.rng().uniform_int(
        0, static_cast<std::uint64_t>(phy.contention_window)));
    if (backoff_event_ != 0) station_.sim().cancel(backoff_event_);
    backoff_event_ = station_.sim().after(phy.slot_time * slots,
                                          [this] { handle_backoff_expiry(); });
  }
  schedule_next_tbtt();
}

void TsfFamilyBase::handle_backoff_expiry() {
  backoff_event_ = 0;
  if (!running_ || beacon_seen_this_bp_) return;
  const sim::SimTime now = station_.sim().now();
  if (station_.medium_busy(now)) return;  // defer: someone else won

  const auto& phy = station_.channel().phy();
  mac::Frame frame;
  frame.sender = station_.id();
  frame.air_bytes = phy.tsf_beacon_bytes;
  frame.body = mac::TsfBeaconBody{timer_.read_counter(now)};
  const std::uint64_t tid =
      station_.transmit(std::move(frame), phy.tsf_beacon_duration);
  ++stats_.beacons_sent;
  station_.trace_event(trace::EventKind::kBeaconTx, mac::kNoNode, 0.0, tid);
  beacon_seen_this_bp_ = true;  // one beacon per BP, ours counts
}

void TsfFamilyBase::on_receive(const mac::Frame& frame,
                               const mac::RxInfo& rx) {
  if (!frame.is_tsf()) return;  // TSF stations ignore secured beacons
  ++stats_.beacons_received;
  beacon_seen_this_bp_ = true;
  if (backoff_event_ != 0) {
    station_.sim().cancel(backoff_event_);
    backoff_event_ = 0;
  }
  on_beacon(frame, rx);
}

void TsfFamilyBase::on_beacon(const mac::Frame& frame, const mac::RxInfo& rx) {
  const double ts_est = sender_time_us(frame, rx);
  const double own = timer_.read_us(rx.delivered);
  const bool later = ts_est > own;
  if (later) {
    // Forward-only adoption (standard TSF rule) — the timer never leaps
    // backwards, which tests/protocols_tsf_test.cpp asserts.
    timer_.step_to(ts_est, station_.hw().read_us(rx.delivered));
    ++stats_.adoptions;
    station_.trace_event(trace::EventKind::kAdoption, frame.sender,
                         ts_est - own, frame.trace_id);
    // The timer jumped forward, so the next TBTT arrives earlier in real
    // time than previously scheduled.
    schedule_next_tbtt();
  }
  on_beacon_observation(later);
}

}  // namespace sstsp::proto

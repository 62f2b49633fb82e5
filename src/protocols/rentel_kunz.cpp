#include "protocols/rentel_kunz.h"

#include <algorithm>

namespace sstsp::proto {

void RentelKunz::on_bp_begin(std::uint64_t) {
  if (!beacon_seen_this_bp()) {
    ++silent_bps_;
    p_ = std::min(params_.p_max, p_ * params_.p_recovery);
  }
}

bool RentelKunz::participates(std::uint64_t) {
  if (silent_bps_ < params_.t_delay_bps) return false;
  // Eligibility restores at least the baseline probability: T_DELAY
  // beacon-free periods mean nobody is covering the duty, however hard
  // this node backed off before.
  p_ = std::max(p_, params_.p_initial);
  return station_.rng().bernoulli(p_);
}

void RentelKunz::on_beacon(const mac::Frame& frame, const mac::RxInfo& rx) {
  silent_bps_ = 0;
  p_ = std::max(1e-3, p_ * params_.p_decay);

  const double hw = station_.hw().read_us(rx.delivered);
  const double ts_est = sender_time_us(frame, rx);

  // Rate slew: the sender's clock rate against our oscillator, from this
  // sender's previous observation.
  double s = timer_.k();
  const auto obs = last_obs_.find(frame.sender);
  if (obs != last_obs_.end() && ts_est > obs->second.second + 1.0 &&
      hw > obs->second.first + 1.0) {
    const double observed_rate =
        (ts_est - obs->second.second) / (hw - obs->second.first);
    const double band = params_.s_max_ppm * 1e-6;
    if (observed_rate > 1.0 - 2.0 * band && observed_rate < 1.0 + 2.0 * band) {
      s += params_.beta * (observed_rate - s);
      s = std::clamp(s, 1.0 - band, 1.0 + band);
    }
  }
  if (last_obs_.size() > 32) last_obs_.clear();  // bounded memory
  last_obs_[frame.sender] = {hw, ts_est};

  // Offset half-step toward the sender (both directions: controlled clock).
  const double c = s * hw + timer_.b();
  timer_.set_params(s, timer_.b() + params_.alpha * (ts_est - c));
  ++stats_.adjustments;
  station_.trace_event(trace::EventKind::kAdjustment, frame.sender,
                       (s - 1.0) * 1e6, frame.trace_id);
  schedule_next_tbtt();  // the controlled clock moved; re-derive the TBTT
}

}  // namespace sstsp::proto

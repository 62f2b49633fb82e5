#include "cluster/gateway_bridge.h"

#include <algorithm>
#include <cmath>

namespace sstsp::cluster {

namespace {
/// Relative-rate clamp for the tau extrapolation: two ±100 ppm oscillators
/// plus the fit noise of a settled baseline stay far inside ±500 ppm;
/// anything beyond is a corrupted baseline (e.g. samples from different
/// clock epochs) and must not be extrapolated.
constexpr double kMaxTauRate = 5e-4;
/// Minimum baseline for a rate estimate: below this the quotient amplifies
/// sample noise instead of measuring drift, so the newer sample replaces
/// the old instead of pairing with it.
constexpr double kMinBaselineUs = 1000.0;
}  // namespace

TauTracker::TauTracker(core::KeyDirectory& directory,
                       crypto::MuTeslaSchedule schedule,
                       double interval_slack_us, double stale_us)
    : directory_(directory),
      schedule_(schedule),
      interval_slack_us_(interval_slack_us),
      stale_us_(stale_us) {}

void TauTracker::reset() {
  announcers_.clear();
  best_ = mac::kNoNode;
}

TauTracker::Announcer* TauTracker::announcer_for(mac::NodeId sender) {
  auto it = announcers_.find(sender);
  if (it != announcers_.end()) return &it->second;
  const auto anchor = directory_.anchor_of(sender);
  if (!anchor) return nullptr;  // unknown identity
  if (announcers_.size() >= 8) {
    for (auto evict = announcers_.begin(); evict != announcers_.end();
         ++evict) {
      if (evict->first != best_) {
        announcers_.erase(evict);
        break;
      }
    }
  }
  auto [ins, _] = announcers_.emplace(sender, Announcer(*anchor));
  return &ins->second;
}

TauIngest TauTracker::ingest(const mac::SstspBeaconBody& body,
                             mac::NodeId sender, double arrival_hw_us,
                             double ts_est_us, double local_us,
                             std::uint64_t trace_id) {
  TauIngest out;
  const std::int64_t j = body.interval;
  // The µTESLA security condition against the *context* clock: it tracks
  // the announcer's cluster timeline, which is exactly the timeline the
  // announcer's schedule lives on.
  if (!schedule_.interval_check(j, local_us, interval_slack_us_)) return out;
  out.interval_ok = true;

  Announcer* a = announcer_for(sender);
  if (a == nullptr) return out;
  a->local_at[static_cast<std::size_t>(j) % a->local_at.size()] = {j,
                                                                   local_us};
  const core::PipelineResult res =
      a->pipeline.ingest({schedule_, &directory_.verify_cache()}, body, sender,
                         arrival_hw_us, ts_est_us, trace_id);
  if (!res.key_valid) return out;
  out.key_valid = true;
  if (j > 1) out.disclosed_index = j - 1;
  if (!res.authenticated) return out;

  // The previous interval's announcement just authenticated: pair its
  // announced global estimate with the context-clock reading recorded at
  // its own arrival.
  const auto& slot =
      a->local_at[static_cast<std::size_t>(res.authenticated->interval) %
                  a->local_at.size()];
  if (slot.first != res.authenticated->interval) return out;
  Announcer::Sample sample{slot.second,
                           res.authenticated->ts_est_us - slot.second};
  // A gap beyond the staleness bound means a different clock epoch (the
  // announcer restarted, or we coasted detached): restart the baseline.
  if (a->count > 0 && sample.local_us - a->newest().local_us > stale_us_) {
    a->count = 0;
  }
  if (a->count > 0 &&
      sample.local_us - a->newest().local_us < kMinBaselineUs) {
    a->ring[static_cast<std::size_t>(a->head)] = sample;  // refresh in place
  } else {
    a->push(sample);
  }
  ++samples_accepted_;
  out.sample_accepted = true;

  // Freshest announcer serves the estimate; ties break toward the lower id
  // so the choice is deterministic.
  if (best_ == mac::kNoNode) {
    best_ = sender;
  } else if (sender != best_) {
    const auto bit = announcers_.find(best_);
    if (bit == announcers_.end() || bit->second.count == 0 ||
        sample.local_us > bit->second.newest().local_us ||
        (sample.local_us == bit->second.newest().local_us &&
         sender < best_)) {
      best_ = sender;
    }
  }
  return out;
}

TauTracker::TauFit TauTracker::fit_of(const Announcer& a) {
  TauFit fit;
  if (a.count == 0) return fit;
  double sum_l = 0.0;
  double sum_t = 0.0;
  for (int i = 0; i < a.count; ++i) {
    sum_l += a.ring[static_cast<std::size_t>(i)].local_us;
    sum_t += a.ring[static_cast<std::size_t>(i)].tau_us;
  }
  fit.local_us = sum_l / a.count;
  fit.tau_us = sum_t / a.count;
  if (a.count < 2) return fit;
  double sxx = 0.0;
  double sxy = 0.0;
  for (int i = 0; i < a.count; ++i) {
    const auto& s = a.ring[static_cast<std::size_t>(i)];
    const double dl = s.local_us - fit.local_us;
    sxx += dl * dl;
    sxy += dl * (s.tau_us - fit.tau_us);
  }
  if (sxx > 0.0) {
    fit.rate = std::clamp(sxy / sxx, -kMaxTauRate, kMaxTauRate);
  }
  return fit;
}

bool TauTracker::fresh(double local_now_us) const {
  const auto it = announcers_.find(best_);
  if (it == announcers_.end() || it->second.count == 0) return false;
  const Announcer& a = it->second;
  // Extrapolation hygiene: never coast further past the newest sample than
  // the span the rate was actually fit on (plus one announcement interval,
  // so a young fit can still bridge to its next sample).  A two-sample
  // rate carries O(100 ppm) of noise — harmless over one interval, tens of
  // microseconds over the full staleness window.
  double oldest = a.newest().local_us;
  for (int i = 0; i < a.count; ++i) {
    oldest = std::min(oldest, a.ring[static_cast<std::size_t>(i)].local_us);
  }
  const double span = a.newest().local_us - oldest;
  const double horizon = std::min(stale_us_, span + schedule_.interval_us);
  return local_now_us - a.newest().local_us <= horizon;
}

std::optional<double> TauTracker::tau_us(double local_now_us) const {
  const auto it = announcers_.find(best_);
  if (it == announcers_.end() || it->second.count == 0) return std::nullopt;
  const TauFit fit = fit_of(it->second);
  return fit.tau_us + fit.rate * (local_now_us - fit.local_us);
}

GatewayBridge::GatewayBridge(proto::Station& station,
                             core::KeyDirectory& directory,
                             const crypto::MuTeslaSchedule& home_schedule,
                             Config cfg)
    : station_(station),
      signer_(directory.chain_of(station.id()).value(), home_schedule),
      cfg_(cfg) {}

bool GatewayBridge::announce(std::int64_t j, double global_est_us) {
  const sim::SimTime now = station_.sim().now();
  if (station_.medium_busy(now)) return false;  // CSMA: skip this BP
  const auto& phy = station_.channel().phy();
  const auto ts = static_cast<std::int64_t>(std::floor(global_est_us));
  mac::Frame frame;
  frame.sender = station_.id();
  frame.air_bytes = phy.sstsp_beacon_bytes + 1;  // + level (= depth) byte
  frame.domain = cfg_.domain;
  frame.body = signer_.sign(j, ts, station_.id(), cfg_.depth);
  const std::uint64_t tid =
      station_.transmit(std::move(frame), phy.sstsp_beacon_duration);
  ++announcements_;
  station_.trace_event(trace::EventKind::kBeaconTx, mac::kNoNode,
                       static_cast<double>(j), tid);
  // Announcements are schedule-staggered, not reference emissions: the
  // timestamp-integrity check applies (ts is the clock it was read from),
  // the reference-schedule/uniqueness checks do not.
  station_.report(obs::BeaconStamped{j, static_cast<double>(ts),
                                     global_est_us, /*as_reference=*/false});
  return true;
}

}  // namespace sstsp::cluster

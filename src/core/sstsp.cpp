#include "core/sstsp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <tuple>

#include "obs/profiler.h"

namespace sstsp::core {

namespace {
/// Fraction of a BP after the nominal emission time at which the
/// end-of-interval bookkeeping tick runs (late enough that the interval's
/// beacon, if any, has been delivered and processed).
constexpr double kTickFraction = 0.75;
}  // namespace

Sstsp::Sstsp(proto::Station& station, std::shared_ptr<const SstspConfig> cfg,
             KeyDirectory& directory, Options options)
    : SyncProtocol(station),
      cfg_(std::move(cfg)),
      directory_(directory),
      schedule_{cfg_->t0_us + options.phase_us,
                station.channel().phy().beacon_period.to_us(),
                cfg_->chain_length},
      adjusted_(&station.hw()),
      options_(options),
      election_cw_(cfg_->election_cw_min) {}

void Sstsp::start() {
  running_ = true;
  tracks_ = std::vector<SenderTrack>();  // frees the tracks' storage
  coarse_.reset();
  coarse_bps_seen_ = 0;
  missed_ = 0;
  last_accepted_interval_ = -1;
  last_tx_interval_ = -1;
  last_tick_j_ = INT64_MIN;
  election_cw_ = cfg_->election_cw_min;
  confirm_left_ = 0;
  current_ref_ = mac::kNoNode;
  last_sync_hw_us_ = station_.hw_us_now();

  if (options_.start_as_reference && !options_.passive && !started_before_) {
    state_ = State::kReference;
    synced_ = true;
    // A preestablished reference is a legitimate role acquisition (the
    // experiment's stand-in for an already-completed election).
    station_.report(obs::RoleChanged{/*is_reference=*/true,
                                     /*via_election=*/true});
  } else if (options_.calibrated_boot && !started_before_) {
    state_ = State::kFollower;
    synced_ = true;
    // Boot grace: listen for a couple of BPs before concluding there is no
    // reference, so a just-started reference (or a faster election winner)
    // is not trampled by the whole network contending in interval 1.
    missed_ = -2;
  } else {
    // Churn return: the hardware clock free-ran while away, so rescan.
    state_ = State::kCoarse;
    synced_ = false;
  }
  started_before_ = true;
  schedule_tick();
}

void Sstsp::stop() {
  running_ = false;
  if (tick_event_ != 0) {
    station_.sim().cancel(tick_event_);
    tick_event_ = 0;
  }
  cancel_tx_event();
}

void Sstsp::cancel_tx_event() {
  if (tx_event_ != 0) {
    station_.sim().cancel(tx_event_);
    tx_event_ = 0;
  }
}

void Sstsp::schedule_tick() {
  if (tick_event_ != 0) station_.sim().cancel(tick_event_);
  const double bp = schedule_.interval_us;
  const double c_now = adjusted_now();
  auto next_j = static_cast<std::int64_t>(
      std::floor(c_now / bp - kTickFraction)) + 1;
  // Strictly monotone tick index, or rounding could re-arm the tick for
  // the interval just processed at the same instant forever.
  if (next_j <= last_tick_j_) next_j = last_tick_j_ + 1;
  const double tick_time =
      schedule_.emission_time(next_j) + kTickFraction * bp;
  tick_j_ = next_j;
  tick_event_ = station_.sim().tick_at(adjusted_.real_at(tick_time), *this);
}

void Sstsp::handle_tick(std::int64_t j) {
  tick_event_ = 0;
  if (!running_) return;
  last_tick_j_ = j;

  switch (state_) {
    case State::kCoarse: {
      ++coarse_bps_seen_;
      if (coarse_bps_seen_ >= cfg_->coarse_scan_bps) finish_coarse();
      break;
    }
    case State::kFollower: {
      if (last_accepted_interval_ < j) {
        ++missed_;
        if (synced_ && missed_ >= cfg_->l && !options_.passive) {
          arm_contention(j + 1, election_cw_);
        }
      } else {
        missed_ = 0;
      }
      break;
    }
    case State::kTentativeRef: {
      if (last_tx_interval_ == j) {
        --confirm_left_;
        if (confirm_left_ <= 0) {
          state_ = State::kReference;
          ++stats_.elections_won;
          station_.trace_event(trace::EventKind::kElectionWon);
          station_.report(obs::RoleChanged{/*is_reference=*/true,
                                           /*via_election=*/true});
        }
      }
      if (state_ == State::kReference) {
        schedule_reference_emission(j + 1);
      } else {
        arm_contention(j + 1, cfg_->election_cw_min);
      }
      break;
    }
    case State::kReference: {
      schedule_reference_emission(j + 1);
      break;
    }
  }
  schedule_tick();
}

double Sstsp::effective_guard_us(double hw_now_us) const {
  return core::effective_guard_us(*cfg_, hw_now_us, last_sync_hw_us_);
}

void Sstsp::arm_contention(std::int64_t j, int window) {
  if (j < 1 || static_cast<std::size_t>(j) > schedule_.n) return;
  const auto& phy = station_.channel().phy();
  // Slot 0 — the exact interval start — belongs to the reference's
  // no-delay emission.  Contenders draw from [1, w] so that a node whose
  // contention was triggered by an isolated beacon loss defers to (or
  // cancels on) the still-alive reference instead of colliding with it.
  const auto slot = static_cast<std::int64_t>(station_.rng().uniform_int(
      1, static_cast<std::uint64_t>(window)));
  const double tx_time = schedule_.emission_time(j) +
                         static_cast<double>(slot) * phy.slot_time.to_us();
  cancel_tx_event();
  tx_event_ = station_.sim().at(adjusted_.real_at(tx_time),
                                [this, j] { handle_contention_expiry(j); });
  // DCF-style growth for the next unresolved round; reset on any accepted
  // beacon (see on_receive).
  election_cw_ = std::min(window * 2 + 1, cfg_->election_cw_max);
}

void Sstsp::handle_contention_expiry(std::int64_t j) {
  tx_event_ = 0;
  if (!running_ || state_ == State::kCoarse) return;
  if (last_accepted_interval_ >= j) return;  // someone already won interval j
  const sim::SimTime now = station_.sim().now();
  if (!ignore_carrier() && station_.medium_busy(now)) return;  // defer

  transmit_beacon(j);
  if (state_ == State::kFollower) {
    state_ = State::kTentativeRef;
    confirm_left_ = cfg_->confirm_bps;
  }
}

void Sstsp::schedule_reference_emission(std::int64_t j) {
  if (j < 1 || static_cast<std::size_t>(j) > schedule_.n) return;
  const double tx_time = schedule_.emission_time(j) - emission_advance_us();
  cancel_tx_event();
  emission_retries_left_ = options_.busy_retries;
  tx_event_ = station_.sim().at(adjusted_.real_at(tx_time),
                                [this, j] { handle_reference_emission(j); });
}

void Sstsp::handle_reference_emission(std::int64_t j) {
  tx_event_ = 0;
  if (!running_ || state_ != State::kReference) return;
  if (last_accepted_interval_ >= j) return;  // lost the role this interval
  const sim::SimTime now = station_.sim().now();
  if (!ignore_carrier() && station_.medium_busy(now)) {
    if (emission_retries_left_ > 0) {
      --emission_retries_left_;
      tx_event_ = station_.sim().at(
          now + sim::SimTime::from_us_double(options_.busy_retry_step_us),
          [this, j] { handle_reference_emission(j); });
    }
    return;  // retries exhausted (or none configured): RULE R soon
  }
  transmit_beacon(j);
}

void Sstsp::transmit_beacon(std::int64_t j) {
  if (options_.passive) return;
  const sim::SimTime now = station_.sim().now();
  const auto& phy = station_.channel().phy();
  const double c_now = adjusted_now();
  const auto ts =
      static_cast<std::int64_t>(std::floor(c_now + timestamp_skew_us()));
  mac::Frame frame;
  frame.sender = station_.id();
  frame.air_bytes = phy.sstsp_beacon_bytes;
  frame.domain = options_.domain;
  if (!signer_) {
    signer_ = std::make_unique<crypto::MuTeslaSigner>(
        directory_.chain_of(station_.id()).value(), schedule_, j);
  }
  frame.body = sign_beacon(*signer_, j, ts, station_.id());
  const std::uint64_t tid =
      station_.transmit(std::move(frame), phy.sstsp_beacon_duration);
  ++stats_.beacons_sent;
  station_.trace_event(trace::EventKind::kBeaconTx, mac::kNoNode,
                       static_cast<double>(j), tid);
  station_.report(obs::BeaconStamped{j, static_cast<double>(ts), c_now,
                                     state_ == State::kReference});
  last_tx_interval_ = j;
  last_tx_start_ = now;
  if (state_ == State::kReference) {
    // A confirmed reference IS the network timeline: its own emissions are
    // the freshness evidence that keeps its guard tight, so a rogue node on
    // a divergent timeline can never talk it into deferring (see the
    // effective_guard_us discussion in sstsp_config.h).
    last_sync_hw_us_ = station_.hw_us_now();
  }
}

void Sstsp::finish_coarse() {
  obs::Span span(station_.profiler(), obs::Phase::kFilterEval);
  const auto estimate = coarse_.estimate(*cfg_);
  if (!estimate) {
    // Nothing heard (or everything rejected): keep scanning another window.
    coarse_bps_seen_ = 0;
    coarse_.reset();
    return;
  }
  const double hw_now = station_.hw_us_now();
  const double before = adjusted_.value_at_hw(hw_now);
  adjusted_.step_to(before + *estimate, hw_now);
  station_.report(obs::ClockAdjusted{before, adjusted_.value_at_hw(hw_now),
                                     adjusted_.k(), /*coarse=*/true});
  last_sync_hw_us_ = hw_now;
  ++stats_.coarse_steps;
  station_.trace_event(trace::EventKind::kCoarseStep, mac::kNoNode,
                       *estimate);
  state_ = State::kFollower;
  missed_ = 0;
  last_accepted_interval_ = current_interval();
  // Not yet eligible for contention or metrics: the paper's joining rule.
  synced_ = false;
  resync_adjustments_ = 0;
}

bool Sstsp::is_blacklisted(mac::NodeId sender) const {
  // Only note_rejection blacklists, and it never does at threshold <= 0.
  if (cfg_->blacklist_threshold <= 0) return false;
  const auto it = std::ranges::find(tracks_, sender, &SenderTrack::sender);
  return it != tracks_.end() &&
         it->blacklisted_until_hw_us > station_.hw_us_now();
}

void Sstsp::note_rejection(mac::NodeId sender, double hw_now_us) {
  if (cfg_->blacklist_threshold <= 0) return;
  // The guard/interval checks run before any track exists for a
  // first-contact sender; materialize one so repeat offenders are counted
  // from their first frame.  Unknown identities return nullptr and are
  // dropped before reaching here anyway.
  SenderTrack* track_ptr = track_for(sender);
  if (track_ptr == nullptr) return;
  SenderTrack& track = *track_ptr;
  if (++track.consecutive_rejections >= cfg_->blacklist_threshold) {
    track.consecutive_rejections = 0;
    track.blacklisted_until_hw_us =
        hw_now_us + cfg_->blacklist_penalty_s * 1e6;
    station_.trace_event(trace::EventKind::kTakeover, sender,
                         cfg_->blacklist_penalty_s * 1e6);
  }
}

Sstsp::SenderTrack* Sstsp::track_for(mac::NodeId sender) {
  const auto it = std::ranges::find(tracks_, sender, &SenderTrack::sender);
  if (it != tracks_.end()) return &*it;
  const auto anchor = directory_.anchor_of(sender);
  if (!anchor) return nullptr;  // unknown identity: external attacker
  if (tracks_.size() >= kMaxSenderTracks) {
    // Bounded memory: the newest track other than the current reference's
    // yields.  The older ones hold verified chain positions and sample
    // history, and a rotation of more senders than tracks then churns one
    // track instead of evicting every sender just before its next beacon
    // (as evicting the oldest would).
    const auto newest = std::ranges::find_if(
        tracks_.rbegin(), tracks_.rend(),
        [this](const SenderTrack& t) { return t.sender != current_ref_; });
    tracks_.erase(std::next(newest).base());
  }
  if (tracks_.size() == tracks_.capacity()) {
    tracks_.reserve(tracks_.size() + 1);
  }
  return &tracks_.emplace_back(sender, *anchor);
}

void Sstsp::on_receive(const mac::Frame& frame, const mac::RxInfo& rx) {
  if (!frame.is_sstsp()) return;
  if (frame.domain != options_.domain) return;  // foreign broadcast domain
  if (is_blacklisted(frame.sender)) return;  // recovery: drop unprocessed
  ++stats_.beacons_received;
  const auto& body = frame.sstsp();
  const double c_now = adjusted_.read_us(rx.delivered);
  const double ts_est =
      static_cast<double>(body.timestamp_us) + rx.nominal_delay_us;
  // Lifecycle rx span: delivered and about to enter the §3.3 checks.
  station_.trace_event(trace::EventKind::kBeaconRx, frame.sender,
                       ts_est - c_now, frame.trace_id);

  if (state_ == State::kCoarse) {
    // Pre-synchronization: just collect the offset; outliers are filtered
    // when the scan window closes.
    coarse_.add_offset(ts_est - c_now);
    return;
  }

  const std::int64_t j = body.interval;
  // Check 1 (paper §3.3): the claimed interval must be the current one,
  // otherwise the key may already be disclosed (replay / delay attack).
  if (!schedule_.interval_check(j, c_now, cfg_->interval_slack_us)) {
    ++stats_.rejected_interval;
    station_.trace_event(trace::EventKind::kRejectInterval, frame.sender,
                         ts_est - c_now, frame.trace_id);
    // NOT counted toward the blacklist: a stale interval is replay
    // evidence against some third party, never attributable to the
    // claimed sender.
    return;
  }
  // Check 4: guard time.  Applied at arrival, before the frame is buffered,
  // so an internal attacker cannot move us beyond delta per beacon.
  const double arrival_hw = station_.hw().read_us(rx.delivered);
  if (std::fabs(ts_est - c_now) > effective_guard_us(arrival_hw)) {
    ++stats_.rejected_guard;
    station_.trace_event(trace::EventKind::kRejectGuard, frame.sender,
                         ts_est - c_now, frame.trace_id);
    // Two follow-ups need proof of chain ownership via a *fresh* key
    // disclosure (a pulse-delayed replay of an honest beacon carries an
    // already-public key and must not frame its victim, nor demote anyone):
    //   * blacklist attribution (recovery extension), and
    //   * RULE R across divergent timelines.  After a partition heals (or
    //     after a local clock fault spawns a rogue second reference), the
    //     two references sit outside each other's guard window, so without
    //     this the role conflict can never resolve: each side keeps its own
    //     guard tight by syncing to itself and rejects the other forever.
    //     The later transmitter of the shared interval yields, exactly as
    //     in-guard RULE R; its orphaned followers then re-admit the
    //     surviving timeline through guard silence growth.  Abuse of this
    //     path is a live chain member spending its own key material on
    //     out-of-guard frames — attributable, and rate-limited by the
    //     blacklist when enabled.
    const bool role_conflict =
        (state_ == State::kTentativeRef || state_ == State::kReference) &&
        !never_demote();
    if ((cfg_->blacklist_threshold > 0 || role_conflict) && j > 1) {
      SenderTrack* track = track_for(frame.sender);
      obs::Span span(station_.profiler(), obs::Phase::kCryptoVerify);
      if (track != nullptr &&
          track->pipeline.verify_key_fresh(verify_context(), j - 1,
                                           body.disclosed_key)) {
        if (cfg_->blacklist_threshold > 0) {
          note_rejection(frame.sender, arrival_hw);
        }
        if (role_conflict) {
          const bool mine_was_earlier =
              last_tx_interval_ == j && last_tx_start_ < rx.tx_start;
          if (!mine_was_earlier) {
            force_follower_role();
            ++stats_.demotions;
            station_.trace_event(trace::EventKind::kDemotion, frame.sender);
          }
        }
      }
    }
    return;
  }

  SenderTrack* track = track_for(frame.sender);
  if (track == nullptr) {
    ++stats_.rejected_key;  // no published anchor: external identity
    station_.trace_event(trace::EventKind::kRejectKey, frame.sender, 0.0,
                         frame.trace_id);
    return;
  }
  PipelineResult res;
  {
    obs::Span span(station_.profiler(), obs::Phase::kCryptoVerify);
    res = track->pipeline.ingest(verify_context(), body, frame.sender,
                                 arrival_hw, ts_est, frame.trace_id);
  }
  if (!res.key_valid) {
    ++stats_.rejected_key;
    station_.trace_event(trace::EventKind::kRejectKey, frame.sender, 0.0,
                         frame.trace_id);
    return;
  }
  if (j > 1) {
    // A disclosed chain element (K_{j-1}) was just accepted as authentic.
    station_.report(obs::KeyAccepted{j - 1, c_now}, frame.sender);
  }
  if (res.mac_failed) {
    ++stats_.rejected_mac;
    station_.trace_event(trace::EventKind::kRejectMac, frame.sender, 0.0,
                         frame.trace_id);
    note_rejection(frame.sender, arrival_hw);
  }

  // The beacon counts as "heard" for liveness/election purposes.
  track->consecutive_rejections = 0;
  last_accepted_interval_ = std::max(last_accepted_interval_, j);
  missed_ = 0;
  election_cw_ = cfg_->election_cw_min;

  // RULE R: yield the (tentative) reference role to an earlier transmitter.
  if ((state_ == State::kTentativeRef || state_ == State::kReference) &&
      !never_demote()) {
    const bool mine_was_earlier =
        last_tx_interval_ == j && last_tx_start_ < rx.tx_start;
    if (!mine_was_earlier) {
      force_follower_role();
      ++stats_.demotions;
      station_.trace_event(trace::EventKind::kDemotion, frame.sender);
    }
  }

  current_ref_ = frame.sender;

  if (res.authenticated) {
    // The *previous* interval's stored beacon just authenticated — the
    // auth-ok span belongs to that transmission's lifecycle, not to the
    // frame that delivered the disclosing key.
    station_.trace_event(trace::EventKind::kAuthOk, frame.sender,
                         static_cast<double>(res.authenticated->interval),
                         res.authenticated->trace_id);
    // The discipline owns the sample history: retention capacity and the
    // previous-clock-epoch age-out both derive from its declared window
    // (the paper discipline declares solver_span_bps, preserving the
    // span+1 / span+4-BP arithmetic bit-for-bit).  A screened-out sample
    // (RLS innovation gating) is booked but never blocks the §3.3 flow.
    if (!track->discipline) track->discipline = make_discipline(*cfg_);
    if (const auto screened = track->discipline->add_sample(
            RefSample{res.authenticated->arrival_hw_us,
                      res.authenticated->ts_est_us},
            schedule_.interval_us)) {
      note_verdict(*screened);
    }
    try_adjust(*track, j, res.authenticated->trace_id);
  }
}

void Sstsp::try_adjust(SenderTrack& track, std::int64_t cur_interval,
                       std::uint64_t trace_id) {
  if (state_ != State::kFollower ||
      track.discipline->size() < track.discipline->min_samples()) {
    return;
  }
  const double target =
      schedule_.emission_time(cur_interval + cfg_->m);
  const ClockParams previous{adjusted_.k(), adjusted_.b()};
  obs::Span span(station_.profiler(), obs::Phase::kFilterEval);
  const double hw_now = station_.hw_us_now();
  const DisciplineResult outcome =
      track.discipline->propose(previous, hw_now, target);
  note_verdict(outcome.verdict);
  if (!outcome.params) {
    // The legacy aggregate counts *proposal* rejections exactly as the
    // pre-API protocol did; "not enough evidence yet" is not one.
    if (verdict_is_rejection(outcome.verdict)) ++stats_.solver_rejections;
    return;
  }
  const double before = adjusted_.value_at_hw(hw_now);
  adjusted_.set_params(outcome.params->k, outcome.params->b);
  station_.report(obs::ClockAdjusted{before, adjusted_.value_at_hw(hw_now),
                                     outcome.params->k, /*coarse=*/false});
  ++stats_.adjustments;
  station_.trace_event(trace::EventKind::kAdjustment, current_ref_,
                       (outcome.params->k - 1.0) * 1e6, trace_id);
  last_sync_hw_us_ = station_.hw_us_now();
  if (!synced_) {
    // A rejoining node counts as synchronized (and re-enters the error
    // metric and contention eligibility) only once Lemma-1 convergence has
    // had a few beacons to act on the coarse step's residual offset.
    if (++resync_adjustments_ >= 3) synced_ = true;
  }
}

void Sstsp::note_verdict(DisciplineVerdict verdict) {
  // ProtocolStats sits below core and sizes the array by hand.
  static_assert(kDisciplineVerdictCount <=
                std::tuple_size_v<decltype(stats_.discipline_verdicts)>);
  ++stats_.discipline_verdicts[static_cast<std::size_t>(verdict)];
  if (auto* ins = station_.instruments()) {
    ins->on_discipline_verdict(static_cast<std::size_t>(verdict));
  }
}

void Sstsp::force_reference_role() {
  state_ = State::kReference;
  confirm_left_ = 0;
  // A forced acquisition bypasses the §3.3 contention election — the
  // monitor flags it as a takeover (only attacker/test hooks reach this).
  station_.report(obs::RoleChanged{/*is_reference=*/true,
                                   /*via_election=*/false});
  schedule_reference_emission(current_interval() + 1);
}

void Sstsp::force_follower_role() {
  state_ = State::kFollower;
  confirm_left_ = 0;
  station_.report(obs::RoleChanged{/*is_reference=*/false,
                                   /*via_election=*/true});
  cancel_tx_event();
}

void Sstsp::restart_coarse() {
  // The paper's "restart the synchronization procedure" recovery: drop all
  // fine-grained state and rescan as if (re)joining.
  state_ = State::kCoarse;
  synced_ = false;
  resync_adjustments_ = 0;
  coarse_.reset();
  coarse_bps_seen_ = 0;
  missed_ = 0;
  confirm_left_ = 0;
  tracks_ = std::vector<SenderTrack>();
  current_ref_ = mac::kNoNode;
  cancel_tx_event();
}

}  // namespace sstsp::core

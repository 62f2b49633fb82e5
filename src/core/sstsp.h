// SSTSP — the paper's Scalable Secure Time Synchronization Procedure.
//
// State machine per node:
//
//   kCoarse       (re)joining: scan beacons, filter offsets, step once.
//   kFollower     synchronized operation: verify beacons through the µTESLA
//                 pipeline, guard-check timestamps, re-solve (k, b) on every
//                 authenticated beacon; contend for the reference role after
//                 l silent BPs.
//   kTentativeRef won a contention round; keeps contending politely for
//                 `confirm_bps` intervals to flush simultaneous winners.
//   kReference    emits a secured beacon at the start of every BP (its
//                 adjusted time T^j = T0 + j*BP) with no random delay.
//
// Role hand-off rule ("RULE R" in DESIGN.md): a (tentative) reference that
// observes a valid beacon transmitted *earlier than its own* in the current
// interval demotes itself — this is how a departed reference's successor
// stabilizes, and how the internal attacker of §5 seizes the role.
//
// Election collision resolution: the paper reuses TSF's contention but does
// not specify what happens when hundreds of re-contending nodes collide
// repeatedly; we apply DCF-style window doubling per unresolved round
// (cfg.election_cw_min/max).  See DESIGN.md "Substitutions".
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "clock/adjusted_clock.h"
#include "core/adjustment.h"
#include "core/beacon_security.h"
#include "core/discipline.h"
#include "core/coarse_sync.h"
#include "core/key_directory.h"
#include "core/sstsp_config.h"
#include "protocols/station.h"
#include "protocols/sync_protocol.h"

namespace sstsp::core {

class Sstsp : public proto::SyncProtocol, private sim::TickOwner {
 public:
  enum class State { kCoarse, kFollower, kTentativeRef, kReference };

  struct Options {
    /// Boot-time nodes are assumed pre-calibrated (paper: coarse sync "can
    /// also be achieved by calibration when a node joins"); they skip the
    /// scanning phase.  Churn returners must not set this.
    bool calibrated_boot = true;
    /// Skip the initial election and start in the reference role (used by
    /// experiments that isolate convergence behaviour, e.g. Table 1).
    bool start_as_reference = false;
    /// Broadcast domain this instance lives in: outgoing beacons are stamped
    /// with it and frames from any other domain are ignored before the §3.3
    /// checks (the BSSID filter).  0 — the default — reproduces the
    /// original single-domain behaviour bit-for-bit.
    std::uint8_t domain = 0;
    /// Listen-only instance: synchronizes to the domain's reference like
    /// any follower but never contends for the role and never transmits.
    /// A gateway's uplink half uses this so its (single) µTESLA chain is
    /// only ever spent on its home-cluster schedule.
    bool passive = false;
    /// Reference busy-deferral: when the medium is busy at the no-delay
    /// slot, retry up to this many times (busy_retry_step_us apart) before
    /// giving the interval up.  Single-domain SSTSP never needs it — no
    /// honest transmitter shares slot 0 — but in multi-domain runs the
    /// schedules of independently drifting references slide through each
    /// other, and skipping l+1 intervals in a row would trigger a spurious
    /// election storm.  0 reproduces the original skip behaviour.
    int busy_retries = 0;
    double busy_retry_step_us = 250.0;
    /// Offset of this instance's µTESLA schedule origin from cfg.t0_us: a
    /// cluster domain's phase (cluster/cluster_config.h), so every domain
    /// of a deployment shares one config.  0 for single-domain SSTSP.
    double phase_us = 0.0;
  };

  /// `cfg` is shared, never copied: a deployment hands every station the
  /// same one.
  Sstsp(proto::Station& station, std::shared_ptr<const SstspConfig> cfg,
        KeyDirectory& directory, Options options);
  /// Builds on a private copy of `cfg`.
  Sstsp(proto::Station& station, const SstspConfig& cfg,
        KeyDirectory& directory, Options options)
      : Sstsp(station, std::make_shared<const SstspConfig>(cfg), directory,
              options) {}

  void start() override;
  void stop() override;
  void on_receive(const mac::Frame& frame, const mac::RxInfo& rx) override;

  [[nodiscard]] double network_time_us(sim::SimTime real) const override {
    return adjusted_.read_us(real);
  }
  [[nodiscard]] bool is_synchronized() const override {
    return synced_ && state_ != State::kCoarse;
  }
  [[nodiscard]] bool is_reference() const override {
    return state_ == State::kReference || state_ == State::kTentativeRef;
  }

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] const clk::AdjustedClock& adjusted() const {
    return adjusted_;
  }
  [[nodiscard]] mac::NodeId current_reference() const { return current_ref_; }
  [[nodiscard]] const SstspConfig& config() const { return *cfg_; }

  /// Senders whose receive state this node holds right now.
  [[nodiscard]] std::size_t sender_tracks() const { return tracks_.size(); }

  /// Recovery extension: is this sender currently locally blacklisted?
  [[nodiscard]] bool is_blacklisted(mac::NodeId sender) const;

  /// Senders whose receive state (µTESLA buffer, verified chain position,
  /// sample history) a node keeps at once; a further sender evicts one
  /// (track_for).
  static constexpr std::size_t kMaxSenderTracks = 8;

 protected:
  // ---- attacker hooks (see attack/internal_reference.h) ----------------
  /// Microseconds before the nominal schedule to start emitting (a rogue
  /// reference emits early so the honest one defers to it).
  [[nodiscard]] virtual double emission_advance_us() const { return 0.0; }
  /// Skew added to outgoing timestamps (an internal attacker lies slow).
  [[nodiscard]] virtual double timestamp_skew_us() const { return 0.0; }
  /// Malicious emitters ignore carrier sense.
  [[nodiscard]] virtual bool ignore_carrier() const { return false; }
  /// Malicious references never yield the role.
  [[nodiscard]] virtual bool never_demote() const { return false; }

  /// Forces the reference role (attacker takeover); resets confirmation.
  void force_reference_role();
  /// Forces demotion back to follower.
  void force_follower_role();
  /// Drops fine-grained state and re-enters the coarse scanning phase
  /// ("restart the synchronization procedure", §3.4).
  void restart_coarse();

  [[nodiscard]] double adjusted_now() const {
    return adjusted_.read_us(station_.sim().now());
  }
  [[nodiscard]] std::int64_t current_interval() const {
    return schedule_.interval_of(adjusted_now());
  }

  /// Guard-time threshold in force right now (base + drift growth since
  /// the last accepted beacon, capped by the coarse guard).
  [[nodiscard]] double effective_guard_us(double hw_now_us) const;

 private:
  struct SenderTrack {
    SenderTrack(mac::NodeId from, const crypto::Digest& anchor)
        : sender(from), pipeline(anchor) {}
    mac::NodeId sender;
    int consecutive_rejections{0};
    double blacklisted_until_hw_us{-1.0};
    SenderPipeline pipeline;
    /// Per-sender clock discipline (core/discipline.h): owns the
    /// authenticated sample history and the (k, b) estimator.  Built at
    /// the track's first authenticated sample; most heard senders never
    /// authenticate one.
    std::unique_ptr<ClockDiscipline> discipline;
  };

  /// The end-of-interval tick for interval tick_j_: a tick run entry
  /// (sim::Simulator::tick_at).
  void schedule_tick();
  void on_tick() override { handle_tick(tick_j_); }
  void handle_tick(std::int64_t j);
  void arm_contention(std::int64_t j, int window);
  void handle_contention_expiry(std::int64_t j);
  void schedule_reference_emission(std::int64_t j);
  void handle_reference_emission(std::int64_t j);
  void transmit_beacon(std::int64_t j);
  void finish_coarse();
  /// `trace_id` is the lifecycle ID of the just-authenticated beacon the
  /// adjustment derives from (µTESLA defers auth by one interval, so this
  /// is the *previous* interval's transmission, not the one delivering it).
  void try_adjust(SenderTrack& track, std::int64_t cur_interval,
                  std::uint64_t trace_id);
  /// The sender's track, made (and an old one evicted) on first contact;
  /// nullptr for an identity without a published anchor.  Making a track
  /// may move the others: do not hold a track across the call.
  SenderTrack* track_for(mac::NodeId sender);
  void note_rejection(mac::NodeId sender, double hw_now_us);
  /// Books a discipline verdict: per-verdict stats array, the legacy
  /// solver_rejections aggregate, and (when enabled) the metric counters.
  void note_verdict(DisciplineVerdict verdict);
  void cancel_tx_event();
  [[nodiscard]] crypto::VerifyContext verify_context() const {
    return {schedule_, &directory_.verify_cache()};
  }

  std::shared_ptr<const SstspConfig> cfg_;
  KeyDirectory& directory_;
  crypto::MuTeslaSchedule schedule_;
  clk::AdjustedClock adjusted_;
  /// This node's chain walker, built at its first transmission (most
  /// nodes never sign): keys of later intervals sit lower on the chain, so
  /// the bootstrap walk stops at the first signed interval's key.
  std::unique_ptr<crypto::MuTeslaSigner> signer_;
  Options options_;

  State state_{State::kCoarse};
  bool running_{false};
  bool synced_{false};
  bool started_before_{false};
  mac::NodeId current_ref_{mac::kNoNode};
  int missed_{0};
  int election_cw_;
  int confirm_left_{0};
  int coarse_bps_seen_{0};
  int resync_adjustments_{0};  // fine adjustments since leaving coarse
  int emission_retries_left_{0};

  /// Oldest first, at most kMaxSenderTracks, grown one slot at a time: most
  /// nodes hear a sender or two.
  std::vector<SenderTrack> tracks_;
  std::int64_t last_accepted_interval_{-1};
  std::int64_t last_tx_interval_{-1};
  std::int64_t last_tick_j_{INT64_MIN};
  double last_sync_hw_us_{0.0};  // hw clock at last sync evidence
  sim::SimTime last_tx_start_{sim::SimTime::never()};

  CoarseSync coarse_;

  sim::EventId tick_event_{0};
  std::int64_t tick_j_{0};  ///< the interval tick_event_ ends
  sim::EventId tx_event_{0};
};

}  // namespace sstsp::core

// Rentel-Kunz network synchronization (reference [1] of the paper:
// C. Rentel & T. Kunz, "Network Synchronization in Wireless Ad Hoc
// Networks", Carleton SCE-04-08, 2004).
//
// The paper's §2 summary, which this implementation follows: "all nodes
// participate equally in the synchronization of the network.  The authors
// define a controlled clock, which is an adjusted clock of the real clock,
// and a parameter s = controlled clock / real clock.  Each node
// participates in the contention with probability p every T_DELAY BPs if
// no beacons are received within the last T_DELAY beacons.  When receiving
// a beacon, the node updates s and p to synchronize to the sender."
//
// Concrete rules (faithful to that summary; internals of [1] are not in
// the paper, so the update laws are standard control-loop choices,
// documented here):
//   * controlled clock c(t) = s * t + b over the hardware clock;
//   * on each received beacon: offset half-steps toward the sender
//     (b += alpha * (ts_est - c)), and s slews toward the sender's observed
//     rate via the last two observations (EMA with gain beta);
//   * a node whose last T_DELAY BPs were beacon-silent contends with
//     probability p at its next TBTT; p decays multiplicatively after each
//     heard beacon (someone else is covering the duty) and recovers toward
//     1 during silence.
//
// Unlike TSF there is no forward-only rule: the controlled clock converges
// from both sides (and is therefore not leap-free; SSTSP's continuity
// guarantee is the paper's answer to that).
//
// The contention itself — TBTT, backoff, yielding to a received beacon,
// deferring on a busy medium, the beacon — is TsfFamilyBase's; the controlled clock is its
// timer with k = s.  This class adds the T_DELAY/p participation rule and
// replaces adoption with the controlled-clock update.
#pragma once

#include <unordered_map>
#include <utility>

#include "protocols/tsf_family.h"

namespace sstsp::proto {
struct RentelKunzParams {
  int t_delay_bps = 3;       ///< silent BPs before joining the contention
  double p_initial = 0.3;    ///< initial contention probability
  double p_decay = 0.5;      ///< p *= decay on every heard beacon
  double p_recovery = 1.15;  ///< p *= recovery per silent BP
  double p_max = 0.5;        ///< cap: keeps duty shared — the node whose
                             ///< controlled clock runs ahead reaches its
                             ///< TBTT first every round, so an uncapped p
                             ///< would let it monopolize beaconing
  double alpha = 0.5;        ///< offset half-step gain
  double beta = 0.3;         ///< rate EMA gain
  /// Physical bound on the controlled-clock rate: oscillators are within
  /// +/-100 ppm, so s outside ~3x that tolerance is estimation noise, and
  /// an unbounded s random-walks whole networks off by milliseconds.
  double s_max_ppm = 300.0;
};

class RentelKunz final : public TsfFamilyBase {
 public:
  RentelKunz(Station& station, RentelKunzParams params)
      : TsfFamilyBase(station), params_(params), p_(params.p_initial) {}

  /// A returning node waits out T_DELAY silent BPs again and forgets the
  /// rate observations it made before it left.
  void start() override {
    silent_bps_ = 0;
    last_obs_.clear();
    TsfFamilyBase::start();
  }

  [[nodiscard]] double s() const { return timer_.k(); }
  [[nodiscard]] double p() const { return p_; }

 protected:
  void on_bp_begin(std::uint64_t bp_count) override;
  [[nodiscard]] bool participates(std::uint64_t bp_count) override;
  void on_beacon(const mac::Frame& frame, const mac::RxInfo& rx) override;

 private:
  RentelKunzParams params_;
  double p_;
  int silent_bps_{0};

  /// Last (hw, ts_est) observation *per sender*: a rate estimated across
  /// two different senders would read their clock offset as frequency and
  /// random-walk s into divergence.
  std::unordered_map<mac::NodeId, std::pair<double, double>> last_obs_;
};

}  // namespace sstsp::proto

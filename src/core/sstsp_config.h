// SSTSP protocol parameters (paper §3, defaults from §5 where stated).
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>

namespace sstsp::core {

/// Clock-discipline selection + estimator knobs (core/discipline.h).  One
/// nested config block ("discipline" in the universal --config schema)
/// covers the estimator name and every parameter the estimators share with
/// the paper solver (span, slope clamp).
struct DisciplineConfig {
  /// Factory-registered estimator name ("paper", "rls", "holdover"); empty
  /// selects the paper-faithful span solver, the bit-identical default.
  std::string name{};

  /// RLS: authenticated-beacon history window.  Deeper windows keep the
  /// regression conditioned across droughts; the sample ring's capacity
  /// and the epoch age-out horizon both derive from it (discipline.h).
  int window_bps = 16;

  /// RLS: forgetting factor lambda in (0, 1]; 1 never forgets, smaller
  /// values track temperature/aging-induced rate changes faster.
  double forgetting = 0.90;

  /// RLS: innovation gate — a sample whose prediction residual exceeds
  /// this (after the estimator has primed) is screened out instead of
  /// corrupting the fit.  0 disables gating.
  double innovation_gate_us = 200.0;

  /// Holdover: a remembered drift rate older than this many beacon
  /// periods is too stale to coast on.
  int holdover_max_age_bps = 32;

  [[nodiscard]] bool configured() const { return !name.empty(); }
  [[nodiscard]] std::string_view effective_name() const {
    return name.empty() ? std::string_view("paper") : std::string_view(name);
  }
};

struct SstspConfig {
  /// Aggressiveness m (> 0): the adjusted clock is solved to converge onto
  /// the reference at the expected time of beacon j+m.  Paper Table 1
  /// sweeps m = 1..5 and finds m = 2..3 the best accuracy/latency trade-off.
  int m = 3;

  /// Missed-beacon tolerance l: a node contends for the reference role
  /// after hearing no beacon for l consecutive BPs (paper §3.3; §5 uses 1).
  int l = 1;

  /// Fine-phase guard time delta: beacons whose timestamp differs from the
  /// local adjusted clock by more than the *effective* guard are rejected
  /// (§3.3 step 3).  The effective guard is
  ///
  ///     guard_fine_us + guard_growth_us_per_s * (time since this node
  ///                             last synchronized: a successful (k, b)
  ///                             adjustment, a coarse step, or — for the
  ///                             reference — its own emission)
  ///
  /// capped at guard_coarse_us.  The growth term is the physical bound on
  /// how far two +/-100 ppm clocks can drift apart per second of silence
  /// (the paper's own premise: "the difference between any two clocks
  /// cannot drift unboundedly within a certain period of time"); without
  /// it, re-election after a reference departure would reject legitimate
  /// beacons from drifted-but-honest successors.  An attacker cannot
  /// exploit the growth without first suppressing the reference (jamming,
  /// out of scope per §4).
  /// The base must exceed twice the worst-case calibration offset of a
  /// boot-time node (±112 us in the paper's setup), or freshly booted
  /// networks reject their first elected reference and fragment.
  double guard_fine_us = 300.0;
  double guard_growth_us_per_s = 220.0;

  /// Coarse-phase guard (loose by design, §3.3): bounds the offset samples
  /// a (re)joining node will consider.  Must absorb drift over the longest
  /// expected absence (50 s at +/-100 ppm is 10 ms relative).
  double guard_coarse_us = 20000.0;

  /// Tolerance added to the µTESLA interval check (residual sync error +
  /// propagation + processing); still orders of magnitude below BP/2.
  double interval_slack_us = 2000.0;

  /// Beacon periods a (re)joining node spends scanning before it steps its
  /// clock (coarse synchronization phase).
  int coarse_scan_bps = 8;

  /// Outlier handling in the coarse phase: GESD (Song-Zhu-Cao) runs first
  /// when enough samples exist, then the threshold filter.
  bool coarse_use_gesd = true;
  std::size_t gesd_max_outliers = 3;
  double gesd_alpha = 0.05;

  /// One-way hash chain length (must cover the deployment's lifetime in
  /// BPs; 12'000 covers the paper's 1000 s runs with margin).
  std::size_t chain_length = 12000;

  /// Shared schedule origin T0 (published at network formation).
  double t0_us = 0.0;

  /// Intervals a contention winner keeps contending (random slot, normal
  /// deference) before assuming the no-delay reference role.  Breaks the
  /// two-simultaneous-winners livelock; see DESIGN.md §"contention".
  int confirm_bps = 2;

  /// Election backoff: the contention window starts at the TSF value and
  /// doubles for every consecutive unresolved election round (DCF-style),
  /// capped below.  The paper's contention description does not specify
  /// collision resolution; without this, a 500-node election never
  /// terminates (all nodes redraw from 31 slots every BP).
  int election_cw_min = 30;
  int election_cw_max = 1023;

  /// Sanity clamp on the solved slope; a solve outside this band is
  /// rejected (keeps monotonicity under pathological inputs).
  double k_min = 0.95;
  double k_max = 1.05;

  /// Target baseline, in authenticated beacons, between the two samples the
  /// (k, b) solve uses.  1 reproduces the paper's consecutive-beacon solve.
  /// A real datagram path adds delivery jitter to every arrival estimate;
  /// over a single BP that noise is the same order as the drift being
  /// measured, so the solved slope swings by O(jitter / BP) and a node that
  /// then loses a few beacons coasts away at that bogus rate.  Solving
  /// against an older sample divides the jitter-induced slope error by the
  /// span.  The live transports (net::NodeConfig / net::SwarmConfig)
  /// default this to 8; the simulator keeps 1 (its propagation delay is
  /// exactly compensated, so there is nothing to average out).
  int solver_span_bps = 1;

  /// Recovery extension (paper §3.4 future work: "sending an alert and
  /// eliminating the attackers from the network").  When > 0, a sender
  /// whose beacons fail the guard/interval/MAC checks this many times in a
  /// row is locally blacklisted for `blacklist_penalty_s`: its frames are
  /// dropped before any processing, so a detected rogue cannot keep a
  /// victim's election machinery suppressed or its buffers busy.  0 keeps
  /// the paper's detect-and-discard-only behaviour (the default).
  int blacklist_threshold = 0;
  double blacklist_penalty_s = 30.0;

  /// Clock-discipline selection (see DisciplineConfig above).  Default —
  /// an empty name — is the paper span solver with bit-identical seeded
  /// output; see DESIGN.md §14 for the bit-compatibility contract.
  DisciplineConfig discipline{};
};

/// Guard-time threshold in force `hw_now_us - last_sync_hw_us` after the
/// last piece of sync evidence: base fine guard plus the physical drift
/// bound per second of silence, capped at the coarse guard.  The one
/// definition of the §3.3 check: every Sstsp instance evaluates it, cluster
/// members and gateway uplinks included.
[[nodiscard]] inline double effective_guard_us(const SstspConfig& cfg,
                                               double hw_now_us,
                                               double last_sync_hw_us) {
  const double silence_s = std::max(0.0, (hw_now_us - last_sync_hw_us) * 1e-6);
  const double guard =
      cfg.guard_fine_us + cfg.guard_growth_us_per_s * silence_s;
  return std::min(guard, cfg.guard_coarse_us);
}

}  // namespace sstsp::core

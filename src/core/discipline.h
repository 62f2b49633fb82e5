// Pluggable clock disciplines: authenticated RefSamples in, ClockParams out.
//
// The paper re-solves the two adjusted-clock parameters (k, b) from the two
// most recent authenticated beacons (§3.3, eq. 2-5) — a 2-point solve that
// swings hard under timestamp quantization, delivery jitter and sparse
// evidence.  A ClockDiscipline owns exactly that decision: it observes the
// per-sender stream of authenticated (local-hw, reference-time) samples and,
// on request, proposes new ClockParams with a typed DisciplineVerdict.  The
// protocol state machine (core/sstsp.cpp) stays estimator-agnostic: it feeds
// samples, asks for proposals, applies the ones that carry params.
//
// Registered disciplines:
//
//   "paper"     the §3.3 span solver (core/adjustment.h), the default.
//               Bit-compatibility contract: with discipline unset *or set to
//               "paper"*, every solved (k, b), every counter and every byte
//               of seeded run output is identical to the pre-API protocol
//               (tests/discipline_golden_test.cpp pins this).
//   "rls"       recursive least squares over a deeper sample window with a
//               forgetting factor and innovation gating, after the Newton
//               adaptive tracker of arXiv:1810.05837.  Fits (offset, drift,
//               drift rate) jointly and Newton-solves the target crossing,
//               so quantization noise averages out across the window and the
//               fit does not lag a thermal drift ramp.
//   "holdover"  the paper solver plus drift-rate memory: when a beacon
//               drought leaves a single fresh sample, it coasts on the last
//               fitted rate instead of waiting for a second beacon.
//
// Sample-history ownership: the per-sender sample history lives in the
// discipline base class, as a ring of W+1 samples (obs::Ring) sized and
// allocated on the first add_sample — the window is virtual, so it cannot
// be asked at construction, and a sender that never authenticates a beacon
// costs no history storage.  Capacity and the epoch age-out horizon both
// derive from the discipline's declared window W: W+1 samples are retained
// and an entry older than (W + kEpochGapSlackBps) beacon periods behind the
// newest is treated as a previous clock epoch and dropped — RLS asks for
// deeper history without touching protocol code.  Appending, ageing out and
// the estimators' oldest-first re-ingest are O(1) per sample.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/adjustment.h"
#include "obs/json.h"
#include "obs/ring.h"

namespace sstsp::core {

/// Beacon periods past the declared window before a sample counts as a
/// previous clock epoch (a healed partition, a returned contender) rather
/// than usable history.
inline constexpr double kEpochGapSlackBps = 4.0;

class ClockDiscipline {
 public:
  virtual ~ClockDiscipline() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Declared history window W in authenticated beacons: W+1 samples are
  /// retained, entries aging past (W + kEpochGapSlackBps) BPs are dropped.
  /// Fixed for the discipline's lifetime: the history is sized from it at
  /// the first add_sample.
  [[nodiscard]] virtual int history_window_bps() const = 0;

  /// Samples required before propose() can be asked at all.
  [[nodiscard]] virtual std::size_t min_samples() const { return 2; }

  /// Feeds one authenticated sample (newest) and prunes history to the
  /// declared window; `bp_us` is the beacon period.  Returns a verdict only
  /// when the discipline screened the sample out (e.g. innovation gating) —
  /// the sample still enters the history either way.
  std::optional<DisciplineVerdict> add_sample(const RefSample& sample,
                                              double bp_us);

  /// Proposes new ClockParams for convergence at `target_us` (the paper's
  /// T^{j+m}).  `t_now_us` is the local hardware clock at the adjustment
  /// instant.  Call only when size() >= min_samples().
  [[nodiscard]] virtual DisciplineResult propose(const ClockParams& previous,
                                                 double t_now_us,
                                                 double target_us) = 0;

  /// Drops all history and estimator state (coarse restart, epoch change).
  void reset();

  /// Retained samples, oldest first.
  [[nodiscard]] const obs::Ring<RefSample>& samples() const {
    return samples_;
  }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }

 protected:
  /// Estimator ingest hook; runs after `sample` is appended and the history
  /// pruned.  Return a verdict to report the sample as screened out.
  virtual std::optional<DisciplineVerdict> on_sample(
      const RefSample& /*sample*/) {
    return std::nullopt;
  }
  /// The age-out prune just dropped samples from a previous clock epoch;
  /// samples() holds the survivors (newest included).
  virtual void on_epoch_break() {}
  virtual void on_reset() {}

  obs::Ring<RefSample> samples_;  // newest at back; W+1 slots once used
  double last_bp_us_{0.0};        // beacon period seen by add_sample
};

/// Builds the discipline selected by cfg.discipline (default: "paper").
/// The returned object keeps a reference to `cfg`, which must outlive it —
/// core::Sstsp owns both.
[[nodiscard]] std::unique_ptr<ClockDiscipline> make_discipline(
    const SstspConfig& cfg);

/// Factory registry introspection (CLI validation, --help text).
[[nodiscard]] bool discipline_known(std::string_view name);
[[nodiscard]] const std::vector<std::string_view>& discipline_names();

/// Counter/JSON names for each DisciplineVerdict, indexed by its value.
[[nodiscard]] const std::vector<std::string>& discipline_verdict_names();

/// Applies a parsed "discipline" JSON object (or name string) onto `cfg`:
/// {"name": "rls", "span": 8, "k-min": 0.95, "k-max": 1.05, "window": 16,
///  "forgetting": 0.9, "innovation-gate": 200, "holdover-max-age": 32}.
/// An unknown key, an ill-typed or out-of-range value fails through
/// obs::json::Reader, naming the key path and line in *error ("line 4:
/// discipline.lambda: unknown key ...").
[[nodiscard]] bool apply_discipline_json(const obs::json::Value& value,
                                         SstspConfig* cfg,
                                         std::string* error);

}  // namespace sstsp::core

// Online protocol invariant monitor.
//
// A passive observer of every station's events (obs::Observers fans them
// out) that continuously checks the guarantees the paper proves or assumes,
// and turns violations into structured audit records:
//
//   clock-continuity     eq. (2): a fine-phase (k, b) re-solve preserves the
//                        adjusted value at the switch instant; only coarse
//                        steps may leap.  Also bounds the slope k.
//   lemma1-*             Lemma 1: with a live reference, the max pairwise
//                        sync error contracts geometrically (ratio
//                        ~ (m-1)/m) and then stays bounded.  Checked as (a)
//                        convergence within a beacon-budget of sustained
//                        beacon flow and (b) no divergence during quiet
//                        windows once converged.
//   key-disclosure       µTESLA security condition (§3.3 check 1): a
//                        disclosed key is only usable while the local clock
//                        is still inside its interval.  Warning records
//                        aggregate the protocol's own rejections (attack
//                        evidence); a key *accepted* outside the window is
//                        critical (broken implementation).
//   chain-regression     µTESLA one-way chain (§3.2): accepted chain
//                        indices from one sender must be monotone.
//   guard-violation      guard-time check (§3.3 check 4) rejections —
//                        attack/fault evidence, aggregated.
//   reference-takeover   a node assumed the reference role without winning
//                        an election (§3.3 contention) — the §5 internal
//                        attacker's signature move.
//   reference-schedule   a confirmed reference must emit at T^j = T0 + j*BP
//                        on its own adjusted clock with no delay (§3.3).
//   timestamp-integrity  the beacon timestamp must equal the sender's
//                        adjusted clock at tx start (§3.3's definition of
//                        B); a dragged/virtual clock violates this even
//                        when every receiver-side check passes.
//   reference-uniqueness one confirmed reference per partition per BP
//                        (§3.1/§3.3); in cluster mode, per *cluster* —
//                        every broadcast domain owns its own election.
//   cluster-*            cross-cluster Lemma-1 analogue (DESIGN.md §13):
//                        with live gateways, the inter-cluster max offset
//                        (spread of per-cluster mean global readings) must
//                        converge below hop_bound x max gateway depth and
//                        stay bounded in quiet windows.
//
// Records carry a severity (warning = evidence of external misbehaviour
// the protocol handled; critical = a protocol invariant was itself broken)
// plus the paper equation/section the invariant comes from, and aggregate
// per (kind, node, peer) so a sustained attack yields one bounded record
// with a count, not an unbounded list.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "mac/phy_params.h"
#include "obs/flat_map.h"
#include "obs/station_event.h"
#include "sim/time_types.h"
#include "trace/event_trace.h"

namespace sstsp::obs {

namespace json {
class Writer;
}  // namespace json

enum class InvariantKind : std::uint8_t {
  kClockContinuity,
  kLemma1Divergence,
  kLemma1ConvergenceTimeout,
  kKeyDisclosure,
  kChainRegression,
  kGuardViolation,
  kReferenceTakeover,
  kReferenceSchedule,
  kTimestampIntegrity,
  kReferenceUniqueness,
  kNodeFailure,
  kClusterDivergence,
  kClusterConvergenceTimeout,
  kInvariantKindCount,  // sentinel
};

inline constexpr std::size_t kInvariantKindCount =
    static_cast<std::size_t>(InvariantKind::kInvariantKindCount);

enum class Severity : std::uint8_t { kWarning, kCritical };

[[nodiscard]] std::string_view to_string(InvariantKind kind);
[[nodiscard]] std::string_view to_string(Severity severity);
/// Paper equation / lemma / section the invariant enforces.
[[nodiscard]] std::string_view paper_reference(InvariantKind kind);

/// One aggregated violation class: all occurrences of `kind` recorded by
/// `node` against `peer` (kNoNode when the invariant has no counterparty).
struct AuditRecord {
  InvariantKind kind{InvariantKind::kClockContinuity};
  Severity severity{Severity::kWarning};
  mac::NodeId node{mac::kNoNode};  ///< the node the violation was observed at
  mac::NodeId peer{mac::kNoNode};  ///< offending counterparty, if any
  std::uint64_t count{0};
  double first_t_s{0.0};
  double last_t_s{0.0};
  double worst_value_us{0.0};  ///< most extreme measured quantity
  double limit_us{0.0};        ///< the bound it was checked against
  std::string detail;          ///< first occurrence, human-readable
};

/// Appends one record as a JSON object (the element schema of
/// AuditReport's "records" array; also embedded as the "trigger" of a
/// flight-recorder dump).
void append_json(json::Writer& w, const AuditRecord& record);

/// Snapshot of every audit record of a run (stable JSON schema; see
/// DESIGN.md "Invariant monitor").
struct AuditReport {
  std::vector<AuditRecord> records;
  std::uint64_t dropped_records{0};  ///< distinct classes beyond the cap

  [[nodiscard]] bool clean() const {
    return records.empty() && dropped_records == 0;
  }
  [[nodiscard]] std::size_t critical_count() const;
  [[nodiscard]] std::size_t warning_count() const;

  /// {"records": [...], "dropped_records": N, "critical": N, "warnings": N}
  void append_json(json::Writer& w) const;
};

/// Monitor tuning; defaults match the paper's §5 environment.  Constructed
/// by the scenario runner from the run's SstspConfig.
struct InvariantConfig {
  /// Protocol-specific checks (everything except the generic event
  /// bookkeeping) only make sense for SSTSP runs.
  bool sstsp_checks = true;

  double bp_us = 1e5;  ///< beacon period
  int m = 3;           ///< Lemma 1 contraction parameter
  int l = 1;           ///< missed-beacon tolerance
  double t0_us = 0.0;
  double interval_slack_us = 2000.0;
  double k_min = 0.95;
  double k_max = 1.05;

  /// Continuity: |c_after - c_before| at the re-solve instant.  The solver
  /// is exact up to floating-point cancellation (~1e-7 us at 1000 s).
  double continuity_tolerance_us = 0.5;

  /// Timestamp integrity / reference schedule: floor() rounding of the
  /// stamped value keeps the honest residual under 1 us.
  double timestamp_tolerance_us = 5.0;

  /// Lemma 1: converged once the sampled max error is below the industry
  /// threshold; diverged if a *quiet-window* sample later exceeds 2x it.
  double converged_threshold_us = 25.0;
  double diverge_threshold_us = 50.0;

  /// BPs of sustained beacon flow a cold network gets to converge (Lemma 1
  /// needs ~log(offset/target)/log(m/(m-1)) beacons; 50 is generous).
  int convergence_budget_bps = 50;

  /// Quiet window: divergence is only judged this many BPs after the last
  /// role event (election / demotion / takeover) and only while beacons
  /// keep flowing (gap below flow_gap_bps) — re-elections and reference
  /// silence legitimately grow the error (Lemma 2, guard growth).
  int quiet_holdoff_bps = 10;
  int flow_gap_bps = 4;  ///< > l + confirm_bps: a full re-election round

  /// Cross-cluster Lemma-1 analogue (set by the runner for cluster
  /// scenarios; 0 disables the cluster checks).  The inter-cluster max
  /// offset must converge below hop_bound * max_depth and stay under twice
  /// that in quiet windows.
  int cluster_max_depth = 0;
  double cluster_hop_bound_us = 25.0;

  /// Bound on distinct (kind, severity, node, peer) record classes kept.
  std::size_t max_records = 512;
};

/// Per-node broadcast-domain facts the cluster-aware checks need: which
/// cluster a sender belongs to (reference uniqueness is per cluster) and
/// its schedule phase (T^j = t0 + phase + j*BP for that cluster).
struct NodeDomainInfo {
  int cluster{0};
  double phase_us{0.0};
};

/// The monitor.  All hooks are cheap relative to what triggers them (one
/// map/flag update); when no monitor is attached every call site is a
/// single null-pointer test.
class InvariantMonitor {
 public:
  explicit InvariantMonitor(InvariantConfig config) : cfg_(config) {}

  InvariantMonitor(const InvariantMonitor&) = delete;
  InvariantMonitor& operator=(const InvariantMonitor&) = delete;

  [[nodiscard]] const InvariantConfig& config() const { return cfg_; }

  // ---- hooks (called by obs::Observers and the scenario runner) --------

  /// Every station event (obs/station_event.h), fanned out by
  /// obs::Observers.  Consumes the rejection kinds as aggregated
  /// attack-evidence records, beacon-tx as Lemma-1 flow liveness and the
  /// four monitor checks: clock continuity and slope, the beacon's stamp
  /// and schedule, the disclosure window and chain order of an accepted
  /// key, and role changes.
  void on_event(const StationEvent& record);

  /// Network-wide max pairwise sync error sample (the Fig. 2 series).
  void on_max_diff_sample(sim::SimTime now, double max_diff_us);

  /// Cluster mode: declares each node's cluster and schedule phase so the
  /// reference-uniqueness / schedule / disclosure checks evaluate against
  /// the sender's own domain timetable.  Indexed by node id.
  void set_cluster_topology(std::vector<NodeDomainInfo> nodes) {
    topology_ = std::move(nodes);
  }

  /// Cluster mode: inter-cluster max offset sample (spread of per-cluster
  /// mean global readings) — the cross-cluster Lemma-1 analogue's input.
  /// No-op unless cfg.cluster_max_depth > 0.
  void on_cluster_spread_sample(sim::SimTime now, double inter_cluster_us);

  /// Declares a planned disturbance window [start, end] (an injected
  /// partition or reference crash).  While the window — extended by the
  /// quiet holdoff — is active, Lemma-1 divergence/convergence-timeout and
  /// reference-uniqueness are suspended: a partition legitimately elects a
  /// second reference (§3.1 guarantees one reference *per partition*) and
  /// the error legitimately grows until the heal (Lemma 1 restarts).  All
  /// other invariants keep being enforced, so a strict-clean audit under an
  /// injected fault still certifies the recovery path.
  void add_disturbance(sim::SimTime start, sim::SimTime end);
  [[nodiscard]] const std::vector<std::pair<sim::SimTime, sim::SimTime>>&
  disturbances() const {
    return disturbances_;
  }

  /// Observer fired once per *new* record class, at first occurrence (the
  /// record already holds count = 1 and its detail).  Repeat violations
  /// aggregate silently.  Used by the flight recorder to dump retained
  /// history the moment something first goes wrong.
  using NewRecordHook =
      std::function<void(sim::SimTime now, const AuditRecord& record)>;
  void set_on_new_record(NewRecordHook hook) {
    on_new_record_ = std::move(hook);
  }

  // ---- results ---------------------------------------------------------

  [[nodiscard]] AuditReport report() const;
  [[nodiscard]] std::uint64_t total_violations() const { return total_; }

 private:
  struct Key {
    InvariantKind kind;
    Severity severity;
    mac::NodeId node;
    mac::NodeId peer;
    bool operator<(const Key& o) const {
      if (kind != o.kind) return kind < o.kind;
      if (severity != o.severity) return severity < o.severity;
      if (node != o.node) return node < o.node;
      return peer < o.peer;
    }
  };

  // One per StationEvent alternative; std::monostate is a trace event.
  void check(const trace::TraceEvent& event, std::monostate);
  void check(const trace::TraceEvent& at, const ClockAdjusted& c);
  void check(const trace::TraceEvent& at, const BeaconStamped& b);
  void check(const trace::TraceEvent& at, const KeyAccepted& k);
  void check(const trace::TraceEvent& at, const RoleChanged& r);

  void violate(InvariantKind kind, Severity severity, mac::NodeId node,
               mac::NodeId peer, sim::SimTime now, double value_us,
               double limit_us, const std::string& detail);

  [[nodiscard]] bool disturbed(sim::SimTime now) const;

  [[nodiscard]] const NodeDomainInfo& domain_of(mac::NodeId node) const {
    static constexpr NodeDomainInfo kDefault{};
    const auto idx = static_cast<std::size_t>(node);
    return idx < topology_.size() ? topology_[idx] : kDefault;
  }

  /// Nominal emission time of interval j on `sender`'s cluster timetable
  /// (phase 0 — the original single-domain behaviour — without topology).
  [[nodiscard]] double emission_time(std::int64_t j, mac::NodeId sender) const {
    return cfg_.t0_us + domain_of(sender).phase_us +
           static_cast<double>(j) * cfg_.bp_us;
  }

  InvariantConfig cfg_;

  NewRecordHook on_new_record_;

  // Aggregated records (bounded map + overflow counter).
  std::map<Key, AuditRecord> records_;
  std::uint64_t dropped_{0};
  std::uint64_t total_{0};

  // Lemma 1 state machine.
  bool converged_{false};
  /// Consecutive in-bound max-diff samples (cluster mode arms the global
  /// divergence check only after a sustained run; see invariants.cpp).
  int inbound_streak_{0};
  sim::SimTime flow_start_{sim::SimTime::never()};
  sim::SimTime last_beacon_{sim::SimTime::never()};
  sim::SimTime last_role_event_{sim::SimTime::never()};

  // µTESLA chain monotonicity: newest accepted key index per
  // (receiver, sender), keyed by receiver << 32 | sender.
  FlatMap<std::int64_t> chain_tip_;

  // Reference-uniqueness: the newest interval a confirmed reference
  // emitted in, and who it was — per cluster, since every broadcast
  // domain runs its own election (single-domain runs all map to cluster 0).
  struct RefSeen {
    std::int64_t interval{INT64_MIN};
    mac::NodeId emitter{mac::kNoNode};
  };
  std::map<int, RefSeen> last_ref_;

  // Cluster topology (empty outside cluster mode) + the cross-cluster
  // Lemma-1 analogue's state.
  std::vector<NodeDomainInfo> topology_;
  bool cluster_converged_{false};
  /// Consecutive in-bound spread samples; the divergence check only arms
  /// after a sustained run so the tau trackers' warm-up hump (the fits
  /// extrapolate wildly off their first one or two samples) is charged to
  /// the convergence budget, not misread as a quiet-window blow-up.
  int cluster_inbound_streak_{0};

  // Planned fault windows (add_disturbance); checked inclusive of the
  // quiet-holdoff extension past each end.
  std::vector<std::pair<sim::SimTime, sim::SimTime>> disturbances_;
};

}  // namespace sstsp::obs

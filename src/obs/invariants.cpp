#include "obs/invariants.h"

#include <cmath>
#include <sstream>
#include <variant>

#include "obs/json.h"

namespace sstsp::obs {

std::string_view to_string(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::kClockContinuity:
      return "clock-continuity";
    case InvariantKind::kLemma1Divergence:
      return "lemma1-divergence";
    case InvariantKind::kLemma1ConvergenceTimeout:
      return "lemma1-convergence-timeout";
    case InvariantKind::kKeyDisclosure:
      return "key-disclosure";
    case InvariantKind::kChainRegression:
      return "chain-regression";
    case InvariantKind::kGuardViolation:
      return "guard-violation";
    case InvariantKind::kReferenceTakeover:
      return "reference-takeover";
    case InvariantKind::kReferenceSchedule:
      return "reference-schedule";
    case InvariantKind::kTimestampIntegrity:
      return "timestamp-integrity";
    case InvariantKind::kReferenceUniqueness:
      return "reference-uniqueness";
    case InvariantKind::kNodeFailure:
      return "node-failure";
    case InvariantKind::kClusterDivergence:
      return "cluster-divergence";
    case InvariantKind::kClusterConvergenceTimeout:
      return "cluster-convergence-timeout";
    case InvariantKind::kInvariantKindCount:
      break;
  }
  return "?";
}

std::string_view to_string(Severity severity) {
  return severity == Severity::kCritical ? "critical" : "warning";
}

std::string_view paper_reference(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::kClockContinuity:
      return "eq. (2)";
    case InvariantKind::kLemma1Divergence:
    case InvariantKind::kLemma1ConvergenceTimeout:
      return "Lemma 1";
    case InvariantKind::kKeyDisclosure:
      return "µTESLA security condition, §3.3 check 1";
    case InvariantKind::kChainRegression:
      return "§3.2 one-way chain";
    case InvariantKind::kGuardViolation:
      return "§3.3 check 4 (guard time, eq. 5)";
    case InvariantKind::kReferenceTakeover:
      return "§3.3 contention election";
    case InvariantKind::kReferenceSchedule:
      return "§3.3 (reference emits at T^j with no delay)";
    case InvariantKind::kTimestampIntegrity:
      return "§3.3 (B carries the sender's adjusted clock)";
    case InvariantKind::kReferenceUniqueness:
      return "§3.1 (single reference per partition)";
    case InvariantKind::kNodeFailure:
      return "§5 resilience (node failed without a planned fault)";
    case InvariantKind::kClusterDivergence:
    case InvariantKind::kClusterConvergenceTimeout:
      return "cross-cluster Lemma-1 analogue (DESIGN.md §13)";
    case InvariantKind::kInvariantKindCount:
      break;
  }
  return "?";
}

std::size_t AuditReport::critical_count() const {
  std::size_t n = 0;
  for (const AuditRecord& r : records) {
    if (r.severity == Severity::kCritical) ++n;
  }
  return n;
}

std::size_t AuditReport::warning_count() const {
  return records.size() - critical_count();
}

void append_json(json::Writer& w, const AuditRecord& r) {
  w.begin_object();
  w.kv("kind", to_string(r.kind));
  w.kv("severity", to_string(r.severity));
  w.kv("paper_ref", paper_reference(r.kind));
  if (r.node != mac::kNoNode) {
    w.kv("node", static_cast<std::uint64_t>(r.node));
  } else {
    w.kv_null("node");  // network-wide invariant (Lemma 1)
  }
  if (r.peer != mac::kNoNode) {
    w.kv("peer", static_cast<std::uint64_t>(r.peer));
  } else {
    w.kv_null("peer");
  }
  w.kv("count", r.count);
  w.kv("first_t_s", r.first_t_s);
  w.kv("last_t_s", r.last_t_s);
  w.kv("worst_value_us", r.worst_value_us);
  w.kv("limit_us", r.limit_us);
  w.kv("detail", r.detail);
  w.end_object();
}

void AuditReport::append_json(json::Writer& w) const {
  w.begin_object();
  w.key("records").begin_array();
  for (const AuditRecord& r : records) {
    obs::append_json(w, r);
  }
  w.end_array();
  w.kv("dropped_records", dropped_records);
  w.kv("critical", static_cast<std::uint64_t>(critical_count()));
  w.kv("warnings", static_cast<std::uint64_t>(warning_count()));
  w.end_object();
}

void InvariantMonitor::violate(InvariantKind kind, Severity severity,
                               mac::NodeId node, mac::NodeId peer,
                               sim::SimTime now, double value_us,
                               double limit_us, const std::string& detail) {
  ++total_;
  const Key key{kind, severity, node, peer};
  auto it = records_.find(key);
  const bool is_new = it == records_.end();
  if (is_new) {
    if (records_.size() >= cfg_.max_records) {
      ++dropped_;
      return;
    }
    AuditRecord rec;
    rec.kind = kind;
    rec.severity = severity;
    rec.node = node;
    rec.peer = peer;
    rec.first_t_s = now.to_sec();
    rec.worst_value_us = value_us;
    rec.limit_us = limit_us;
    rec.detail = detail;
    it = records_.emplace(key, std::move(rec)).first;
  }
  AuditRecord& rec = it->second;
  ++rec.count;
  rec.last_t_s = now.to_sec();
  if (std::fabs(value_us) > std::fabs(rec.worst_value_us)) {
    rec.worst_value_us = value_us;
  }
  if (is_new && on_new_record_) on_new_record_(now, rec);
}

void InvariantMonitor::on_event(const StationEvent& record) {
  std::visit([&](const auto& c) { check(record.event, c); }, record.check);
}

void InvariantMonitor::check(const trace::TraceEvent& event,
                             std::monostate) {
  switch (event.kind) {
    case trace::EventKind::kBeaconTx: {
      // Lemma-1 flow liveness: a beacon arrived on schedule somewhere.
      if (last_beacon_ == sim::SimTime::never() ||
          (event.time.to_sec() - last_beacon_.to_sec()) * 1e6 >
              static_cast<double>(cfg_.flow_gap_bps) * cfg_.bp_us) {
        flow_start_ = event.time;  // (re)start the convergence budget
      }
      last_beacon_ = event.time;
      break;
    }
    case trace::EventKind::kElectionWon:
    case trace::EventKind::kDemotion:
      last_role_event_ = event.time;
      break;
    case trace::EventKind::kRejectGuard:
      if (!cfg_.sstsp_checks) break;
      violate(InvariantKind::kGuardViolation, Severity::kWarning, event.node,
              event.peer, event.time, event.value_us, 0.0,
              "beacon timestamp outside the guard window (offset " +
                  std::to_string(event.value_us) + " us); rejected");
      break;
    case trace::EventKind::kRejectInterval:
      if (!cfg_.sstsp_checks) break;
      violate(InvariantKind::kKeyDisclosure, Severity::kWarning, event.node,
              event.peer, event.time, event.value_us, cfg_.interval_slack_us,
              "beacon claimed an interval whose key may already be "
              "disclosed (replay/delay evidence); rejected");
      break;
    default:
      break;
  }
}

void InvariantMonitor::check(const trace::TraceEvent& at,
                             const ClockAdjusted& c) {
  if (!cfg_.sstsp_checks) return;
  const mac::NodeId node = at.node;
  const sim::SimTime now = at.time;
  const double new_k = c.new_k;
  if (!c.coarse) {
    const double leap = c.after_us - c.before_us;
    if (std::fabs(leap) > cfg_.continuity_tolerance_us) {
      std::ostringstream detail;
      detail << "fine-phase re-solve leaped the adjusted clock by " << leap
             << " us at the switch instant (eq. 2 requires continuity)";
      violate(InvariantKind::kClockContinuity, Severity::kCritical, node,
              mac::kNoNode, now, leap, cfg_.continuity_tolerance_us,
              detail.str());
    }
  }
  // Slope sanity in both phases: outside [k_min, k_max] the clock may stall
  // or run away (the solver is supposed to clamp, coarse steps to keep 1.0).
  if (new_k < cfg_.k_min || new_k > cfg_.k_max) {
    std::ostringstream detail;
    detail << "adjusted-clock slope k = " << new_k << " escaped ["
           << cfg_.k_min << ", " << cfg_.k_max << "]";
    violate(InvariantKind::kClockContinuity, Severity::kCritical, node,
            mac::kNoNode, now, (new_k - 1.0) * 1e6, (cfg_.k_max - 1.0) * 1e6,
            detail.str());
  }
}

void InvariantMonitor::check(const trace::TraceEvent& at,
                             const BeaconStamped& b) {
  if (!cfg_.sstsp_checks) return;
  const mac::NodeId node = at.node;
  const sim::SimTime now = at.time;
  const std::int64_t j = b.j;
  const double clock_us = b.clock_us;
  // Timestamp integrity: the stamped value must be the sender's own
  // adjusted reading at tx start (floor() rounding aside).  An attacker
  // stamping a dragged virtual clock violates this continuously even
  // though every receiver-side check passes.
  const double skew = b.ts_us - clock_us;
  if (std::fabs(skew) > cfg_.timestamp_tolerance_us) {
    std::ostringstream detail;
    detail << "beacon for interval " << j << " stamped " << skew
           << " us away from the sender's adjusted clock";
    violate(InvariantKind::kTimestampIntegrity, Severity::kWarning, node,
            mac::kNoNode, now, skew, cfg_.timestamp_tolerance_us,
            detail.str());
  }

  if (!b.as_reference) return;

  // Schedule: a confirmed reference emits at T^j on its own adjusted clock
  // with no random delay (it owns slot 0).  Early emission is the takeover
  // signature; late emission means the role logic mis-scheduled.  In
  // cluster mode the sender's own cluster timetable (phase shift) applies,
  // and lateness up to the interval slack is legitimate CSMA deferral —
  // another cluster's drifting schedule can occupy the slot.
  const double off_schedule = clock_us - emission_time(j, node);
  const double late_allowance = cfg_.cluster_max_depth > 0
                                    ? cfg_.interval_slack_us
                                    : cfg_.timestamp_tolerance_us;
  if (off_schedule < -cfg_.timestamp_tolerance_us ||
      off_schedule > late_allowance) {
    std::ostringstream detail;
    detail << "confirmed reference emitted interval " << j << " beacon "
           << off_schedule << " us off its nominal T^j";
    violate(InvariantKind::kReferenceSchedule, Severity::kWarning, node,
            mac::kNoNode, now, off_schedule,
            off_schedule < 0.0 ? cfg_.timestamp_tolerance_us : late_allowance,
            detail.str());
  }

  // Uniqueness: at most one confirmed reference emission per interval —
  // per cluster, since each broadcast domain runs its own election.
  // Suspended during planned disturbance windows: a partition legitimately
  // has one reference per side (§3.1), and the post-heal RULE R round is
  // covered by the window's holdoff extension.
  RefSeen& seen = last_ref_[domain_of(node).cluster];
  if (seen.interval == j && seen.emitter != node && !disturbed(now)) {
    std::ostringstream detail;
    detail << "two confirmed references (" << seen.emitter << " and " << node
           << ") emitted in interval " << j << " of cluster "
           << domain_of(node).cluster;
    violate(InvariantKind::kReferenceUniqueness, Severity::kWarning, node,
            seen.emitter, now, 0.0, 0.0, detail.str());
  }
  if (j >= seen.interval) {
    seen.interval = j;
    seen.emitter = node;
  }
}

void InvariantMonitor::check(const trace::TraceEvent& at,
                             const KeyAccepted& k) {
  if (!cfg_.sstsp_checks) return;
  const mac::NodeId node = at.node;
  const mac::NodeId sender = at.peer;
  const sim::SimTime now = at.time;
  const std::int64_t key_index = k.key_index;
  const double local_us = k.local_us;
  // µTESLA security condition, re-derived independently of the pipeline:
  // key K_{key_index} is disclosed inside the beacon of interval
  // key_index + 1, so accepting it is only safe while the local clock is
  // still inside that interval (± slack).  An acceptance outside the
  // window means the receiver-side check is broken — critical.
  const double center = emission_time(key_index + 1, sender);
  const double half = cfg_.bp_us / 2.0;
  const double lo = center - half - cfg_.interval_slack_us;
  const double hi = center + half + cfg_.interval_slack_us;
  if (local_us < lo || local_us > hi) {
    const double excess = local_us > hi ? local_us - hi : local_us - lo;
    std::ostringstream detail;
    detail << "key for interval " << key_index
           << " accepted with the local clock " << excess
           << " us outside its disclosure window";
    violate(InvariantKind::kKeyDisclosure, Severity::kCritical, node, sender,
            now, excess, cfg_.interval_slack_us, detail.str());
  }

  // Chain monotonicity: accepted indices from one sender never regress.
  // Re-accepting the *same* index is legitimate µTESLA — a disclosed key
  // is public, and a gateway's member beacon and bridge announcement of
  // one interval both carry K_{j-1} (as do duplicated frames under the
  // fault layer's dup plans); only going backwards breaks the one-way
  // chain property.
  auto [tip, inserted] = chain_tip_.try_emplace(
      (static_cast<std::uint64_t>(node) << 32) | sender, key_index);
  if (!inserted) {
    if (key_index < *tip) {
      std::ostringstream detail;
      detail << "accepted chain index " << key_index
             << " after already accepting " << *tip << " from the same sender";
      violate(InvariantKind::kChainRegression, Severity::kCritical, node,
              sender, now, static_cast<double>(*tip - key_index) * cfg_.bp_us,
              0.0, detail.str());
    } else {
      *tip = key_index;
    }
  }
}

void InvariantMonitor::check(const trace::TraceEvent& at,
                             const RoleChanged& r) {
  last_role_event_ = at.time;
  if (!cfg_.sstsp_checks) return;
  if (r.is_reference && !r.via_election) {
    violate(InvariantKind::kReferenceTakeover, Severity::kWarning, at.node,
            mac::kNoNode, at.time, 0.0, 0.0,
            "node assumed the reference role without winning a contention "
            "election");
  }
}

void InvariantMonitor::on_max_diff_sample(sim::SimTime now,
                                          double max_diff_us) {
  if (!cfg_.sstsp_checks) return;
  const double now_s = now.to_sec();

  const bool flowing =
      last_beacon_ != sim::SimTime::never() &&
      (now_s - last_beacon_.to_sec()) * 1e6 <
          static_cast<double>(cfg_.flow_gap_bps) * cfg_.bp_us;
  const bool role_quiet =
      last_role_event_ == sim::SimTime::never() ||
      (now_s - last_role_event_.to_sec()) * 1e6 >
          static_cast<double>(cfg_.quiet_holdoff_bps) * cfg_.bp_us;

  if (max_diff_us <= cfg_.converged_threshold_us) {
    // In cluster mode the network-wide error rides on the gateway tau
    // trackers, whose first fits overshoot before enough samples arrive:
    // require a sustained in-bound run before arming the divergence check
    // so the warm-up hump is charged to the convergence budget instead.
    if (cfg_.cluster_max_depth <= 0 || ++inbound_streak_ >= 10) {
      converged_ = true;
    }
    return;
  }
  inbound_streak_ = 0;

  // Planned disturbance (injected partition / reference crash): the error
  // legitimately grows until the heal; Lemma 1's clock restarts afterwards.
  if (disturbed(now)) {
    converged_ = false;
    flow_start_ = now;  // restart the convergence budget at the window edge
    return;
  }

  if (!converged_) {
    // Convergence timeout: with sustained beacon flow, Lemma 1 contracts
    // the initial offset by (m-1)/m per beacon — the budget is generous.
    if (flowing && flow_start_ != sim::SimTime::never() &&
        (now_s - flow_start_.to_sec()) * 1e6 >
            static_cast<double>(cfg_.convergence_budget_bps) * cfg_.bp_us) {
      std::ostringstream detail;
      detail << "max sync error still " << max_diff_us << " us after "
             << cfg_.convergence_budget_bps
             << " BPs of sustained beacon flow";
      violate(InvariantKind::kLemma1ConvergenceTimeout, Severity::kCritical,
              mac::kNoNode, mac::kNoNode, now, max_diff_us,
              cfg_.converged_threshold_us, detail.str());
    }
    return;
  }

  // Divergence: once converged, quiet-window samples (no recent role churn,
  // beacons flowing) must stay bounded — Lemma 1's steady state.
  if (flowing && role_quiet && max_diff_us > cfg_.diverge_threshold_us) {
    std::ostringstream detail;
    detail << "max sync error grew to " << max_diff_us
           << " us in a quiet window (reference live, no role churn)";
    violate(InvariantKind::kLemma1Divergence, Severity::kCritical,
            mac::kNoNode, mac::kNoNode, now, max_diff_us,
            cfg_.diverge_threshold_us, detail.str());
  }
}

void InvariantMonitor::on_cluster_spread_sample(sim::SimTime now,
                                                double inter_cluster_us) {
  if (!cfg_.sstsp_checks || cfg_.cluster_max_depth <= 0) return;
  const double now_s = now.to_sec();
  // Cross-cluster Lemma-1 analogue: each gateway hop adds one bounded
  // translation error, so the spread of per-cluster means is bounded by
  // hop_bound * depth once all bridges are live.
  const double bound = cfg_.cluster_hop_bound_us *
                       static_cast<double>(cfg_.cluster_max_depth);

  const bool flowing =
      last_beacon_ != sim::SimTime::never() &&
      (now_s - last_beacon_.to_sec()) * 1e6 <
          static_cast<double>(cfg_.flow_gap_bps) * cfg_.bp_us;
  const bool role_quiet =
      last_role_event_ == sim::SimTime::never() ||
      (now_s - last_role_event_.to_sec()) * 1e6 >
          static_cast<double>(cfg_.quiet_holdoff_bps) * cfg_.bp_us;

  if (inter_cluster_us <= bound) {
    if (++cluster_inbound_streak_ >= 10) cluster_converged_ = true;
    return;
  }
  cluster_inbound_streak_ = 0;
  if (disturbed(now)) {
    // A gateway crash/partition legitimately detaches clusters; bridging
    // restarts the contraction after the heal.
    cluster_converged_ = false;
    return;
  }
  if (!cluster_converged_) {
    // Convergence budget: per-cluster Lemma 1 plus one announcement round
    // per gateway hop; the intra-cluster budget scaled by the depth chain
    // is generous.
    const double budget_us =
        static_cast<double>(cfg_.convergence_budget_bps *
                            (1 + cfg_.cluster_max_depth)) *
        cfg_.bp_us;
    if (flowing && flow_start_ != sim::SimTime::never() &&
        (now_s - flow_start_.to_sec()) * 1e6 > budget_us) {
      std::ostringstream detail;
      detail << "inter-cluster max offset still " << inter_cluster_us
             << " us (bound " << bound << " us at depth "
             << cfg_.cluster_max_depth << ") after the convergence budget";
      violate(InvariantKind::kClusterConvergenceTimeout, Severity::kCritical,
              mac::kNoNode, mac::kNoNode, now, inter_cluster_us, bound,
              detail.str());
    }
    return;
  }
  if (flowing && role_quiet && inter_cluster_us > 2.0 * bound) {
    std::ostringstream detail;
    detail << "inter-cluster max offset grew to " << inter_cluster_us
           << " us in a quiet window (bound " << bound << " us, depth "
           << cfg_.cluster_max_depth << ")";
    violate(InvariantKind::kClusterDivergence, Severity::kCritical,
            mac::kNoNode, mac::kNoNode, now, inter_cluster_us, 2.0 * bound,
            detail.str());
  }
}

void InvariantMonitor::add_disturbance(sim::SimTime start, sim::SimTime end) {
  disturbances_.emplace_back(start, end);
}

bool InvariantMonitor::disturbed(sim::SimTime now) const {
  const double holdoff_us =
      static_cast<double>(cfg_.quiet_holdoff_bps) * cfg_.bp_us;
  for (const auto& [start, end] : disturbances_) {
    const sim::SimTime extended =
        (end == sim::SimTime::never())
            ? end
            : end + sim::SimTime::from_us_double(holdoff_us);
    if (now >= start && now <= extended) return true;
  }
  return false;
}

AuditReport InvariantMonitor::report() const {
  AuditReport out;
  out.records.reserve(records_.size());
  for (const auto& [key, rec] : records_) out.records.push_back(rec);
  out.dropped_records = dropped_;
  return out;
}

}  // namespace sstsp::obs

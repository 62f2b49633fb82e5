// StationEvent: the one record a station hands its observers.
//
// Most records are protocol trace events (trace::TraceEvent).  Four more
// carry what only the invariant monitor checks: a clock re-solve, a beacon's
// stamp, an accepted disclosed key and a role change.  They never enter the
// trace ring, the JSONL stream or the event.* counters.  One record type is
// what lets the sharded kernel buffer a shard's events and replay them, in
// one global order, into the control timeline's observers (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <variant>

#include "trace/event_trace.h"

namespace sstsp::obs {

/// A fine-phase (k, b) re-solve or a coarse step: the adjusted readings at
/// the same hardware instant just before and just after the change.
struct ClockAdjusted {
  double before_us;
  double after_us;
  double new_k;
  bool coarse;
};

/// A beacon left for interval `j`, stamped `ts_us`, while the sender's
/// adjusted clock read `clock_us`; `as_reference` is whether the sender held
/// the confirmed reference role.
struct BeaconStamped {
  std::int64_t j;
  double ts_us;
  double clock_us;
  bool as_reference;
};

/// The receiver accepted the disclosed key of the event's peer for interval
/// `key_index` (= j - 1) while its own adjusted clock read `local_us`.
struct KeyAccepted {
  std::int64_t key_index;
  double local_us;
};

/// A role transition.  `via_election` tells the legitimate paths
/// (contention win, preestablished boot) from a forced takeover.
struct RoleChanged {
  bool is_reference;
  bool via_election;
};

/// What a record carries beyond the trace event: nothing (std::monostate)
/// for a trace event, else one monitor check.
using MonitorCheck = std::variant<std::monostate, ClockAdjusted,
                                  BeaconStamped, KeyAccepted, RoleChanged>;

struct StationEvent {
  // Implicit from a trace event, so trace-only callers stay unchanged.
  StationEvent(const trace::TraceEvent& e, MonitorCheck c = {})  // NOLINT
      : event(e), check(c) {}

  /// Time, node and peer always; kind, value and trace id when traced().
  trace::TraceEvent event;
  MonitorCheck check;

  [[nodiscard]] bool traced() const { return check.index() == 0; }
};

}  // namespace sstsp::obs

// Flight recorder: bounded retention of the most recent protocol trace
// events and telemetry samples, dumped as a post-mortem when something goes
// wrong — a new monitor audit record, an unplanned node failure, or an
// operator SIGUSR1.
//
// The trace fan-out (Station::trace_event) already streams every event to
// any attached observer; this adds the *bounded* retention layer so a
// long-lived node can keep its last seconds of history at O(capacity)
// memory, and turn an opaque `kNodeFailure` audit into "here is exactly
// what it did in its final seconds".
//
// Dump format (JSONL, appended to the recorder's sink):
//   {"type":"flight_dump","seq":S,"t_s":...,"reason":R,"trigger":{...}|null,
//    "events_recorded":N,"events_retained":K,"samples_retained":M}
//   {"type":"event",...,"flight_seq":S}        x K   (oldest -> newest)
//   {"type":"telemetry",...,"flight_seq":S}    x M   (oldest -> newest)
//   {"type":"flight_dump_end","seq":S}
// The flight_seq tag lets sstsp_tracetool tell replayed history apart from
// the live streams when both files are merged.
//
// Audit-triggered dumps fire once per *new* audit record class (the monitor
// aggregates repeats into existing records) and are additionally capped, so
// a misbehaving run bounds its post-mortem output; dump-request (SIGUSR1)
// and node-failure dumps are never suppressed.
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/invariants.h"
#include "obs/ring.h"
#include "obs/telemetry.h"
#include "trace/event_trace.h"

namespace sstsp::obs {

class FlightRecorder {
 public:
  struct Config {
    std::size_t event_capacity{512};
    std::size_t sample_capacity{64};
    /// Cap on audit-record-triggered dumps (later triggers are counted but
    /// not dumped); explicit dump()/dump-request calls are never capped.
    std::size_t max_audit_dumps{8};
  };

  /// The sink is borrowed and must outlive the recorder; nullptr disables
  /// dumping (events are still retained, for tests to inspect).
  FlightRecorder(const Config& config, JsonlSink* sink)
      : cfg_(config),
        sink_(sink),
        events_(config.event_capacity),
        samples_(config.sample_capacity) {}

  /// Ring-buffer push; oldest event evicted at capacity.
  void on_trace_event(const trace::TraceEvent& event);

  /// Retains the newest telemetry samples alongside the events.
  void on_sample(const TelemetrySample& sample);

  /// Audit trigger path: dumps with reason "audit-record" unless the
  /// audit-dump cap is exhausted.
  void on_audit_record(double now_s, const AuditRecord& record);

  /// Writes one complete dump of the retained history to the sink.
  /// `reason` is free-form ("audit-record", "node-failure",
  /// "dump-request"); `trigger` optionally attaches the audit record that
  /// fired the dump.
  void dump(double now_s, std::string_view reason,
            const AuditRecord* trigger);

  [[nodiscard]] std::uint64_t events_recorded() const {
    return events_recorded_;
  }
  [[nodiscard]] std::size_t events_retained() const { return events_.size(); }
  [[nodiscard]] std::size_t samples_retained() const {
    return samples_.size();
  }
  [[nodiscard]] std::uint64_t dumps_written() const { return dumps_; }
  [[nodiscard]] std::uint64_t audit_dumps_suppressed() const {
    return audit_suppressed_;
  }
  [[nodiscard]] const Ring<trace::TraceEvent>& events() const {
    return events_;
  }

 private:
  Config cfg_;
  JsonlSink* sink_;
  Ring<trace::TraceEvent> events_;
  Ring<TelemetrySample> samples_;
  std::uint64_t events_recorded_{0};
  std::uint64_t dumps_{0};
  std::uint64_t audit_dumps_{0};
  std::uint64_t audit_suppressed_{0};
};

}  // namespace sstsp::obs

#include "obs/flight_recorder.h"

#include <sstream>

#include "obs/json.h"

namespace sstsp::obs {
namespace {

// Mirrors obs::write_event_jsonl, plus the flight_seq tag that marks the
// line as replayed history rather than part of the live stream.
std::string flight_event_line(const trace::TraceEvent& event,
                              std::uint64_t seq) {
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object();
  w.kv("type", "event");
  w.kv("t_s", event.time.to_sec());
  w.kv("node", static_cast<std::uint64_t>(event.node));
  w.kv("kind", to_string(event.kind));
  if (event.peer != mac::kNoNode) {
    w.kv("peer", static_cast<std::uint64_t>(event.peer));
  }
  if (event.trace_id != 0) w.kv("trace_id", event.trace_id);
  w.kv("value_us", event.value_us);
  w.kv("flight_seq", seq);
  w.end_object();
  return os.str();
}

std::string flight_sample_line(const TelemetrySample& sample,
                               std::uint64_t seq) {
  // telemetry_to_jsonl ends with the closing brace; splice the tag in.
  std::string line = telemetry_to_jsonl(sample);
  line.pop_back();  // '}'
  line += ",\"flight_seq\":" + std::to_string(seq) + "}";
  return line;
}

}  // namespace

void FlightRecorder::on_trace_event(const trace::TraceEvent& event) {
  ++events_recorded_;
  events_.push_back(event);
}

void FlightRecorder::on_sample(const TelemetrySample& sample) {
  samples_.push_back(sample);
}

void FlightRecorder::on_audit_record(double now_s, const AuditRecord& record) {
  if (audit_dumps_ >= cfg_.max_audit_dumps) {
    ++audit_suppressed_;
    return;
  }
  ++audit_dumps_;
  dump(now_s, "audit-record", &record);
}

void FlightRecorder::dump(double now_s, std::string_view reason,
                          const AuditRecord* trigger) {
  const std::uint64_t seq = ++dumps_;
  if (sink_ == nullptr || !sink_->is_open()) return;

  std::ostringstream header;
  {
    json::Writer w(header);
    w.begin_object();
    w.kv("type", "flight_dump");
    w.kv("seq", seq);
    w.kv("t_s", now_s);
    w.kv("reason", reason);
    w.key("trigger");
    if (trigger != nullptr) {
      append_json(w, *trigger);
    } else {
      w.null();
    }
    w.kv("events_recorded", events_recorded_);
    w.kv("events_retained", static_cast<std::uint64_t>(events_.size()));
    w.kv("samples_retained", static_cast<std::uint64_t>(samples_.size()));
    w.end_object();
  }
  sink_->write_line(header.str());

  for (const trace::TraceEvent& event : events_) {
    sink_->write_line(flight_event_line(event, seq));
  }
  for (const TelemetrySample& sample : samples_) {
    sink_->write_line(flight_sample_line(sample, seq));
  }

  std::ostringstream footer;
  {
    json::Writer w(footer);
    w.begin_object();
    w.kv("type", "flight_dump_end");
    w.kv("seq", seq);
    w.end_object();
  }
  sink_->write_line(footer.str());
}

}  // namespace sstsp::obs

#include "obs/flight_recorder.h"

#include <sstream>

#include "obs/export.h"
#include "obs/json.h"

namespace sstsp::obs {
namespace {

// Tags one JSON object line with flight_seq, marking it as replayed
// history rather than part of the live stream.
std::string flight_line(std::string line, std::uint64_t seq) {
  line.pop_back();  // '}'
  return line + ",\"flight_seq\":" + std::to_string(seq) + "}";
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
    std::ostringstream line;
    write_event_jsonl(line, event);
    std::string text = line.str();
    text.pop_back();  // '\n'
    sink_->write_line(flight_line(std::move(text), seq));
  }
  for (const TelemetrySample& sample : samples_) {
    sink_->write_line(flight_line(telemetry_to_jsonl(sample), seq));
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

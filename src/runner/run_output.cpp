#include "runner/run_output.h"

#include <algorithm>
#include <ostream>

#include "metrics/report.h"
#include "net/prom_exporter.h"
#include "obs/export.h"
#include "runner/json_report.h"

namespace sstsp::run {

void print_result_summary(std::ostream& out, const RunResult& result) {
  const auto& honest = result.honest;
  out << "\nsync latency (<25 us sustained): "
      << (result.sync_latency_s
              ? metrics::fmt(*result.sync_latency_s, 2) + " s"
              : std::string("never"))
      << "\nsteady max / p99 clock difference: "
      << (result.steady_max_us ? metrics::fmt(*result.steady_max_us, 2)
                               : std::string("-"))
      << " / "
      << (result.steady_p99_us ? metrics::fmt(*result.steady_p99_us, 2)
                               : std::string("-"))
      << " us\nbeacons: " << result.channel.transmissions << " ("
      << result.channel.collided_transmissions << " collided), "
      << result.channel.bytes_on_air << " bytes on air\n"
      << "adjustments/adoptions: " << honest.adjustments << "/"
      << honest.adoptions << ", elections " << honest.elections_won
      << ", rejections g/i/k/m " << honest.rejected_guard << "/"
      << honest.rejected_interval << "/" << honest.rejected_key << "/"
      << honest.rejected_mac << '\n';

  if (result.cluster_steady_max_us || !result.cluster_spread.empty()) {
    out << "steady inter-cluster spread: "
        << (result.cluster_steady_max_us
                ? metrics::fmt(*result.cluster_steady_max_us, 2) + " us"
                : std::string("-"))
        << '\n';
  }

  if (result.net) {
    const auto& net = *result.net;
    out << "wire: " << net.frames_sent << " frames sent, "
        << net.frames_received << " received ("
        << net.transport.datagrams_sent << "/"
        << net.transport.datagrams_received << " datagrams, "
        << net.transport.bytes_sent << "/" << net.transport.bytes_received
        << " bytes), " << net.decode_errors << " decode errors, "
        << net.self_frames_dropped << " self echoes dropped";
    if (net.stale_frames_dropped > 0) {
      out << ", " << net.stale_frames_dropped << " stale frames skipped";
    }
    if (net.transport.send_errors + net.transport.recv_errors > 0) {
      out << ", " << net.transport.send_errors << " send / "
          << net.transport.recv_errors << " recv errors";
    }
    out << '\n';
  }

  if (result.profile) {
    out << '\n';
    result.profile->print(out);
  }

  if (result.audit) {
    const obs::AuditReport& audit = *result.audit;
    out << "\ninvariant monitor: ";
    if (audit.clean()) {
      out << "clean (0 audit records)\n";
    } else {
      out << audit.records.size() << " audit record(s), "
          << audit.critical_count() << " critical / "
          << audit.warning_count() << " warnings";
      if (audit.dropped_records > 0) {
        out << " (" << audit.dropped_records << " dropped)";
      }
      out << '\n';
      std::size_t shown = 0;
      for (const auto& r : audit.records) {
        if (shown++ == 10) {
          out << "  ... (" << audit.records.size() - 10 << " more)\n";
          break;
        }
        out << "  [" << obs::to_string(r.severity) << "] "
            << obs::to_string(r.kind) << " x" << r.count;
        if (r.node != mac::kNoNode) out << " node " << r.node;
        if (r.peer != mac::kNoNode) out << " peer " << r.peer;
        out << " t=" << metrics::fmt(r.first_t_s, 1) << ".."
            << metrics::fmt(r.last_t_s, 1) << " s — " << r.detail << " ("
            << obs::paper_reference(r.kind) << ")\n";
      }
    }
  }
}

bool RunOutput::begin(trace::EventTrace* trace, std::string* error) {
  const bool want_json = !options_.json_out_path.empty();
  const bool want_timeline = !options_.timeline_out_path.empty();
  if (!want_json && !want_timeline) return true;

  if (trace == nullptr) {
    if (error != nullptr) {
      *error = std::string(want_json ? "--json-out" : "--timeline-out") +
               " needs an event trace (internal)";
    }
    return false;
  }
  if (want_json) {
    json_out_.open(options_.json_out_path);
    if (!json_out_) {
      if (error != nullptr) {
        *error = "could not open " + options_.json_out_path;
      }
      return false;
    }
  }
  if (want_timeline &&
      !timeline_.open(options_.timeline_out_path, error)) {
    return false;
  }

  // EventTrace carries a single streaming sink, so the JSONL stream and the
  // timeline compose into one lambda when both are requested.
  if (want_json && want_timeline) {
    trace->set_sink([this](const trace::TraceEvent& e) {
      obs::write_event_jsonl(json_out_, e);
      timeline_.protocol_event(e);
    });
  } else if (want_json) {
    obs::attach_jsonl_sink(*trace, json_out_);
  } else {
    trace->set_sink(
        [this](const trace::TraceEvent& e) { timeline_.protocol_event(e); });
  }
  return true;
}

void RunOutput::attach_profiler(obs::Profiler* profiler) {
  if (profiler == nullptr || !timeline_.is_open()) return;
  span_profiler_ = profiler;
  profiler->set_span_sink(
      [this](obs::Phase phase, bool is_begin, std::uint64_t now_ns) {
        if (is_begin) {
          timeline_.phase_begin(phase, now_ns);
        } else {
          timeline_.phase_end(phase, now_ns);
        }
      });
}

int RunOutput::finish(std::ostream& out, std::ostream& err,
                      const Scenario& scenario, const RunResult& result,
                      trace::EventTrace* trace) {
  print_result_summary(out, result);

  if (options_.ascii_chart) {
    out << '\n';
    metrics::print_ascii_series(out, result.max_diff,
                                std::max(1.0, scenario.duration_s / 50.0),
                                /*log_scale=*/true);
  }
  if (!options_.csv_path.empty()) {
    if (metrics::write_csv(result.max_diff, options_.csv_path,
                           "max_clock_diff_us")) {
      out << "series written to " << options_.csv_path << '\n';
    } else {
      err << "error: could not write " << options_.csv_path << '\n';
      return 1;
    }
  }
  if (json_out_.is_open()) {
    trace->set_sink({});
    write_summary_jsonl(json_out_, scenario, result);
    if (!json_out_) {
      err << "error: failed writing " << options_.json_out_path << '\n';
      return 1;
    }
    out << "event stream written to " << options_.json_out_path << " ("
        << trace->total_recorded() << " events + summary)\n";
  }
  if (timeline_.is_open()) {
    if (span_profiler_ != nullptr) {
      span_profiler_->set_span_sink({});
      span_profiler_ = nullptr;
    }
    if (trace != nullptr && !json_out_.is_open()) trace->set_sink({});
    // Fault-plan activations and audit records land on the marks track so
    // the cause sits next to its protocol-level effect in Perfetto.
    for (const auto& p : scenario.faults.partitions) {
      timeline_.mark("partition", "fault", p.start_s);
      if (p.end_s >= 0.0) timeline_.mark("partition-heal", "fault", p.end_s);
    }
    for (const auto& f : scenario.faults.node_faults) {
      timeline_.mark(f.kind == fault::NodeFaultKind::kCrash ? "node-crash"
                                                            : "node-pause",
                     "fault", f.at_s);
      if (f.restart_s >= 0.0) {
        timeline_.mark("node-restart", "fault", f.restart_s);
      }
    }
    for (const auto& c : scenario.faults.clock_faults) {
      timeline_.mark("clock-fault", "fault", c.at_s);
    }
    if (result.audit) {
      for (const auto& r : result.audit->records) {
        timeline_.mark(obs::to_string(r.kind), "audit", r.first_t_s);
      }
    }
    const std::uint64_t written = timeline_.events_written();
    const std::uint64_t dropped = timeline_.dropped();
    timeline_.finish();
    out << "timeline written to " << options_.timeline_out_path << " ("
        << written << " trace events";
    if (dropped > 0) out << ", " << dropped << " dropped at the cap";
    out << ")\n";
  }
  if (!options_.prom_textfile_path.empty()) {
    std::string prom_error;
    if (!net::write_prometheus_textfile(options_.prom_textfile_path,
                                        net::prometheus_body(result.metrics),
                                        &prom_error)) {
      err << "error: " << prom_error << '\n';
      return 1;
    }
    out << "prometheus textfile written to " << options_.prom_textfile_path
        << '\n';
  }
  if (!options_.metrics_out_path.empty()) {
    std::ofstream metrics_out(options_.metrics_out_path);
    if (!metrics_out) {
      err << "error: could not write " << options_.metrics_out_path << '\n';
      return 1;
    }
    write_run_json(metrics_out, scenario, result);
    out << "metrics written to " << options_.metrics_out_path << '\n';
  }
  if (options_.dump_trace && trace != nullptr) {
    out << "\nnewest protocol events";
    if (options_.trace_kind) {
      out << " (" << trace::to_string(*options_.trace_kind) << " only)";
    }
    out << ":\n";
    trace->dump(out, options_.trace_limit, options_.trace_kind);
    out << "(recorded " << trace->total_recorded() << " events total, "
        << trace->dropped() << " dropped from the ring)\n";
  }
  if (options_.monitor_strict && result.audit && !result.audit->clean()) {
    err << "error: --monitor=strict and the run produced "
        << result.audit->records.size() << " audit record(s)\n";
    return 3;
  }
  return 0;
}

}  // namespace sstsp::run

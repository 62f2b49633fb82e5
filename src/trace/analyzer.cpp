#include "trace/analyzer.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "obs/json.h"
#include "obs/timeline.h"

namespace sstsp::trace {

namespace {

using obs::json::Value;

[[nodiscard]] double number_or(const Value& v, std::string_view key,
                               double fallback) {
  const Value* m = v.find(key);
  return m != nullptr && m->is_number() ? m->number : fallback;
}

[[nodiscard]] std::int64_t id_or(const Value& v, std::string_view key,
                                 std::int64_t fallback) {
  const Value* m = v.find(key);
  return m != nullptr && m->is_number()
             ? static_cast<std::int64_t>(m->number)
             : fallback;
}

[[nodiscard]] std::string string_or(const Value& v, std::string_view key,
                                    std::string fallback) {
  const Value* m = v.find(key);
  return m != nullptr && m->is_string() ? m->string : fallback;
}

[[nodiscard]] bool bool_or(const Value& v, std::string_view key,
                           bool fallback) {
  const Value* m = v.find(key);
  return m != nullptr && m->kind == Value::Kind::kBool ? m->boolean : fallback;
}

/// Per-trace_id lifecycle accumulator for the funnel stitcher.
struct Chain {
  std::int64_t tx_node = -1;
  double tx_t_s = -1.0;
  bool cross_node = false;
  double first_remote_adjust_s = -1.0;
};

[[nodiscard]] double median(std::vector<double>& v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  return v[mid];
}

}  // namespace

std::optional<TraceAnalysis> TraceAnalysis::load(
    const std::vector<std::string>& paths, std::string* error,
    const AnalyzerOptions& options) {
  TraceAnalysis out;
  out.opt_ = options;
  int file_index = 0;
  for (const auto& path : paths) {
    std::ifstream in(path);
    if (!in) {
      if (error != nullptr) *error = "cannot open " + path;
      return std::nullopt;
    }
    ++out.stats_.files;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      ++out.stats_.lines;
      const auto parsed = obs::json::parse(line);
      if (!parsed || !parsed->is_object()) {
        // Torn tail of a crashed writer, truncated copy, stray text:
        // count it and move on — a post-mortem tool must never abort on
        // the very artifact of the crash it is analyzing.
        ++out.stats_.torn;
        continue;
      }
      const Value& v = *parsed;
      const std::string type = string_or(v, "type", "");
      // Flight-recorder replays carry "flight_seq": they duplicate events
      // and samples already (or never) seen live, so they are merged for
      // reading but excluded from funnel/convergence accounting.
      const bool flight = v.find("flight_seq") != nullptr ||
                          type == "flight_dump" || type == "flight_dump_end";
      const double t_s = number_or(v, "t_s", 0.0);
      out.rows_.push_back(Row{t_s, file_index, line});

      if (flight) {
        ++out.stats_.flight_lines;
        continue;
      }
      if (type == "event") {
        ++out.stats_.events;
        EventRow e;
        e.t_s = t_s;
        e.node = id_or(v, "node", -1);
        const auto kind = kind_from_string(string_or(v, "kind", ""));
        e.kind = kind.value_or(EventKind::kEventKindCount);
        e.peer = id_or(v, "peer", -1);
        e.value_us = number_or(v, "value_us", 0.0);
        const Value* tid = v.find("trace_id");
        if (tid != nullptr && tid->is_number()) {
          e.trace_id = static_cast<std::uint64_t>(tid->number);
        }
        out.events_.push_back(e);
      } else if (type == "telemetry") {
        if (const auto s = obs::telemetry_from_json(v)) {
          if (s->node < 0) {
            ++out.stats_.samples_cluster;
            out.cluster_samples_.push_back(*s);
          } else {
            ++out.stats_.samples_node;
          }
        } else {
          // Right type, wrong schema version or mangled payload.
          ++out.stats_.torn;
        }
      } else if (type == "summary") {
        ++out.stats_.summaries;
        const Value* recovery = v.find("recovery");
        const Value* records =
            recovery != nullptr ? recovery->find("records") : nullptr;
        if (records != nullptr && records->is_array()) {
          for (const Value& r : records->array) {
            FaultMark mark;
            mark.fault = string_or(r, "fault", "fault");
            mark.node = id_or(r, "node", -1);
            mark.t_s = number_or(r, "t_s", 0.0);
            mark.resync_s = number_or(r, "resync_s", -1.0);
            mark.recovered = bool_or(r, "recovered", false);
            out.fault_marks_.push_back(std::move(mark));
          }
        }
      } else {
        ++out.stats_.other;
      }
    }
    ++file_index;
  }
  // Time-order everything once; stable sort keeps same-instant lines in
  // their per-file emission order.
  std::stable_sort(out.rows_.begin(), out.rows_.end(),
                   [](const Row& a, const Row& b) { return a.t_s < b.t_s; });
  std::stable_sort(
      out.events_.begin(), out.events_.end(),
      [](const EventRow& a, const EventRow& b) { return a.t_s < b.t_s; });
  std::stable_sort(out.cluster_samples_.begin(), out.cluster_samples_.end(),
                   [](const obs::TelemetrySample& a,
                      const obs::TelemetrySample& b) { return a.t_s < b.t_s; });
  std::stable_sort(
      out.fault_marks_.begin(), out.fault_marks_.end(),
      [](const FaultMark& a, const FaultMark& b) { return a.t_s < b.t_s; });
  return out;
}

FunnelReport TraceAnalysis::funnel() const {
  FunnelReport rep;
  std::map<std::uint64_t, Chain> chains;
  for (const EventRow& e : events_) {
    switch (e.kind) {
      case EventKind::kBeaconTx:
        ++rep.beacons_tx;
        break;
      case EventKind::kBeaconRx:
        ++rep.beacons_rx;
        break;
      case EventKind::kAuthOk:
        ++rep.auth_ok;
        break;
      case EventKind::kAdjustment:
      case EventKind::kAdoption:
        ++rep.adjustments;
        break;
      case EventKind::kRejectGuard:
      case EventKind::kRejectInterval:
      case EventKind::kRejectKey:
      case EventKind::kRejectMac:
        ++rep.rejects;
        break;
      case EventKind::kElectionWon:
        ++rep.elections;
        break;
      default:
        break;
    }
    if (e.trace_id == 0) continue;
    Chain& c = chains[e.trace_id];
    if (e.kind == EventKind::kBeaconTx) {
      c.tx_node = e.node;
      c.tx_t_s = e.t_s;
    } else if (c.tx_node >= 0 && e.node != c.tx_node) {
      c.cross_node = true;
      if ((e.kind == EventKind::kAdjustment ||
           e.kind == EventKind::kAdoption) &&
          c.first_remote_adjust_s < 0.0) {
        c.first_remote_adjust_s = e.t_s;
      }
    }
  }
  std::vector<double> latencies_us;
  for (const auto& [id, c] : chains) {
    if (c.tx_node < 0) continue;  // rx-only fragment (file subset)
    ++rep.chains;
    if (c.cross_node) ++rep.cross_node_chains;
    if (c.first_remote_adjust_s >= 0.0) {
      latencies_us.push_back((c.first_remote_adjust_s - c.tx_t_s) * 1e6);
    }
  }
  rep.median_tx_to_adjust_us = median(latencies_us);
  return rep;
}

ConvergenceReport TraceAnalysis::convergence() const {
  ConvergenceReport rep;
  for (const obs::TelemetrySample& s : cluster_samples_) {
    if (std::isfinite(s.max_offset_us)) {
      rep.cluster.push_back({s.t_s, s.max_offset_us});
    }
  }
  // First sync, then spikes: one pass over the cluster max-error series.
  const double thr = opt_.sync_threshold_us;
  bool synced_once = false;
  bool in_spike = false;
  for (const ConvergencePoint& p : rep.cluster) {
    const bool below = p.err_us <= thr;
    if (!synced_once) {
      if (below) {
        synced_once = true;
        rep.first_sync_s = p.t_s;
      }
      continue;
    }
    if (!in_spike && !below) {
      in_spike = true;
      rep.spikes.push_back({p.t_s, p.err_us, p.t_s, false, 0.0});
    } else if (in_spike) {
      ErrorSpike& spike = rep.spikes.back();
      if (!below) {
        if (p.err_us > spike.peak_us) {
          spike.peak_us = p.err_us;
          spike.peak_t_s = p.t_s;
        }
      } else {
        spike.recovered = true;
        spike.recovered_s = p.t_s;
        in_spike = false;
      }
    }
  }
  if (!rep.cluster.empty()) {
    rep.final_max_offset_us = rep.cluster.back().err_us;
  }
  return rep;
}

std::vector<RecoveryCurve> TraceAnalysis::recovery_curves(
    const std::vector<FaultMark>& marks, double pre_s, double post_s) const {
  const ConvergenceReport conv = convergence();
  std::vector<RecoveryCurve> curves;
  curves.reserve(marks.size());
  for (const FaultMark& mark : marks) {
    RecoveryCurve curve;
    curve.mark = mark;
    for (const ConvergencePoint& p : conv.cluster) {
      if (p.t_s >= mark.t_s - pre_s && p.t_s <= mark.t_s + post_s) {
        curve.curve.push_back(p);
      }
    }
    curves.push_back(std::move(curve));
  }
  return curves;
}

bool TraceAnalysis::write_merged_jsonl(const std::string& path,
                                       std::string* error) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  for (const Row& row : rows_) out << row.line << '\n';
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write failed: " + path;
    return false;
  }
  return true;
}

bool TraceAnalysis::write_timeline_csv(const std::string& path,
                                       std::string* error) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  out << "t_s,node,err_us,synced\n";
  for (const obs::TelemetrySample& s : cluster_samples_) {
    if (std::isfinite(s.max_offset_us)) {
      const bool synced = s.max_offset_us <= opt_.sync_threshold_us;
      out << s.t_s << ",-1," << s.max_offset_us << ',' << (synced ? 1 : 0)
          << '\n';
    }
    for (const auto& ne : s.node_errors) {
      out << s.t_s << ',' << ne.node << ',' << ne.err_us << ','
          << (ne.synced ? 1 : 0) << '\n';
    }
  }
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write failed: " + path;
    return false;
  }
  return true;
}

bool TraceAnalysis::write_timeline_trace(const std::string& path,
                                         std::string* error) const {
  obs::TimelineWriter w;
  if (!w.open(path, error)) return false;
  for (const EventRow& e : events_) {
    if (e.kind == EventKind::kEventKindCount) continue;  // unknown name
    TraceEvent ev;
    ev.time = sim::SimTime::from_sec_double(e.t_s);
    ev.node = e.node >= 0 ? static_cast<mac::NodeId>(e.node) : mac::kNoNode;
    ev.kind = e.kind;
    ev.peer = e.peer >= 0 ? static_cast<mac::NodeId>(e.peer) : mac::kNoNode;
    ev.value_us = e.value_us;
    ev.trace_id = e.trace_id;
    w.protocol_event(ev);
  }
  for (const obs::TelemetrySample& s : cluster_samples_) {
    if (std::isfinite(s.max_offset_us)) {
      w.counter("cluster max offset (us)", s.t_s, s.max_offset_us);
    }
    w.counter("event queue depth", s.t_s,
              static_cast<double>(s.queue_depth));
  }
  for (const FaultMark& m : fault_marks_) {
    w.mark(m.fault, "fault", m.t_s);
  }
  w.finish();
  return true;
}

bool TraceAnalysis::write_curves_csv(const std::vector<RecoveryCurve>& curves,
                                     const std::string& path,
                                     std::string* error) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  out << "fault,node,fault_t_s,t_s,err_us\n";
  for (const RecoveryCurve& c : curves) {
    for (const ConvergencePoint& p : c.curve) {
      out << c.mark.fault << ',' << c.mark.node << ',' << c.mark.t_s << ','
          << p.t_s << ',' << p.err_us << '\n';
    }
  }
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write failed: " + path;
    return false;
  }
  return true;
}

void TraceAnalysis::print_report(std::ostream& os) const {
  os << "inputs: " << stats_.files << " file(s), " << stats_.lines
     << " line(s)";
  if (stats_.torn > 0) os << ", " << stats_.torn << " torn (skipped)";
  os << '\n';
  os << "records: " << stats_.events << " event(s), " << stats_.samples_cluster
     << " cluster + " << stats_.samples_node << " node sample(s), "
     << stats_.summaries << " summary record(s), " << stats_.flight_lines
     << " flight line(s)\n";

  const FunnelReport fr = funnel();
  os << "funnel: tx " << fr.beacons_tx << " -> rx " << fr.beacons_rx
     << " -> auth " << fr.auth_ok << " -> adjust " << fr.adjustments << " ("
     << fr.rejects << " rejected, " << fr.elections << " election(s))\n";
  os << "chains: " << fr.chains << " beacon(s) stitched, "
     << fr.cross_node_chains << " cross-node";
  if (std::isfinite(fr.median_tx_to_adjust_us)) {
    os << ", median tx->adjust " << fr.median_tx_to_adjust_us << " us";
  }
  os << '\n';

  const ConvergenceReport conv = convergence();
  os << "convergence (threshold " << opt_.sync_threshold_us << " us): ";
  if (conv.cluster.empty()) {
    os << "no cluster telemetry\n";
  } else {
    if (conv.first_sync_s) {
      os << "first sync at " << *conv.first_sync_s << " s";
    } else {
      os << "never converged";
    }
    if (conv.final_max_offset_us) {
      os << ", final max offset " << *conv.final_max_offset_us << " us";
    }
    os << '\n';
    for (const ErrorSpike& spike : conv.spikes) {
      os << "  spike at " << spike.start_s << " s, peak " << spike.peak_us
         << " us @ " << spike.peak_t_s << " s, ";
      if (spike.recovered) {
        os << "re-converged at " << spike.recovered_s << " s (+"
           << spike.recovered_s - spike.start_s << " s)";
      } else {
        os << "not re-converged by end of data";
      }
      os << '\n';
    }
  }

  if (!fault_marks_.empty()) {
    os << "recovery (from run summaries):\n";
    for (const FaultMark& mark : fault_marks_) {
      os << "  " << mark.fault;
      if (mark.node >= 0) os << " node " << mark.node;
      os << " at " << mark.t_s << " s: ";
      if (mark.resync_s >= 0.0) {
        os << "resync " << mark.resync_s << " s";
      } else {
        os << (mark.recovered ? "recovered" : "not recovered");
      }
      os << '\n';
    }
  }
}

}  // namespace sstsp::trace

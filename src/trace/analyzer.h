// Cross-node trace analyzer: the library behind sstsp_tracetool.
//
// Consumes the JSONL streams the runners emit — protocol event streams
// (--json-out), telemetry time-series (--telemetry-out), flight-recorder
// dumps and run summaries — possibly split across one file per node, and
// produces:
//
//   * a single time-ordered merged stream (post-mortem reading order);
//   * a beacon funnel report: tx -> rx -> auth-ok -> adjustment, stitched
//     across nodes by the trace_id the codec carries end-to-end (§4's
//     verify pipeline as a funnel, including cross-node tx->adjust
//     latency);
//   * convergence timelines: cluster max-offset-over-time, first-sync
//     instant, error spikes above the sync threshold and when each
//     re-converged — the transient-re-convergence evaluation of the
//     paper's §5;
//   * per-fault recovery curves: the error timeline sliced around each
//     fault mark (from run summaries, or supplied programmatically by
//     bench/abl_fault_matrix).
//
// Robustness rule: a line that does not parse (torn tail of a crashed
// writer, truncated copy) is counted and skipped, never fatal.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "obs/telemetry.h"
#include "trace/event_trace.h"

namespace sstsp::trace {

struct AnalyzerOptions {
  /// The paper's industry sync threshold (run::kSyncThresholdUs).
  double sync_threshold_us = 25.0;
};

struct LoadStats {
  std::size_t files{0};
  std::size_t lines{0};
  std::size_t torn{0};  ///< unparsable / truncated lines, skipped
  std::size_t events{0};
  std::size_t samples_cluster{0};
  std::size_t samples_node{0};
  std::size_t summaries{0};
  std::size_t flight_lines{0};  ///< flight dump headers + replayed history
  std::size_t other{0};
};

/// tx -> rx -> auth -> adjust totals, plus trace_id-stitched chains.
struct FunnelReport {
  std::uint64_t beacons_tx{0};
  std::uint64_t beacons_rx{0};
  std::uint64_t auth_ok{0};
  std::uint64_t adjustments{0};  ///< kAdjustment + kAdoption
  std::uint64_t rejects{0};
  std::uint64_t elections{0};
  /// Chains: distinct trace_ids seen with a beacon-tx.
  std::uint64_t chains{0};
  /// Chains whose rx/auth/adjust touched a node other than the sender.
  std::uint64_t cross_node_chains{0};
  /// Median beacon-tx -> first cross-node adjustment latency (µs); NaN
  /// when no chain completed.
  double median_tx_to_adjust_us{
      std::numeric_limits<double>::quiet_NaN()};
};

struct ConvergencePoint {
  double t_s{0.0};
  double err_us{0.0};
};

/// One excursion of the cluster error above the sync threshold after the
/// initial convergence.
struct ErrorSpike {
  double start_s{0.0};
  double peak_us{0.0};
  double peak_t_s{0.0};
  bool recovered{false};   ///< error returned below the threshold
  double recovered_s{0.0};  ///< instant it did (valid when recovered)
};

struct ConvergenceReport {
  std::vector<ConvergencePoint> cluster;  ///< max offset over time
  std::optional<double> first_sync_s;
  std::vector<ErrorSpike> spikes;
  std::optional<double> final_max_offset_us;
};

/// A fault instant to slice a recovery curve around; extracted from run
/// summaries or supplied by the caller (bench results).
struct FaultMark {
  std::string fault;
  std::int64_t node{-1};
  double t_s{0.0};
  double resync_s{-1.0};  ///< from the summary's recovery record; <0 unknown
  bool recovered{false};
};

struct RecoveryCurve {
  FaultMark mark;
  std::vector<ConvergencePoint> curve;  ///< cluster error around the fault
};

class TraceAnalysis {
 public:
  /// Reads and indexes every path; returns nullopt only on I/O failure
  /// (unreadable file) — malformed content is skipped and counted.
  [[nodiscard]] static std::optional<TraceAnalysis> load(
      const std::vector<std::string>& paths, std::string* error,
      const AnalyzerOptions& options = {});

  [[nodiscard]] const LoadStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<FaultMark>& fault_marks() const {
    return fault_marks_;
  }

  [[nodiscard]] FunnelReport funnel() const;
  [[nodiscard]] ConvergenceReport convergence() const;

  /// Cluster error sliced to [mark - pre_s, mark + post_s] per mark.
  [[nodiscard]] std::vector<RecoveryCurve> recovery_curves(
      const std::vector<FaultMark>& marks, double pre_s = 2.0,
      double post_s = 15.0) const;
  /// Same, against the marks found in loaded run summaries.
  [[nodiscard]] std::vector<RecoveryCurve> recovery_curves(
      double pre_s = 2.0, double post_s = 15.0) const {
    return recovery_curves(fault_marks_, pre_s, post_s);
  }

  /// All loaded lines, time-ordered (stable for ties), one JSONL per line.
  bool write_merged_jsonl(const std::string& path, std::string* error) const;
  /// CSV "t_s,node,err_us,synced": cluster max rows (node = -1) + per-node
  /// signed errors — ready for pandas/gnuplot convergence plots.
  bool write_timeline_csv(const std::string& path, std::string* error) const;
  /// Chrome-trace-event JSON loadable in ui.perfetto.dev (the document
  /// shape of obs/timeline.h): protocol events as per-node instants with
  /// trace_id flow arrows, cluster telemetry as counter tracks, fault marks
  /// as global instants — `sstsp_tracetool timeline` converts existing
  /// JSONL/flight dumps post-hoc.
  bool write_timeline_trace(const std::string& path, std::string* error) const;
  /// CSV "fault,node,fault_t_s,t_s,err_us": one block per recovery curve.
  static bool write_curves_csv(const std::vector<RecoveryCurve>& curves,
                               const std::string& path, std::string* error);

  /// Human-readable report (stats + funnel + convergence + recovery).
  void print_report(std::ostream& os) const;

 private:
  struct Row {
    double t_s{0.0};
    int file_index{0};
    std::string line;  // verbatim, for merged output
  };
  struct EventRow {
    double t_s{0.0};
    std::int64_t node{-1};
    EventKind kind{EventKind::kEventKindCount};
    std::int64_t peer{-1};
    double value_us{0.0};
    std::uint64_t trace_id{0};
  };

  AnalyzerOptions opt_;
  LoadStats stats_;
  std::vector<Row> rows_;            // every parsed line
  std::vector<EventRow> events_;     // live (non-flight) events only
  std::vector<obs::TelemetrySample> cluster_samples_;
  std::vector<FaultMark> fault_marks_;
};

}  // namespace sstsp::trace

// Shared helpers for the figure/table reproduction binaries.
//
// Every bench binary prints (a) what the paper reports for this artifact,
// (b) the measured reproduction as an ASCII table/strip-chart, and (c)
// writes the raw series to CSV under bench_out/ so the curves can be
// re-plotted with any tool.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "metrics/report.h"
#include "obs/json.h"
#include "obs/provenance.h"
#include "runner/experiment.h"
#include "runner/json_report.h"

namespace sstsp::bench {

inline std::string out_dir() {
  const char* env = std::getenv("SSTSP_BENCH_OUT");
  std::string dir = (env != nullptr) ? env : "bench_out";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

inline void banner(const std::string& id, const std::string& title,
                   const std::string& paper_claim) {
  std::cout << "================================================================\n"
            << id << " — " << title << '\n'
            << "paper: " << paper_claim << '\n'
            << "================================================================\n";
}

inline void dump_series(const metrics::Series& series, const std::string& name,
                        double bucket_s, bool log_scale) {
  metrics::print_ascii_series(std::cout, series, bucket_s, log_scale);
  const std::string path = out_dir() + "/" + name + ".csv";
  if (metrics::write_csv(series, path, "max_clock_diff_us")) {
    std::cout << "(series written to " << path << ")\n";
  }
}

inline void summarize(const run::RunResult& r, double duration_s) {
  std::cout << "sync latency (<25 us sustained): "
            << (r.sync_latency_s ? metrics::fmt(*r.sync_latency_s, 2) + " s"
                                 : std::string("never"))
            << " | steady max: "
            << (r.steady_max_us ? metrics::fmt(*r.steady_max_us, 2) + " us"
                                : std::string("n/a"))
            << " | steady p99: "
            << (r.steady_p99_us ? metrics::fmt(*r.steady_p99_us, 2) + " us"
                                : std::string("n/a"))
            << '\n';
  std::cout << "traffic: " << r.channel.transmissions << " beacons ("
            << r.channel.collided_transmissions << " collided), "
            << r.channel.bytes_on_air << " bytes on air over "
            << metrics::fmt(duration_s, 0) << " s\n";
}

/// Machine-readable companion to each bench's text output: accumulates the
/// bench's runs (full RunResult serialization, metrics registry included)
/// into bench_out/<id>.metrics.json as
///
///   {"bench":"fig2","runs":[{"label":...,"run":{...}},
///                           {"label":...,"values":{...}}]}
///
/// Benches that report quantities a RunResult does not carry (abl_overhead's
/// crypto costs) use add_values() instead.
class JsonReport {
 public:
  explicit JsonReport(const std::string& id)
      : path_(out_dir() + "/" + id + ".metrics.json"), os_(path_), w_(os_) {
    w_.begin_object();
    w_.kv("bench", id);
    w_.key("runs").begin_array();
  }

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  void add_run(const std::string& label, const run::Scenario& scenario,
               const run::RunResult& result) {
    w_.begin_object();
    w_.kv("label", label);
    w_.key("run");
    run::append_run_json(w_, scenario, result);
    w_.end_object();
  }

  void add_values(const std::string& label,
                  const std::vector<std::pair<std::string, double>>& values) {
    w_.begin_object();
    w_.kv("label", label);
    w_.key("values").begin_object();
    for (const auto& [key, value] : values) w_.kv(key, value);
    w_.end_object();
    w_.end_object();
  }

  /// Finishes the document; call once at the end of main.
  void write() {
    w_.end_array();
    w_.end_object();
    os_ << '\n';
    os_.close();
    std::cout << "(metrics written to " << path_ << ")\n";
  }

 private:
  std::string path_;
  std::ofstream os_;
  obs::json::Writer w_;
};

/// One measured perf-smoke scenario: throughput + cost of a pinned run.
struct PerfSample {
  std::string label;
  std::string protocol;
  int nodes{0};
  /// Worker threads of the sharded kernel (0 = legacy single-threaded
  /// kernel).  Recorded so per-thread-count lanes stay distinguishable in
  /// the baseline even across machines with different core counts.
  int threads{0};
  double sim_seconds{0.0};
  double wall_seconds{0.0};
  std::uint64_t events{0};
  std::uint64_t deliveries{0};
  long peak_rss_kb{0};  ///< process-wide high-water mark at sample time

  [[nodiscard]] double events_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds
                              : 0.0;
  }
  [[nodiscard]] double deliveries_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(deliveries) / wall_seconds
                              : 0.0;
  }
};

/// Shared writer for the perf-regression trajectory (BENCH_perf.json): the
/// committed copy at the repository root is the baseline the CI release
/// lane compares fresh runs against (tools/check_perf_regression.py).
inline void write_perf_json(const std::string& path,
                            const std::vector<PerfSample>& samples) {
  std::ofstream os(path);
  obs::json::Writer w(os);
  w.begin_object();
  w.kv("bench", "perf_smoke");
  w.kv("schema_version", static_cast<std::int64_t>(1));
  w.key("samples").begin_array();
  for (const PerfSample& s : samples) {
    w.begin_object();
    w.kv("label", s.label);
    w.kv("protocol", s.protocol);
    w.kv("nodes", static_cast<std::int64_t>(s.nodes));
    w.kv("threads", static_cast<std::int64_t>(s.threads));
    w.kv("sim_seconds", s.sim_seconds);
    w.kv("wall_seconds", s.wall_seconds);
    w.kv("events", static_cast<std::int64_t>(s.events));
    w.kv("events_per_sec", s.events_per_second());
    w.kv("deliveries", static_cast<std::int64_t>(s.deliveries));
    w.kv("deliveries_per_sec", s.deliveries_per_second());
    w.kv("peak_rss_kb", static_cast<std::int64_t>(s.peak_rss_kb));
    w.end_object();
  }
  w.end_array();
  // Provenance (git sha, compiler, build flags, host): a perf number with
  // no record of what built it is uncomparable months later.
  obs::append_provenance_json(w);
  w.end_object();
  os << '\n';
  std::cout << "(perf samples written to " << path << ")\n";
}

}  // namespace sstsp::bench

// Command-line front end for the scenario runner (used by tools/sstsp_sim).
//
// Kept in the library (rather than the tool's main.cpp) so the parsing is
// unit-testable; see tests/runner_cli_test.cpp.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "obs/observers.h"
#include "runner/config_file.h"
#include "runner/scenario.h"
#include "trace/event_trace.h"

namespace sstsp::run {

/// The output half of the shared observer/output flag group (see
/// parse_observer_flag); consumed by run::RunOutput.
struct OutputOptions {
  std::string csv_path;          ///< empty: no CSV dump
  std::string json_out_path;     ///< empty: no JSONL event/summary stream
  std::string metrics_out_path;  ///< empty: no metrics/profile JSON document
  std::string timeline_out_path;   ///< empty: no Perfetto trace JSON
  std::string prom_textfile_path;  ///< empty: no Prometheus textfile dump
  bool ascii_chart = false;   ///< print the strip chart
  bool dump_trace = false;    ///< print the newest trace events
  std::size_t trace_limit = 40;  ///< how many events --trace prints
  std::optional<trace::EventKind> trace_kind;  ///< --trace filter, if any
  /// --monitor=strict: any audit record makes the run exit non-zero
  /// (the observer config's monitor itself is set by plain --monitor too).
  bool monitor_strict = false;
};

struct CliOptions : OutputOptions {
  Scenario scenario;
  bool help = false;
};

/// Whole-string numeric parses shared by the tools' flag parsers.
[[nodiscard]] bool parse_double(const std::string& s, double* out);
[[nodiscard]] bool parse_int(const std::string& s, long long* out);
/// Splits on `sep` (a trailing separator adds no empty field).
[[nodiscard]] std::vector<std::string> split(const std::string& s, char sep);

enum class FlagParse { kNotMine, kParsed, kFailed };

/// The observer/output flag group shared by sstsp_sim, sstsp_swarm and
/// sstsp_node: --trace, --trace-limit, --trace-kind, --json-out,
/// --metrics-out, --csv, --chart, --profile, --monitor[=strict],
/// --telemetry-out/-interval/-per-node, --flight-recorder/-capacity,
/// --timeline-out, --sampler, --sampler-interval, --prom-textfile.  Only
/// the flags the ConfigTool schema gives `tool` are recognized.  Looks at
/// argv[i], advancing i past a consumed value; kFailed stores a one-line
/// message in *error.
[[nodiscard]] FlagParse parse_observer_flag(
    const std::vector<std::string>& argv, std::size_t& i, ConfigTool tool,
    obs::ObserverConfig& observers, OutputOptions& output, std::string* error);

/// Parses argv-style arguments (without the program name).  On failure
/// returns nullopt and stores a one-line message in *error.
[[nodiscard]] std::optional<CliOptions> parse_cli(
    const std::vector<std::string>& args, std::string* error);

/// Usage text for --help and parse failures.
[[nodiscard]] std::string cli_usage();

}  // namespace sstsp::run

// Command-line front end of sstsp_sim, sstsp_swarm and sstsp_node.
//
// One flag table (cli.cpp) holds every flag of the three tools: its name,
// which is also its config-file key (config_file.h), the tools it applies
// to, and the single step that parses, validates and sets it.  parse_cli
// walks argv through that table; config_key_applies and config_to_args
// read the same table.  Kept in the library so the parsing is
// unit-testable; see tests/runner_cli_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/node.h"
#include "net/swarm.h"
#include "net/udp.h"
#include "runner/config_file.h"
#include "runner/scenario.h"
#include "trace/event_trace.h"

namespace sstsp::run {

/// The output flags; consumed by run::RunOutput.
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

/// sstsp_node's own flags.  The deployment-wide half of its NodeConfig
/// comes from the Scenario (net::node_config).
struct NodeOptions {
  net::NodeConfig config;  ///< id, explicit clock, boot as reference
  net::UdpConfig udp;      ///< port, peers, multicast group
  double epoch_unix_s = -1.0;  ///< < 0: unset
  std::string telemetry_udp_host;
  std::uint16_t telemetry_udp_port = 0;
};

struct CliOptions : OutputOptions {
  /// The run.  sstsp_sim runs it as is; the live tools start from the
  /// live defaults (net::SwarmConfig) and run it through `live`/`node`.
  Scenario scenario;
  net::LiveOptions live;  ///< sstsp_swarm and sstsp_node
  NodeOptions node;       ///< sstsp_node
  bool expect_sync = false;  ///< sstsp_swarm --expect-sync
  bool help = false;
};

/// Parses `tool`'s argv-style arguments (without the program name): the
/// flag-table rows of that tool, --help and one --config file spliced in
/// place.  Fills in the derived defaults (the µTESLA chain sized to the
/// run).  On failure returns nullopt and stores a one-line message in
/// *error.  ConfigTool::kAny accepts every row, on sstsp_sim's defaults.
[[nodiscard]] std::optional<CliOptions> parse_cli(
    const std::vector<std::string>& args, ConfigTool tool,
    std::string* error);

/// The flags (names without "--") the table gives `tool`, in table order.
[[nodiscard]] std::vector<std::string_view> cli_flags(ConfigTool tool);

/// `tool`'s usage text for --help and parse failures.
[[nodiscard]] std::string cli_usage(ConfigTool tool = ConfigTool::kSim);

}  // namespace sstsp::run

// JSON run configs for the runner tools (--config).
//
// A config file is one JSON object describing a run.  Most keys are CLI
// flag names (without the leading "--") with the flag's argument as value;
// two keys are structured:
//
//   {
//     "protocol": "sstsp",
//     "nodes": 5,
//     "duration": 60,
//     "departures": [300, 500, 800],
//     "monitor": "strict",
//     "faults": {                       // inline fault plan (fault/plan.h),
//       "seed": 1,                      // or a string path to a plan file
//       "packet": [{"kind": "drop", "probability": 0.1}],
//       "node_faults": [{"kind": "crash", "node": "reference", "at": 30}]
//     },
//     "attack": {"name": "internal-ref",  // or just "internal-ref"
//                "window": [400, 600],
//                "params": {"skew": 80}}
//   }
//
// One schema, three tools: the same file is accepted by sstsp_sim,
// sstsp_node and sstsp_swarm.  Every key the *union* of the tools
// understands is legal everywhere; keys that do not apply to the invoking
// tool (e.g. "protocol" under sstsp_swarm) are skipped, so a single config
// describes one experiment across the sim and live runners.  A key no tool
// knows is an error naming the key and its line in the file.
//
// The object is converted to the equivalent argv vector and spliced into
// the command line at the position of the --config flag, so flags after
// --config override the file and flags before it are overridden by it.
// The per-tool CLI flags are thin aliases of the config keys: both are the
// rows of one flag table (runner/cli.cpp), which names each key's tools
// and parses its value.
// Conversion rules:
//   * true        -> bare flag ("chart": true -> --chart); false is omitted
//   * number      -> flag + value (integers render without a decimal point)
//   * string      -> flag + value; "monitor": "strict" is the one
//                    =-style special case (-> --monitor=strict)
//   * array       -> flag + comma-joined scalars ("churn": [200,0.05,50]);
//                    "peer" arrays repeat the flag per element
//   * "faults"    -> object: --faults-json <compact dump>
//                    string: --faults <path>
//   * "attack"    -> string: --attack NAME; object {name, window, params}:
//                    --attack NAME [--attack-window A,B]
//                    [--attack-params <compact dump>]
//   * "config"    -> rejected (config files do not nest)
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "clock/drift_model.h"
#include "obs/json.h"

namespace sstsp::run {

/// Clock-stressor kind by config/CLI name ("none", "temp-ramp", "aging",
/// "random-walk"); nullopt for unknown names.
[[nodiscard]] std::optional<clk::DriftStressKind> clock_model_kind_from_string(
    std::string_view name);

/// Is `key` valid inside the nested "clock-model" config block?
[[nodiscard]] bool clock_model_param_key_known(std::string_view key);

/// Applies a parsed "clock-model" JSON object (or kind string) onto
/// `stress`: {"kind": "temp-ramp", "period": 1, "ramp-ppm-per-s": 0.5,
/// "ramp-start": 0, "ramp-end": -1, "aging-ppm-per-day": 25,
/// "walk-sigma-ppm": 0.25}.  Unknown or ill-typed keys fail with the nested
/// path in *error.
[[nodiscard]] bool apply_clock_model_json(const obs::json::Value& value,
                                          clk::DriftStress* stress,
                                          std::string* error);

/// Which tool is consuming the config; selects the subset of the universal
/// key schema that turns into flags (the rest is skipped, not rejected).
/// kAny accepts every known key.
enum class ConfigTool { kAny, kSim, kNode, kSwarm };

/// Does the universal schema give `key` (a flag name without "--") to
/// `tool`?  false for keys outside the schema.  Reads the flag table in
/// runner/cli.cpp.
[[nodiscard]] bool config_key_applies(std::string_view key, ConfigTool tool);

/// Converts a parsed config object into argv-style flags for `tool`.
/// nullopt + *error (naming the offending key and line) on malformed
/// documents or keys outside the universal schema.
[[nodiscard]] std::optional<std::vector<std::string>> config_to_args(
    const obs::json::Value& root, ConfigTool tool, std::string* error);

/// Reads + parses `path` and converts it (see config_to_args).
[[nodiscard]] std::optional<std::vector<std::string>> load_config_args(
    const std::string& path, ConfigTool tool, std::string* error);

}  // namespace sstsp::run

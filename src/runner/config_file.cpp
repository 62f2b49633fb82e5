#include "runner/config_file.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

#include "core/discipline.h"

namespace sstsp::run {

namespace {

/// Renders a JSON number the way a user would type it on the command line:
/// whole values without a decimal point, everything else round-trippable.
std::string format_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  // Shortest representation that still round-trips through strtod: a
  // config value of 0.05 must splice into argv as "0.05", not the full
  // 17-digit expansion.
  char buf[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

bool scalar_to_string(const obs::json::Value& v, std::string* out) {
  switch (v.kind) {
    case obs::json::Value::Kind::kNumber:
      *out = format_number(v.number);
      return true;
    case obs::json::Value::Kind::kString:
      *out = v.string;
      return true;
    case obs::json::Value::Kind::kBool:
      *out = v.boolean ? "true" : "false";
      return true;
    default:
      return false;
  }
}

std::string at_line(const obs::json::Value& v) {
  return v.line > 0 ? "line " + std::to_string(v.line) + ": " : "";
}

}  // namespace

std::optional<clk::DriftStressKind> clock_model_kind_from_string(
    std::string_view name) {
  if (name == "none") return clk::DriftStressKind::kNone;
  if (name == "temp-ramp") return clk::DriftStressKind::kTempRamp;
  if (name == "aging") return clk::DriftStressKind::kAging;
  if (name == "random-walk") return clk::DriftStressKind::kRandomWalk;
  return std::nullopt;
}

bool clock_model_param_key_known(std::string_view key) {
  return key == "kind" || key == "period" || key == "ramp-ppm-per-s" ||
         key == "ramp-start" || key == "ramp-end" ||
         key == "aging-ppm-per-day" || key == "walk-sigma-ppm";
}

bool apply_clock_model_json(const obs::json::Value& value,
                            clk::DriftStress* stress, std::string* error) {
  auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };

  if (value.kind == obs::json::Value::Kind::kString) {
    const auto kind = clock_model_kind_from_string(value.string);
    if (!kind) {
      return fail(at_line(value) + "unknown clock model '" + value.string +
                  "' (have: none, temp-ramp, aging, random-walk)");
    }
    stress->kind = *kind;
    return true;
  }
  if (!value.is_object()) {
    return fail(at_line(value) +
                "config key 'clock-model' must be a kind string or an "
                "object {kind, period, ...}");
  }
  for (const auto& [key, v] : value.object) {
    if (!clock_model_param_key_known(key)) {
      return fail(at_line(v) + "unknown config key 'clock-model." + key +
                  "'");
    }
    auto need_number = [&](double lo, double hi) -> bool {
      return v.kind == obs::json::Value::Kind::kNumber && v.number >= lo &&
             v.number <= hi;
    };
    if (key == "kind") {
      std::optional<clk::DriftStressKind> kind;
      if (v.kind == obs::json::Value::Kind::kString) {
        kind = clock_model_kind_from_string(v.string);
      }
      if (!kind) {
        return fail(at_line(v) + "config key 'clock-model.kind' must be one "
                                 "of: none, temp-ramp, aging, random-walk");
      }
      stress->kind = *kind;
    } else if (key == "period") {
      if (!need_number(1e-3, 1e6)) {
        return fail(at_line(v) + "config key 'clock-model.period' must be a "
                                 "number of seconds >= 0.001");
      }
      stress->period_s = v.number;
    } else if (key == "ramp-ppm-per-s") {
      if (!need_number(0.0, 1e6)) {
        return fail(at_line(v) + "config key 'clock-model.ramp-ppm-per-s' "
                                 "must be a number >= 0");
      }
      stress->ramp_ppm_per_s = v.number;
    } else if (key == "ramp-start") {
      if (!need_number(0.0, 1e9)) {
        return fail(at_line(v) + "config key 'clock-model.ramp-start' must "
                                 "be a number of seconds >= 0");
      }
      stress->ramp_start_s = v.number;
    } else if (key == "ramp-end") {
      if (!need_number(-1.0, 1e9)) {
        return fail(at_line(v) + "config key 'clock-model.ramp-end' must be "
                                 "a number of seconds (-1 = whole run)");
      }
      stress->ramp_end_s = v.number;
    } else if (key == "aging-ppm-per-day") {
      if (!need_number(0.0, 1e6)) {
        return fail(at_line(v) + "config key 'clock-model.aging-ppm-per-day' "
                                 "must be a number >= 0");
      }
      stress->aging_ppm_per_day = v.number;
    } else if (key == "walk-sigma-ppm") {
      if (!need_number(0.0, 1e6)) {
        return fail(at_line(v) + "config key 'clock-model.walk-sigma-ppm' "
                                 "must be a number >= 0");
      }
      stress->walk_sigma_ppm = v.number;
    }
  }
  return true;
}

std::optional<std::vector<std::string>> config_to_args(
    const obs::json::Value& root, ConfigTool tool, std::string* error) {
  auto fail =
      [error](std::string message) -> std::optional<std::vector<std::string>> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };

  if (!root.is_object()) return fail("config must be a JSON object");

  std::vector<std::string> args;
  for (const auto& [key, value] : root.object) {
    if (key.empty()) return fail("config keys must be non-empty");
    if (key == "config") {
      return fail(at_line(value) + "config files cannot nest (key 'config')");
    }
    if (!config_key_applies(key, ConfigTool::kAny)) {
      return fail(at_line(value) + "unknown config key '" + key + "'");
    }
    if (!config_key_applies(key, tool)) continue;  // another tool's key
    const std::string flag = "--" + key;

    // First-class structured keys.
    if (key == "faults") {
      if (value.is_object()) {
        // Splice the plan inline; the tool's --faults-json flag parses
        // (and so validates) it with plan-level line diagnostics lost to
        // the re-dump, which is why parse errors here are rare: the
        // document already parsed as JSON.
        args.push_back("--faults-json");
        args.push_back(obs::json::dump(value));
      } else if (value.kind == obs::json::Value::Kind::kString) {
        args.push_back("--faults");
        args.push_back(value.string);
      } else {
        return fail(at_line(value) +
                    "config key 'faults' must be a plan object or a path "
                    "string");
      }
      continue;
    }
    if (key == "discipline") {
      if (value.kind == obs::json::Value::Kind::kString) {
        if (!core::discipline_known(value.string)) {
          return fail(at_line(value) + "unknown discipline '" + value.string +
                      "'");
        }
        args.push_back("--discipline");
        args.push_back(value.string);
        continue;
      }
      if (!value.is_object()) {
        return fail(at_line(value) +
                    "config key 'discipline' must be a name string or an "
                    "object {name, window, forgetting, ...}");
      }
      // Validate the nested keys here so errors carry file line numbers;
      // --discipline-params re-parses (and so re-validates) the dump.
      for (const auto& [dkey, dvalue] : value.object) {
        if (!core::discipline_param_key_known(dkey)) {
          return fail(at_line(dvalue) + "unknown config key 'discipline." +
                      dkey + "'");
        }
      }
      args.push_back("--discipline-params");
      args.push_back(obs::json::dump(value));
      continue;
    }
    if (key == "clock-model") {
      if (value.kind == obs::json::Value::Kind::kString) {
        if (!clock_model_kind_from_string(value.string)) {
          return fail(at_line(value) + "unknown clock model '" + value.string +
                      "' (have: none, temp-ramp, aging, random-walk)");
        }
        args.push_back("--clock-model");
        args.push_back(value.string);
        continue;
      }
      if (!value.is_object()) {
        return fail(at_line(value) +
                    "config key 'clock-model' must be a kind string or an "
                    "object {kind, period, ...}");
      }
      for (const auto& [ckey, cvalue] : value.object) {
        if (!clock_model_param_key_known(ckey)) {
          return fail(at_line(cvalue) + "unknown config key 'clock-model." +
                      ckey + "'");
        }
      }
      args.push_back("--clock-model-params");
      args.push_back(obs::json::dump(value));
      continue;
    }
    if (key == "attack") {
      if (value.kind == obs::json::Value::Kind::kString) {
        args.push_back("--attack");
        args.push_back(value.string);
        continue;
      }
      if (!value.is_object()) {
        return fail(at_line(value) +
                    "config key 'attack' must be a name string or an "
                    "object {name, window, params}");
      }
      const obs::json::Value* name = nullptr;
      const obs::json::Value* window = nullptr;
      const obs::json::Value* params = nullptr;
      for (const auto& [akey, avalue] : value.object) {
        if (akey == "name") {
          name = &avalue;
        } else if (akey == "window") {
          window = &avalue;
        } else if (akey == "params") {
          params = &avalue;
        } else {
          return fail(at_line(avalue) + "attack: unknown key '" + akey +
                      "'");
        }
      }
      if (name == nullptr ||
          name->kind != obs::json::Value::Kind::kString) {
        return fail(at_line(value) + "attack: needs a 'name' string");
      }
      args.push_back("--attack");
      args.push_back(name->string);
      if (window != nullptr) {
        if (window->kind != obs::json::Value::Kind::kArray ||
            window->array.size() != 2 ||
            window->array[0].kind != obs::json::Value::Kind::kNumber ||
            window->array[1].kind != obs::json::Value::Kind::kNumber) {
          return fail(at_line(*window) +
                      "attack: 'window' must be [start_s, end_s]");
        }
        args.push_back("--attack-window");
        args.push_back(format_number(window->array[0].number) + "," +
                       format_number(window->array[1].number));
      }
      if (params != nullptr) {
        if (!params->is_object()) {
          return fail(at_line(*params) +
                      "attack: 'params' must be an object");
        }
        args.push_back("--attack-params");
        args.push_back(obs::json::dump(*params));
      }
      continue;
    }

    switch (value.kind) {
      case obs::json::Value::Kind::kBool:
        if (value.boolean) args.push_back(flag);
        break;
      case obs::json::Value::Kind::kString:
        if (key == "monitor" && value.string == "strict") {
          args.push_back(flag + "=strict");
          break;
        }
        args.push_back(flag);
        args.push_back(value.string);
        break;
      case obs::json::Value::Kind::kNumber:
        args.push_back(flag);
        args.push_back(format_number(value.number));
        break;
      case obs::json::Value::Kind::kArray: {
        if (key == "peer") {
          // Repeatable flag: one --peer per endpoint.
          for (const auto& item : value.array) {
            std::string part;
            if (!scalar_to_string(item, &part)) {
              return fail(at_line(item) +
                          "config key 'peer': array items must be "
                          "HOST:PORT strings");
            }
            args.push_back(flag);
            args.push_back(part);
          }
          break;
        }
        std::string joined;
        for (const auto& item : value.array) {
          std::string part;
          if (!scalar_to_string(item, &part)) {
            return fail(at_line(value) + "config key '" + key +
                        "': arrays may only contain scalars");
          }
          if (!joined.empty()) joined += ',';
          joined += part;
        }
        args.push_back(flag);
        args.push_back(joined);
        break;
      }
      case obs::json::Value::Kind::kNull:
        break;  // explicit "leave at default"
      case obs::json::Value::Kind::kObject:
        return fail(at_line(value) + "config key '" + key +
                    "': nested objects are not supported");
    }
  }
  return args;
}

std::optional<std::vector<std::string>> load_config_args(
    const std::string& path, ConfigTool tool, std::string* error) {
  auto fail =
      [error](std::string message) -> std::optional<std::vector<std::string>> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };

  std::ifstream in(path);
  if (!in) return fail("could not read config file: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();

  const auto parsed = obs::json::parse(buffer.str());
  if (!parsed) return fail("config file is not valid JSON: " + path);

  std::string convert_error;
  auto args = config_to_args(*parsed, tool, &convert_error);
  if (!args) return fail(path + ": " + convert_error);
  return args;
}

}  // namespace sstsp::run

#include "runner/config_file.h"

#include <fstream>
#include <sstream>
#include <string_view>

#include "attack/adversary.h"
#include "core/discipline.h"
#include "fault/plan.h"

namespace sstsp::run {

namespace {

/// Renders a JSON number the way a user would type it on the command line,
/// in the JSON writer's form: whole values without a decimal point (a seed
/// of 1e15 splices as "1000000000000000"), everything else as the shortest
/// text that round-trips (0.05 as "0.05", not a 17-digit expansion).
std::string format_number(double v) {
  char buf[32];
  return std::string(buf, obs::json::format_number(buf, v));
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

/// Clock-stressor kind names, in clk::DriftStressKind order.
constexpr std::string_view kClockModels[] = {"none", "temp-ramp", "aging",
                                             "random-walk"};

}  // namespace

std::optional<clk::DriftStressKind> clock_model_kind_from_string(
    std::string_view name) {
  for (std::size_t i = 0; i < std::size(kClockModels); ++i) {
    if (name == kClockModels[i]) return static_cast<clk::DriftStressKind>(i);
  }
  return std::nullopt;
}

bool apply_clock_model_json(const obs::json::Value& value,
                            clk::DriftStress* stress, std::string* error) {
  if (!value.is_object()) {
    const auto kind = value.is_string()
                          ? clock_model_kind_from_string(value.string)
                          : std::nullopt;
    if (kind) {
      stress->kind = *kind;
      return true;
    }
    if (error != nullptr) {
      *error = obs::json::error_at(
          value, "clock-model",
          value.is_string()
              ? "unknown clock model '" + value.string +
                    "' (have: none, temp-ramp, aging, random-walk)"
              : "expected a kind string or an object");
    }
    return false;
  }
  obs::json::Reader in(value, "clock-model", error);
  std::string kind;
  in.string("kind", &kind, kClockModels)
      .number("period", &stress->period_s, 1e-3, 1e6)
      .number("ramp-ppm-per-s", &stress->ramp_ppm_per_s, 0.0, 1e6)
      .number("ramp-start", &stress->ramp_start_s, 0.0, 1e9)
      .number("ramp-end", &stress->ramp_end_s, -1.0, 1e9)
      .number("aging-ppm-per-day", &stress->aging_ppm_per_day, 0.0, 1e6)
      .number("walk-sigma-ppm", &stress->walk_sigma_ppm, 0.0, 1e6);
  if (!kind.empty()) stress->kind = *clock_model_kind_from_string(kind);
  return in.done();
}

std::optional<std::vector<std::string>> config_to_args(
    const obs::json::Value& root, ConfigTool tool, std::string* error) {
  // Every error names its key path and line, in the nested blocks' format.
  auto fail = [error](const obs::json::Value& at, std::string_view path,
                      std::string_view message)
      -> std::optional<std::vector<std::string>> {
    if (error != nullptr) *error = obs::json::error_at(at, path, message);
    return std::nullopt;
  };

  if (!root.is_object()) return fail(root, "config", "expected an object");

  std::vector<std::string> args;
  for (const auto& [key, value] : root.object) {
    if (key.empty()) return fail(value, "config", "keys must be non-empty");
    if (key == "config") {
      return fail(value, key, "config files cannot nest");
    }
    if (!config_key_applies(key, ConfigTool::kAny)) {
      return fail(value, key, "unknown config key");
    }
    if (!config_key_applies(key, tool)) continue;  // another tool's key
    const std::string flag = "--" + key;

    // The structured keys: each nested object is read (and so checked, with
    // its file line) by the reader its flag runs, then spliced as a dump.
    if (key == "faults") {
      if (value.kind == obs::json::Value::Kind::kString) {
        args.push_back("--faults");
        args.push_back(value.string);
        continue;
      }
      if (!fault::parse_plan(value, error, "faults")) return std::nullopt;
      args.push_back("--faults-json");
      args.push_back(obs::json::dump(value));
      continue;
    }
    if (key == "discipline") {
      core::SstspConfig scratch;
      if (!core::apply_discipline_json(value, &scratch, error)) {
        return std::nullopt;
      }
      args.push_back(value.is_object() ? "--discipline-params"
                                       : "--discipline");
      args.push_back(value.is_object() ? obs::json::dump(value) : value.string);
      continue;
    }
    if (key == "clock-model") {
      clk::DriftStress scratch;
      if (!apply_clock_model_json(value, &scratch, error)) return std::nullopt;
      args.push_back(value.is_object() ? "--clock-model-params"
                                       : "--clock-model");
      args.push_back(value.is_object() ? obs::json::dump(value) : value.string);
      continue;
    }
    if (key == "attack") {
      std::string name = value.string;
      const obs::json::Value* window = nullptr;
      const obs::json::Value* params = nullptr;
      if (value.kind != obs::json::Value::Kind::kString) {
        obs::json::Reader in(value, "attack", error);
        in.string("name", &name);
        window = in.member("window");
        params = in.member("params");
        if (name.empty()) in.fail("name", "required string");
        if (window != nullptr &&
            (!window->is_array() || window->array.size() != 2 ||
             !window->array[0].is_number() || !window->array[1].is_number())) {
          in.fail("window", "expected [start_s, end_s]");
        }
        if (!in.done()) return std::nullopt;
      }
      // Checked here as well as by --attack, so a file's unknown name
      // carries its line.
      if (!attack::adversary_known(name)) {
        std::string known;
        for (const std::string& n : attack::adversary_names()) {
          known += (known.empty() ? "" : ", ") + n;
        }
        return fail(value, key,
                    "unknown attack '" + name + "' (known: " + known + ")");
      }
      args.push_back("--attack");
      args.push_back(name);
      if (window != nullptr) {
        args.push_back("--attack-window");
        args.push_back(format_number(window->array[0].number) + "," +
                       format_number(window->array[1].number));
      }
      if (params != nullptr) {
        if (!attack::configure_adversary(name, params, {}, error)) {
          return std::nullopt;
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
              return fail(item, key, "array items must be HOST:PORT strings");
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
            return fail(value, key, "arrays may only contain scalars");
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
        return fail(value, key, "nested objects are not supported");
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

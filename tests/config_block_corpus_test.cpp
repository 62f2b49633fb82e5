// Malformed-input corpus for the one reader of nested config blocks
// (obs::json::Reader) over its four blocks: fault plans, "discipline",
// "clock-model" and every adversary's params.  Each bad input must give a
// clean error naming the key path, and the line when the block was parsed
// from text, and must never crash; the sanitized CI job runs this file.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/adversary.h"
#include "core/discipline.h"
#include "fault/plan.h"
#include "obs/json.h"
#include "runner/cli.h"
#include "runner/config_file.h"
#include "runner/network.h"

namespace sstsp {
namespace {

using obs::json::Value;

/// What a key accepts, which decides the values that are the wrong type.
enum class Type { kNumber, kWhole, kName, kBool, kNode, kGroup };

struct Key {
  std::string name;
  Type type;
};

/// One object of a nested block: its reader, the key path of its members,
/// and the text that wraps one member into a whole document.
struct Block {
  std::string path;
  std::string prefix;
  std::string suffix;
  bool (*read)(const Value&, std::string*);
  std::vector<Key> keys;
};

bool read_plan(const Value& v, std::string* error) {
  return fault::parse_plan(v, error).has_value();
}
bool read_discipline(const Value& v, std::string* error) {
  core::SstspConfig cfg;
  return core::apply_discipline_json(v, &cfg, error);
}
bool read_clock_model(const Value& v, std::string* error) {
  clk::DriftStress stress;
  return run::apply_clock_model_json(v, &stress, error);
}
template <const char* kName>
bool read_attack(const Value& v, std::string* error) {
  return static_cast<bool>(attack::configure_adversary(kName, &v, {}, error));
}

constexpr char kTsfSlow[] = "tsf-slow";
constexpr char kInternalRef[] = "internal-ref";
constexpr char kReplay[] = "replay";
constexpr char kForge[] = "forge";
constexpr char kDelayedDisclosure[] = "delayed-disclosure";

/// The keys each adversary reads.
const std::map<std::string, std::vector<Key>>& adversary_keys() {
  static const std::map<std::string, std::vector<Key>> keys{
      {kTsfSlow,
       {{"start", Type::kNumber},
        {"end", Type::kNumber},
        {"slow_offset_us", Type::kNumber},
        {"timer_advance_us", Type::kNumber},
        {"burst_count", Type::kWhole},
        {"burst_spacing_us", Type::kNumber}}},
      {kInternalRef,
       {{"start", Type::kNumber},
        {"end", Type::kNumber},
        {"advance_us", Type::kNumber},
        {"skew", Type::kNumber},
        {"skew_ramp_s", Type::kNumber}}},
      {kReplay,
       {{"start", Type::kNumber},
        {"end", Type::kNumber},
        {"delay_bps", Type::kWhole},
        {"extra_delay_us", Type::kNumber}}},
      {kForge, {{"period_s", Type::kNumber}, {"spoofed", Type::kNumber}}},
      {kDelayedDisclosure,
       {{"start", Type::kNumber},
        {"end", Type::kNumber},
        {"delay_us", Type::kNumber}}},
  };
  return keys;
}

const std::vector<Block>& blocks() {
  static const std::vector<Block> all{
      {"plan", "{", "}", read_plan, {{"seed", Type::kNumber}}},
      {"plan.packet[0]",
       R"({"packet": [{)",
       "}]}",
       read_plan,
       {{"kind", Type::kName},
        {"start", Type::kNumber},
        {"end", Type::kNumber},
        {"probability", Type::kNumber},
        {"from", Type::kNode},
        {"to", Type::kNode},
        {"delay_min_us", Type::kNumber},
        {"delay_max_us", Type::kNumber},
        {"gap_us", Type::kNumber},
        {"copies", Type::kWhole},
        {"copy_spacing_us", Type::kNumber}}},
      {"plan.partitions[0]",
       R"({"partitions": [{)",
       "}]}",
       read_plan,
       {{"start", Type::kNumber},
        {"end", Type::kNumber},
        {"group_a", Type::kGroup},
        {"group_b", Type::kGroup},
        {"asymmetric", Type::kBool}}},
      {"plan.node_faults[0]",
       R"({"node_faults": [{)",
       "}]}",
       read_plan,
       {{"kind", Type::kName},
        {"node", Type::kNode},
        {"at", Type::kNumber},
        {"restart", Type::kNumber}}},
      {"plan.clock_faults[0]",
       R"({"clock_faults": [{)",
       "}]}",
       read_plan,
       {{"node", Type::kNode},
        {"at", Type::kNumber},
        {"step_us", Type::kNumber},
        {"drift_delta_ppm", Type::kNumber}}},
      {"discipline",
       "{",
       "}",
       read_discipline,
       {{"name", Type::kName},
        {"span", Type::kWhole},
        {"k-min", Type::kNumber},
        {"k-max", Type::kNumber},
        {"window", Type::kWhole},
        {"forgetting", Type::kNumber},
        {"innovation-gate", Type::kNumber},
        {"holdover-max-age", Type::kWhole}}},
      {"clock-model",
       "{",
       "}",
       read_clock_model,
       {{"kind", Type::kName},
        {"period", Type::kNumber},
        {"ramp-ppm-per-s", Type::kNumber},
        {"ramp-start", Type::kNumber},
        {"ramp-end", Type::kNumber},
        {"aging-ppm-per-day", Type::kNumber},
        {"walk-sigma-ppm", Type::kNumber}}},
      {"attack.params", "{", "}", read_attack<kTsfSlow>,
       adversary_keys().at(kTsfSlow)},
      {"attack.params", "{", "}", read_attack<kInternalRef>,
       adversary_keys().at(kInternalRef)},
      {"attack.params", "{", "}", read_attack<kReplay>,
       adversary_keys().at(kReplay)},
      {"attack.params", "{", "}", read_attack<kForge>,
       adversary_keys().at(kForge)},
      {"attack.params", "{", "}", read_attack<kDelayedDisclosure>,
       adversary_keys().at(kDelayedDisclosure)},
  };
  return all;
}

/// A document holding one member of `block`, its value on line 3.
std::string document(const Block& block, const std::string& key,
                     const std::string& value) {
  return block.prefix + "\n\n  \"" + key + "\": " + value + "\n" +
         block.suffix;
}

/// Reads `text` through `block`'s reader; the error, or "" if it passed.
std::string read_error(const Block& block, const std::string& text) {
  const auto parsed = obs::json::parse(text);
  if (!parsed) return "<not JSON>";
  std::string error;
  if (block.read(*parsed, &error)) return "";
  EXPECT_FALSE(error.empty()) << text;
  return error;
}

/// The error must start "line 3: <block path>.<key>".
void expect_names(const Block& block, const std::string& key,
                  const std::string& value) {
  const std::string text = document(block, key, value);
  const std::string error = read_error(block, text);
  const std::string want = "line 3: " + block.path + "." + key;
  EXPECT_EQ(error.rfind(want, 0), 0u)
      << "input:\n" << text << "\nerror: " << error << "\nwant: " << want;
}

bool type_accepts(Type type, const std::string& value) {
  switch (type) {
    case Type::kNumber:
    case Type::kWhole:
    case Type::kNode:
      return value == "7";
    case Type::kBool:
      return value == "true";
    case Type::kName:
    case Type::kGroup:
      return false;  // "x" is no valid name; [[1, 2]] no group
  }
  return false;
}

TEST(ConfigBlockCorpus, WrongTypeForEveryKeyNamesPathAndLine) {
  const std::vector<std::string> values = {
      R"("x")", "7", "true", "null", "[[1, 2]]", "{}", R"({"a": [[]]})"};
  for (const Block& block : blocks()) {
    for (const Key& key : block.keys) {
      for (const std::string& value : values) {
        if (type_accepts(key.type, value)) continue;
        expect_names(block, key.name, value);
      }
    }
  }
}

TEST(ConfigBlockCorpus, UnknownKeyNamesPathAndLine) {
  for (const Block& block : blocks()) {
    expect_names(block, "bogus", "1");
    const std::string error =
        read_error(block, document(block, "bogus", "1"));
    EXPECT_NE(error.find("unknown key"), std::string::npos) << error;
  }
}

TEST(ConfigBlockCorpus, OutOfRangeNumbersNamePathAndLine) {
  const auto& all = blocks();
  const auto block = [&all](const std::string& path,
                            bool (*read)(const Value&, std::string*)) {
    for (const Block& b : all) {
      if (b.path == path && b.read == read) return b;
    }
    throw std::logic_error("no block " + path);
  };
  struct Case {
    Block block;
    std::string key;
    std::string value;
  };
  const std::vector<Case> cases = {
      {block("plan", read_plan), "seed", "-1"},
      {block("plan", read_plan), "seed", "1e300"},
      {block("plan.packet[0]", read_plan), "probability", "1.5"},
      {block("plan.packet[0]", read_plan), "start", "1e999"},
      {block("plan.packet[0]", read_plan), "copies", "2.5"},
      {block("plan.packet[0]", read_plan), "copies", "1e300"},
      {block("plan.packet[0]", read_plan), "from", "-1"},
      {block("plan.packet[0]", read_plan), "to", "1e12"},
      {block("plan.partitions[0]", read_plan), "group_a", "[-1]"},
      {block("plan.node_faults[0]", read_plan), "node", "1.5"},
      {block("discipline", read_discipline), "span", "0"},
      {block("discipline", read_discipline), "span", "1e300"},
      {block("discipline", read_discipline), "k-min", "11"},
      {block("discipline", read_discipline), "k-max", "-0.5"},
      {block("discipline", read_discipline), "window", "1"},
      {block("discipline", read_discipline), "forgetting", "0"},
      {block("discipline", read_discipline), "innovation-gate", "-1"},
      {block("discipline", read_discipline), "holdover-max-age", "0.5"},
      {block("clock-model", read_clock_model), "period", "0"},
      {block("clock-model", read_clock_model), "ramp-ppm-per-s", "-1"},
      {block("clock-model", read_clock_model), "ramp-start", "-1"},
      {block("clock-model", read_clock_model), "ramp-end", "-2"},
      {block("clock-model", read_clock_model), "aging-ppm-per-day", "-1"},
      {block("clock-model", read_clock_model), "walk-sigma-ppm", "1e7"},
      {block("attack.params", read_attack<kTsfSlow>), "burst_count", "-1"},
      {block("attack.params", read_attack<kInternalRef>), "skew", "1e999"},
      {block("attack.params", read_attack<kReplay>), "delay_bps", "1e10"},
      {block("attack.params", read_attack<kForge>), "spoofed", "-5"},
  };
  for (const Case& c : cases) expect_names(c.block, c.key, c.value);
}

TEST(ConfigBlockCorpus, BlocksThatAreNoObjectNameTheirPath) {
  // A 60-deep array still parses (the parser stops at 64 levels).
  const std::string deep = std::string(60, '[') + std::string(60, ']');
  const std::vector<std::string> values = {"7",    "[1, 2]", "null",
                                           "true", R"("x")", deep};
  for (const Block& block : blocks()) {
    if (block.prefix != "{") continue;  // a plan entry, below
    for (const std::string& value : values) {
      const std::string error = read_error(block, value);
      EXPECT_EQ(error.rfind("line 1: " + block.path + ": ", 0), 0u)
          << block.path << " <- " << value << ": " << error;
    }
  }
  // Plan sections must be arrays of objects.
  const Block& plan = blocks().front();
  EXPECT_EQ(read_error(plan, "{\"packet\": 7}").rfind("line 1: plan.packet:", 0),
            0u);
  EXPECT_EQ(read_error(plan, "{\"packet\": [[1]]}")
                .rfind("line 1: plan.packet[0]: expected an object", 0),
            0u);
  // Beyond the parser's depth limit the text is no JSON at all.
  EXPECT_FALSE(obs::json::parse(std::string(100, '[') + std::string(100, ']'))
                   .has_value());
}

TEST(ConfigBlockCorpus, EmptyObjectsKeepDefaultsOrNameTheRequiredKey) {
  for (const Block& block : blocks()) {
    if (block.prefix == "{") {
      EXPECT_EQ(read_error(block, "{}"), "") << block.path;
    }
  }
  const Block& plan = blocks().front();
  const std::vector<std::pair<std::string, std::string>> required = {
      {"packet", "kind"},
      {"partitions", "group_a"},
      {"node_faults", "node"},
      {"clock_faults", "node"}};
  for (const auto& [section, key] : required) {
    const std::string error =
        read_error(plan, "{\n\"" + section + "\": [\n{}]}");
    EXPECT_EQ(error.rfind("line 3: plan." + section + "[0]." + key, 0), 0u)
        << error;
  }
}

TEST(ConfigBlockCorpus, ValuesBuiltInCodeCarryNoLine) {
  Value params;
  params.kind = Value::Kind::kObject;
  params.object.emplace_back("skw", Value{});
  std::string error;
  EXPECT_FALSE(attack::configure_adversary("internal-ref", &params, {}, &error));
  EXPECT_EQ(error.rfind("attack.params.skw: unknown key", 0), 0u) << error;
}

TEST(AttackParams, EveryAdversaryAcceptsEachKeyItReads) {
  std::vector<std::string> listed;
  for (const auto& [name, keys] : adversary_keys()) listed.push_back(name);
  EXPECT_EQ(listed, attack::adversary_names());

  for (const auto& [name, keys] : adversary_keys()) {
    for (const Key& key : keys) {
      const auto params = obs::json::parse("{\"" + key.name + "\": 1}");
      ASSERT_TRUE(params.has_value());
      std::string error;
      EXPECT_TRUE(attack::configure_adversary(name, &*params, {}, &error))
          << name << "." << key.name << ": " << error;
    }
  }
}

std::string cli_error(const std::vector<std::string>& args) {
  std::string error;
  EXPECT_FALSE(run::parse_cli(args, run::ConfigTool::kSim, &error).has_value())
      << "accepted";
  return error;
}

TEST(AttackParams, TyposShapesAndOrphanParamsFailTheCommandLine) {
  std::string error =
      cli_error({"--attack", "internal-ref", "--attack-params", R"({"skw":500})"});
  EXPECT_NE(error.find("attack.params.skw: unknown key"), std::string::npos)
      << error;
  // The params are read by the adversary named after them, too.
  error = cli_error({"--attack-params", R"({"skw":500})", "--attack",
                     "internal-ref"});
  EXPECT_NE(error.find("attack.params.skw"), std::string::npos) << error;

  error = cli_error({"--attack", "internal-ref", "--attack-params", "[1,2]"});
  EXPECT_NE(error.find("attack.params: expected an object"), std::string::npos)
      << error;

  error = cli_error({"--attack-params", R"({"skew":5})"});
  EXPECT_NE(error.find("--attack-params needs an --attack"), std::string::npos)
      << error;

  std::string ok_error;
  const auto ok = run::parse_cli(
      {"--attack", "internal-ref", "--attack-params", R"({"skew":5})"},
      run::ConfigTool::kSim, &ok_error);
  EXPECT_TRUE(ok.has_value()) << ok_error;
}

TEST(AttackParams, ConfigFileTypoFailsWithItsLine) {
  const std::string path = ::testing::TempDir() + "attack_params_typo.json";
  {
    std::ofstream out(path);
    out << "{\n  \"nodes\": 5,\n  \"attack\": {\"name\": \"internal-ref\",\n"
           "             \"params\": {\"skw\": 500}}\n}\n";
  }
  const std::string error = cli_error({"--config", path});
  EXPECT_NE(error.find("line 4: attack.params.skw: unknown key"),
            std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST(AttackParams, ProgrammaticScenarioFailsInTheNetworkConstructor) {
  run::Scenario typo;
  typo.num_nodes = 4;
  typo.duration_s = 5.0;
  typo.attack = "internal-ref";
  typo.attack_params_json = R"({"skw":500})";
  EXPECT_THROW(run::Network{typo}, std::runtime_error);

  run::Scenario orphan;
  orphan.num_nodes = 4;
  orphan.duration_s = 5.0;
  orphan.attack_params_json = R"({"skew":5})";
  EXPECT_THROW(run::Network{orphan}, std::runtime_error);
}

}  // namespace
}  // namespace sstsp

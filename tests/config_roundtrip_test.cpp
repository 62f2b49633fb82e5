// One config file, three tools: per-tool key filtering, the structured
// "faults"/"attack" conversions, and the full round trip of a config
// through config_to_args into run::parse_cli with the fault plan intact.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/plan.h"
#include "obs/json.h"
#include "runner/cli.h"
#include "runner/config_file.h"

namespace sstsp::run {
namespace {

// The one experiment description every tool should accept: sim-only,
// node-only and swarm-only keys side by side with universal ones.
constexpr const char* kUniversalConfig = R"({
  "nodes": 5,
  "duration": 45,
  "seed": 1,
  "protocol": "sstsp",
  "transport": "loopback",
  "id": 3,
  "monitor": "strict",
  "faults": {
    "seed": 1,
    "packet": [{"kind": "drop", "probability": 0.1}],
    "node_faults": [{"kind": "crash", "node": "reference", "at": 30}]
  }
})";

std::vector<std::string> args_for(const std::string& json, ConfigTool tool) {
  const auto root = obs::json::parse(json);
  EXPECT_TRUE(root.has_value()) << json;
  std::string error;
  const auto args = config_to_args(*root, tool, &error);
  EXPECT_TRUE(args.has_value()) << error;
  return args.value_or(std::vector<std::string>{});
}

bool has_flag(const std::vector<std::string>& args, const std::string& flag) {
  for (const auto& a : args) {
    if (a == flag) return true;
  }
  return false;
}

TEST(ConfigRoundTrip, UniversalConfigIsAcceptedByAllThreeTools) {
  for (const ConfigTool tool :
       {ConfigTool::kSim, ConfigTool::kNode, ConfigTool::kSwarm}) {
    auto args = args_for(kUniversalConfig, tool);
    // Universal keys survive everywhere.
    EXPECT_TRUE(has_flag(args, "--nodes")) << static_cast<int>(tool);
    EXPECT_TRUE(has_flag(args, "--monitor=strict")) << static_cast<int>(tool);
    EXPECT_TRUE(has_flag(args, "--faults-json")) << static_cast<int>(tool);

    // And each tool's own parser takes them.  A deployment-wide config
    // leaves each node process its own endpoint.
    if (tool == ConfigTool::kNode) {
      args.insert(args.end(), {"--peer", "127.0.0.1:9"});
    }
    std::string error;
    const auto cli = parse_cli(args, tool, &error);
    ASSERT_TRUE(cli.has_value()) << static_cast<int>(tool) << ": " << error;
    EXPECT_EQ(cli->scenario.num_nodes, 5);
    EXPECT_DOUBLE_EQ(cli->scenario.duration_s, 45.0);
    EXPECT_TRUE(cli->monitor_strict);
    EXPECT_EQ(cli->scenario.faults.packet.size(), 1u);
    EXPECT_EQ(cli->scenario.faults.node_faults.size(), 1u);
  }
}

TEST(ConfigRoundTrip, OtherToolsKeysAreSkippedNotRejected) {
  const auto sim = args_for(kUniversalConfig, ConfigTool::kSim);
  EXPECT_TRUE(has_flag(sim, "--protocol"));
  EXPECT_FALSE(has_flag(sim, "--transport"));  // swarm-only
  EXPECT_FALSE(has_flag(sim, "--id"));         // node-only

  const auto node = args_for(kUniversalConfig, ConfigTool::kNode);
  EXPECT_TRUE(has_flag(node, "--id"));
  EXPECT_FALSE(has_flag(node, "--protocol"));
  EXPECT_FALSE(has_flag(node, "--transport"));

  const auto swarm = args_for(kUniversalConfig, ConfigTool::kSwarm);
  EXPECT_TRUE(has_flag(swarm, "--transport"));
  EXPECT_FALSE(has_flag(swarm, "--protocol"));
  EXPECT_FALSE(has_flag(swarm, "--id"));
}

TEST(ConfigRoundTrip, FaultsObjectSplicesAsInlineJson) {
  const auto args = args_for(kUniversalConfig, ConfigTool::kSim);
  std::string dumped;
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == "--faults-json") dumped = args[i + 1];
  }
  ASSERT_FALSE(dumped.empty());
  // The spliced text is itself a valid plan equal to the config's object.
  std::string error;
  const auto plan = fault::parse_plan_text(dumped, &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_EQ(plan->seed, 1u);
  ASSERT_EQ(plan->packet.size(), 1u);
  EXPECT_DOUBLE_EQ(plan->packet[0].probability, 0.1);
  ASSERT_EQ(plan->node_faults.size(), 1u);
  EXPECT_TRUE(plan->node_faults[0].reference);
}

TEST(ConfigRoundTrip, FaultsStringBecomesPathFlag) {
  const auto args =
      args_for(R"({"faults": "examples/faults/ref_crash_loss.json"})",
               ConfigTool::kSwarm);
  const std::vector<std::string> expected = {
      "--faults", "examples/faults/ref_crash_loss.json"};
  EXPECT_EQ(args, expected);
}

TEST(ConfigRoundTrip, AttackObjectExpandsToAttackFlags) {
  const auto args = args_for(R"({
    "attack": {"name": "internal-ref", "window": [400, 600],
               "params": {"skew": 80}}
  })",
                             ConfigTool::kSim);
  const std::vector<std::string> expected = {
      "--attack",        "internal-ref",      "--attack-window",
      "400,600",         "--attack-params",   R"({"skew":80})"};
  EXPECT_EQ(args, expected);
}

TEST(ConfigRoundTrip, AttackParamsUnknownKeyNamesPathAndLine) {
  // "skew_ppm" is no key internal-ref reads; its params reader rejects it
  // with the file line instead of ignoring it.
  const std::string json =
      "{\n  \"attack\": {\"name\": \"internal-ref\",\n    \"params\": "
      "{\n      \"skew_ppm\": 80}}\n}";
  const auto root = obs::json::parse(json);
  ASSERT_TRUE(root.has_value());
  std::string error;
  EXPECT_FALSE(config_to_args(*root, ConfigTool::kSim, &error).has_value());
  EXPECT_NE(error.find("attack.params.skew_ppm"), std::string::npos) << error;
  EXPECT_NE(error.find("line 4"), std::string::npos) << error;
}

TEST(ConfigRoundTrip, AttackIsSimOnlyAndSkippedElsewhere) {
  const std::string json = R"({"attack": "forge", "nodes": 4})";
  const auto sim_args = args_for(json, ConfigTool::kSim);
  EXPECT_TRUE(has_flag(sim_args, "--attack"));
  // The spliced flags parse back: the name is a registered adversary.
  std::string error;
  const auto cli = parse_cli(sim_args, ConfigTool::kSim, &error);
  ASSERT_TRUE(cli.has_value()) << error;
  EXPECT_EQ(cli->scenario.attack, "forge");
  EXPECT_FALSE(has_flag(args_for(json, ConfigTool::kSwarm), "--attack"));
  EXPECT_FALSE(has_flag(args_for(json, ConfigTool::kNode), "--attack"));
}

TEST(ConfigRoundTrip, UnknownKeyErrorsWithNameAndLineForEveryTool) {
  const std::string json = "{\n  \"nodes\": 3,\n  \"warp-speed\": 9\n}";
  const auto root = obs::json::parse(json);
  ASSERT_TRUE(root.has_value());
  for (const ConfigTool tool :
       {ConfigTool::kSim, ConfigTool::kNode, ConfigTool::kSwarm}) {
    std::string error;
    EXPECT_FALSE(config_to_args(*root, tool, &error).has_value());
    EXPECT_NE(error.find("warp-speed"), std::string::npos) << error;
    EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  }
}

TEST(ConfigRoundTrip, SimArgsParseBackIntoScenarioWithPlan) {
  // End to end: JSON -> argv -> parse_cli -> Scenario, fault plan intact
  // and bit-equal (via the serializer fixpoint) to the config's object.
  const auto args = args_for(kUniversalConfig, ConfigTool::kSim);
  std::string error;
  const auto cli = parse_cli(args, ConfigTool::kSim, &error);
  ASSERT_TRUE(cli.has_value()) << error;
  EXPECT_EQ(cli->scenario.num_nodes, 5);
  EXPECT_DOUBLE_EQ(cli->scenario.duration_s, 45.0);
  EXPECT_EQ(cli->scenario.seed, 1u);
  EXPECT_TRUE(cli->scenario.monitor);
  EXPECT_TRUE(cli->monitor_strict);
  ASSERT_FALSE(cli->scenario.faults.empty());
  ASSERT_EQ(cli->scenario.faults.packet.size(), 1u);
  EXPECT_DOUBLE_EQ(cli->scenario.faults.packet[0].probability, 0.1);
  ASSERT_EQ(cli->scenario.faults.node_faults.size(), 1u);
  EXPECT_TRUE(cli->scenario.faults.node_faults[0].reference);
  EXPECT_DOUBLE_EQ(cli->scenario.faults.node_faults[0].at_s, 30.0);
}

TEST(ConfigRoundTrip, DisciplineStringBecomesDisciplineFlag) {
  const auto args = args_for(R"({"discipline": "rls"})", ConfigTool::kSim);
  ASSERT_EQ(args.size(), 2u);
  EXPECT_EQ(args[0], "--discipline");
  EXPECT_EQ(args[1], "rls");
  // Accepted by every tool (the live stack runs disciplines too).
  EXPECT_TRUE(has_flag(args_for(R"({"discipline": "rls"})", ConfigTool::kNode),
                       "--discipline"));
  EXPECT_TRUE(has_flag(
      args_for(R"({"discipline": "rls"})", ConfigTool::kSwarm),
      "--discipline"));
}

TEST(ConfigRoundTrip, DisciplineObjectRoundTripsIntoScenario) {
  const auto args = args_for(
      R"({"discipline": {"name": "rls", "window": 24, "forgetting": 0.9,
                         "innovation-gate": 120, "span": 8}})",
      ConfigTool::kSim);
  ASSERT_TRUE(has_flag(args, "--discipline-params"));
  std::string error;
  const auto cli = parse_cli(args, ConfigTool::kSim, &error);
  ASSERT_TRUE(cli.has_value()) << error;
  EXPECT_EQ(cli->scenario.sstsp.discipline.name, "rls");
  EXPECT_EQ(cli->scenario.sstsp.discipline.window_bps, 24);
  EXPECT_DOUBLE_EQ(cli->scenario.sstsp.discipline.forgetting, 0.9);
  EXPECT_DOUBLE_EQ(cli->scenario.sstsp.discipline.innovation_gate_us, 120.0);
  EXPECT_EQ(cli->scenario.sstsp.solver_span_bps, 8);
}

TEST(ConfigRoundTrip, DisciplineUnknownNestedKeyNamesPath) {
  const std::string json =
      "{\n  \"discipline\": {\n  \"name\": \"rls\",\n  \"lambda\": 0.9\n}\n}";
  const auto root = obs::json::parse(json);
  ASSERT_TRUE(root.has_value());
  std::string error;
  EXPECT_FALSE(config_to_args(*root, ConfigTool::kSim, &error).has_value());
  EXPECT_NE(error.find("discipline.lambda"), std::string::npos) << error;
  EXPECT_NE(error.find("line 4"), std::string::npos) << error;
}

TEST(ConfigRoundTrip, ClockModelRoundTripsIntoScenario) {
  const auto args = args_for(
      R"({"clock-model": {"kind": "temp-ramp", "period": 0.5,
                          "ramp-ppm-per-s": 1.5, "ramp-start": 10}})",
      ConfigTool::kSim);
  std::string error;
  const auto cli = parse_cli(args, ConfigTool::kSim, &error);
  ASSERT_TRUE(cli.has_value()) << error;
  EXPECT_EQ(cli->scenario.clock_stress.kind, clk::DriftStressKind::kTempRamp);
  EXPECT_DOUBLE_EQ(cli->scenario.clock_stress.period_s, 0.5);
  EXPECT_DOUBLE_EQ(cli->scenario.clock_stress.ramp_ppm_per_s, 1.5);
  EXPECT_DOUBLE_EQ(cli->scenario.clock_stress.ramp_start_s, 10.0);
  EXPECT_TRUE(cli->scenario.clock_stress.enabled());

  // Sim-only: node and swarm skip it rather than reject it.
  EXPECT_TRUE(
      args_for(R"({"clock-model": "aging"})", ConfigTool::kNode).empty());
  EXPECT_TRUE(
      args_for(R"({"clock-model": "aging"})", ConfigTool::kSwarm).empty());
}

TEST(ConfigRoundTrip, ClockModelUnknownKindAndKeyAreErrors) {
  std::string error;
  const auto bad_kind = obs::json::parse(R"({"clock-model": "quartz-fire"})");
  ASSERT_TRUE(bad_kind.has_value());
  EXPECT_FALSE(
      config_to_args(*bad_kind, ConfigTool::kSim, &error).has_value());
  EXPECT_NE(error.find("quartz-fire"), std::string::npos) << error;

  const auto bad_key =
      obs::json::parse(R"({"clock-model": {"kind": "aging", "rate": 1}})");
  ASSERT_TRUE(bad_key.has_value());
  EXPECT_FALSE(
      config_to_args(*bad_key, ConfigTool::kSim, &error).has_value());
  EXPECT_NE(error.find("clock-model.rate"), std::string::npos) << error;
}

TEST(ConfigRoundTrip, DumpParseDumpIsAFixpoint) {
  const auto root = obs::json::parse(kUniversalConfig);
  ASSERT_TRUE(root.has_value());
  const std::string once = obs::json::dump(*root);
  const auto again = obs::json::parse(once);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(obs::json::dump(*again), once);
}

}  // namespace
}  // namespace sstsp::run

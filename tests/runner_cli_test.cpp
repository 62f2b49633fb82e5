// CLI parser (src/runner/cli.h).
#include <gtest/gtest.h>

#include "runner/cli.h"

namespace sstsp::run {
namespace {

std::optional<CliOptions> parse(std::vector<std::string> args,
                                std::string* err = nullptr) {
  std::string local;
  return parse_cli(args, err != nullptr ? err : &local);
}

TEST(Cli, DefaultsAreSane) {
  const auto opts = parse({});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->scenario.protocol, ProtocolKind::kSstsp);
  EXPECT_EQ(opts->scenario.num_nodes, 100);
  EXPECT_DOUBLE_EQ(opts->scenario.duration_s, 200.0);
  // Chain auto-sized to the duration.
  EXPECT_EQ(opts->scenario.sstsp.chain_length, 2200u);
  EXPECT_FALSE(opts->help);
}

TEST(Cli, ParsesEveryProtocolName) {
  EXPECT_EQ(parse({"--protocol", "tsf"})->scenario.protocol,
            ProtocolKind::kTsf);
  EXPECT_EQ(parse({"--protocol", "atsp"})->scenario.protocol,
            ProtocolKind::kAtsp);
  EXPECT_EQ(parse({"--protocol", "tatsp"})->scenario.protocol,
            ProtocolKind::kTatsp);
  EXPECT_EQ(parse({"--protocol", "satsf"})->scenario.protocol,
            ProtocolKind::kSatsf);
  EXPECT_EQ(parse({"--protocol", "rentel-kunz"})->scenario.protocol,
            ProtocolKind::kRentelKunz);
  EXPECT_EQ(parse({"--protocol", "rk"})->scenario.protocol,
            ProtocolKind::kRentelKunz);
  EXPECT_EQ(parse({"--protocol", "sstsp"})->scenario.protocol,
            ProtocolKind::kSstsp);
}

TEST(Cli, NumericOptions) {
  const auto opts = parse({"--nodes", "42", "--duration", "33.5", "--seed",
                           "7", "--m", "4", "--l", "2", "--per", "0.01",
                           "--guard", "250"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->scenario.num_nodes, 42);
  EXPECT_DOUBLE_EQ(opts->scenario.duration_s, 33.5);
  EXPECT_EQ(opts->scenario.seed, 7u);
  EXPECT_EQ(opts->scenario.sstsp.m, 4);
  EXPECT_EQ(opts->scenario.sstsp.l, 2);
  EXPECT_DOUBLE_EQ(opts->scenario.phy.packet_error_rate, 0.01);
  EXPECT_DOUBLE_EQ(opts->scenario.sstsp.guard_fine_us, 250.0);
}

TEST(Cli, ChurnAndDepartures) {
  const auto opts =
      parse({"--churn", "100,0.1,20", "--departures", "50,150.5"});
  ASSERT_TRUE(opts.has_value());
  ASSERT_TRUE(opts->scenario.churn.has_value());
  EXPECT_DOUBLE_EQ(opts->scenario.churn->period_s, 100.0);
  EXPECT_DOUBLE_EQ(opts->scenario.churn->fraction, 0.1);
  EXPECT_DOUBLE_EQ(opts->scenario.churn->absence_s, 20.0);
  ASSERT_EQ(opts->scenario.reference_departures_s.size(), 2u);
  EXPECT_DOUBLE_EQ(opts->scenario.reference_departures_s[1], 150.5);
}

TEST(Cli, PaperEnvForSstsp) {
  const auto opts = parse({"--paper-env"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_DOUBLE_EQ(opts->scenario.duration_s, 1000.0);
  ASSERT_TRUE(opts->scenario.churn.has_value());
  EXPECT_EQ(opts->scenario.reference_departures_s.size(), 3u);
  // Chain auto-sizing follows the new duration.
  EXPECT_EQ(opts->scenario.sstsp.chain_length, 10200u);
}

TEST(Cli, AttackConfiguration) {
  const auto opts = parse({"--attack", "internal-ref", "--attack-window",
                           "100,250", "--skew", "75"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->scenario.attack, "internal-ref");
  EXPECT_DOUBLE_EQ(opts->scenario.sstsp_attack.start_s, 100.0);
  EXPECT_DOUBLE_EQ(opts->scenario.sstsp_attack.end_s, 250.0);
  EXPECT_DOUBLE_EQ(opts->scenario.sstsp_attack.skew_rate_us_per_s, 75.0);
}

TEST(Cli, OutputOptions) {
  const auto opts = parse({"--csv", "/tmp/x.csv", "--chart", "--trace"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->csv_path, "/tmp/x.csv");
  EXPECT_TRUE(opts->ascii_chart);
  EXPECT_TRUE(opts->dump_trace);
  EXPECT_GT(opts->scenario.trace_capacity, 0u);
}

TEST(Cli, HelpShortCircuits) {
  const auto opts = parse({"--help"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_TRUE(opts->help);
  EXPECT_NE(cli_usage().find("--protocol"), std::string::npos);
}

TEST(Cli, RejectsBadInput) {
  std::string err;
  EXPECT_FALSE(parse({"--protocol", "ntp"}, &err).has_value());
  EXPECT_NE(err.find("unknown protocol"), std::string::npos);
  EXPECT_FALSE(parse({"--nodes", "-3"}, &err).has_value());
  EXPECT_FALSE(parse({"--nodes"}, &err).has_value());
  EXPECT_FALSE(parse({"--duration", "abc"}, &err).has_value());
  EXPECT_FALSE(parse({"--per", "1.5"}, &err).has_value());
  EXPECT_FALSE(parse({"--churn", "1,2"}, &err).has_value());
  EXPECT_FALSE(parse({"--attack-window", "50,40"}, &err).has_value());
  EXPECT_FALSE(parse({"--frobnicate"}, &err).has_value());
  EXPECT_NE(err.find("unknown option"), std::string::npos);
}

TEST(Cli, ExplicitChainLengthWins) {
  const auto opts = parse({"--duration", "500", "--chain-length", "999"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->scenario.sstsp.chain_length, 999u);
}

TEST(Cli, MonitorFlag) {
  EXPECT_FALSE(parse({})->scenario.monitor);
  const auto plain = parse({"--monitor"});
  ASSERT_TRUE(plain.has_value());
  EXPECT_TRUE(plain->scenario.monitor);
  EXPECT_FALSE(plain->monitor_strict);
  const auto strict = parse({"--monitor=strict"});
  ASSERT_TRUE(strict.has_value());
  EXPECT_TRUE(strict->scenario.monitor);
  EXPECT_TRUE(strict->monitor_strict);
}

TEST(Cli, DisciplineFlags) {
  EXPECT_EQ(parse({})->scenario.sstsp.discipline.effective_name(), "paper");
  const auto rls = parse({"--discipline", "rls"});
  ASSERT_TRUE(rls.has_value());
  EXPECT_EQ(rls->scenario.sstsp.discipline.name, "rls");

  const auto params = parse(
      {"--discipline-params",
       R"({"name":"rls","window":20,"forgetting":0.9})"});
  ASSERT_TRUE(params.has_value());
  EXPECT_EQ(params->scenario.sstsp.discipline.name, "rls");
  EXPECT_EQ(params->scenario.sstsp.discipline.window_bps, 20);
  EXPECT_DOUBLE_EQ(params->scenario.sstsp.discipline.forgetting, 0.9);

  std::string err;
  EXPECT_FALSE(parse({"--discipline", "kalman"}, &err).has_value());
  EXPECT_NE(err.find("unknown discipline"), std::string::npos);
  EXPECT_NE(err.find("holdover"), std::string::npos);  // lists valid names
  EXPECT_FALSE(
      parse({"--discipline-params", "{not json"}, &err).has_value());
  EXPECT_FALSE(
      parse({"--discipline-params", R"({"bogus":1})"}, &err).has_value());
  EXPECT_NE(err.find("discipline.bogus"), std::string::npos);
}

TEST(Cli, ClockModelFlags) {
  EXPECT_FALSE(parse({})->scenario.clock_stress.enabled());
  const auto ramp = parse({"--clock-model", "temp-ramp"});
  ASSERT_TRUE(ramp.has_value());
  EXPECT_EQ(ramp->scenario.clock_stress.kind,
            clk::DriftStressKind::kTempRamp);
  EXPECT_TRUE(ramp->scenario.clock_stress.enabled());

  const auto walk = parse(
      {"--clock-model-params",
       R"({"kind":"random-walk","walk-sigma-ppm":0.5,"period":0.25})"});
  ASSERT_TRUE(walk.has_value());
  EXPECT_EQ(walk->scenario.clock_stress.kind,
            clk::DriftStressKind::kRandomWalk);
  EXPECT_DOUBLE_EQ(walk->scenario.clock_stress.walk_sigma_ppm, 0.5);
  EXPECT_DOUBLE_EQ(walk->scenario.clock_stress.period_s, 0.25);

  std::string err;
  EXPECT_FALSE(parse({"--clock-model", "sundial"}, &err).has_value());
  EXPECT_NE(err.find("unknown clock model"), std::string::npos);
  EXPECT_FALSE(
      parse({"--clock-model-params", R"({"bogus":1})"}, &err).has_value());
  EXPECT_NE(err.find("clock-model.bogus"), std::string::npos);
}

TEST(Cli, UnknownTraceKindListsEveryValidName) {
  // The message enumerates every kind to_string knows about.
  const auto expect_every_kind = [](const std::string& err) {
    EXPECT_NE(err.find("unknown event kind: bogus"), std::string::npos);
    for (std::size_t i = 0; i < trace::kEventKindCount; ++i) {
      const auto name =
          std::string(trace::to_string(static_cast<trace::EventKind>(i)));
      EXPECT_NE(err.find(name), std::string::npos) << name;
    }
  };
  std::string err;
  EXPECT_FALSE(parse({"--trace-kind", "bogus"}, &err).has_value());
  expect_every_kind(err);
  // sstsp_swarm and sstsp_node parse the flag through the same group.
  for (const ConfigTool tool : {ConfigTool::kSwarm, ConfigTool::kNode}) {
    const std::vector<std::string> argv{"--trace-kind", "bogus"};
    std::size_t i = 0;
    obs::ObserverConfig observers;
    OutputOptions output;
    err.clear();
    EXPECT_EQ(parse_observer_flag(argv, i, tool, observers, output, &err),
              FlagParse::kFailed);
    expect_every_kind(err);
  }
}

TEST(Cli, ObserverFlagsFollowTheToolSchema) {
  const auto offer = [](std::vector<std::string> argv, ConfigTool tool,
                        obs::ObserverConfig& observers, OutputOptions& output) {
    std::size_t i = 0;
    std::string err;
    const FlagParse result =
        parse_observer_flag(argv, i, tool, observers, output, &err);
    EXPECT_EQ(i, result == FlagParse::kParsed ? argv.size() - 1 : 0u);
    return result;
  };
  obs::ObserverConfig observers;
  OutputOptions output;
  EXPECT_EQ(offer({"--telemetry-per-node", "1"}, ConfigTool::kSwarm,
                  observers, output),
            FlagParse::kParsed);
  EXPECT_EQ(observers.telemetry_per_node, 1);
  // sstsp_node has no per-node switch and no CSV/chart output: those stay
  // unknown options there, as before the flag group was shared.
  EXPECT_EQ(offer({"--telemetry-per-node", "0"}, ConfigTool::kNode,
                  observers, output),
            FlagParse::kNotMine);
  EXPECT_EQ(offer({"--csv", "x.csv"}, ConfigTool::kNode, observers, output),
            FlagParse::kNotMine);
  EXPECT_EQ(offer({"--nodes", "5"}, ConfigTool::kSim, observers, output),
            FlagParse::kNotMine);
  EXPECT_EQ(offer({"--monitor=strict"}, ConfigTool::kNode, observers, output),
            FlagParse::kParsed);
  EXPECT_TRUE(observers.monitor);
  EXPECT_TRUE(output.monitor_strict);
  EXPECT_EQ(offer({"--json-out", "run.jsonl"}, ConfigTool::kNode, observers,
                  output),
            FlagParse::kParsed);
  EXPECT_EQ(output.json_out_path, "run.jsonl");
  EXPECT_EQ(observers.trace_capacity, std::size_t{1} << 12);
}

}  // namespace
}  // namespace sstsp::run

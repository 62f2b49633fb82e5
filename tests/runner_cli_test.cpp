// CLI parser (src/runner/cli.h): the one flag table behind sstsp_sim,
// sstsp_swarm and sstsp_node.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>

#include "core/discipline.h"
#include "runner/cli.h"

namespace sstsp::run {
namespace {

std::optional<CliOptions> parse(std::vector<std::string> args,
                                std::string* err = nullptr) {
  std::string local;
  return parse_cli(args, ConfigTool::kSim, err != nullptr ? err : &local);
}

// Parses `args` as `tool` does; sstsp_node also needs an endpoint.
std::optional<CliOptions> parse_as(ConfigTool tool,
                                   std::vector<std::string> args,
                                   std::string* err) {
  if (tool == ConfigTool::kNode) {
    args.insert(args.begin(), {"--peer", "127.0.0.1:9"});
  }
  return parse_cli(args, tool, err);
}

constexpr ConfigTool kTools[] = {ConfigTool::kSim, ConfigTool::kSwarm,
                                 ConfigTool::kNode};

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
  // Out-of-range environment input: a zero or negative period would loop
  // the churn schedule forever, a negative fraction wraps the leaver count.
  EXPECT_FALSE(parse({"--churn", "0,0.05,1"}, &err).has_value());
  EXPECT_FALSE(parse({"--churn", "-5,0.05,1"}, &err).has_value());
  EXPECT_FALSE(parse({"--churn", "1,-0.5,1"}, &err).has_value());
  EXPECT_FALSE(parse({"--churn", "1,1.5,1"}, &err).has_value());
  EXPECT_FALSE(parse({"--churn", "1,0.05,-1"}, &err).has_value());
  EXPECT_NE(err.find("period > 0"), std::string::npos) << err;
  EXPECT_TRUE(parse({"--churn", "1,1,0"}).has_value());
  EXPECT_FALSE(parse({"--departures", "3,-1"}, &err).has_value());
  EXPECT_EQ(err, "--departures needs times >= 0");
  EXPECT_FALSE(parse({"--attack-window", "50,40"}, &err).has_value());
  EXPECT_FALSE(parse({"--frobnicate"}, &err).has_value());
  EXPECT_NE(err.find("unknown option"), std::string::npos);
}

TEST(Cli, ConfigFileEnvironmentGoesThroughTheSameChecks) {
  const std::string path = ::testing::TempDir() + "cli_churn_config.json";
  std::ofstream(path) << R"({"churn": [0, 0.05, 1]})";
  std::string err;
  EXPECT_FALSE(parse({"--config", path}, &err).has_value());
  EXPECT_NE(err.find("--churn needs"), std::string::npos) << err;
  std::ofstream(path) << R"({"churn": [1, 0.05, 1], "departures": [-2]})";
  EXPECT_FALSE(parse({"--config", path}, &err).has_value());
  EXPECT_EQ(err, "--departures needs times >= 0");
  std::remove(path.c_str());
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
  // sstsp_swarm and sstsp_node parse the flag through the same table row.
  for (const ConfigTool tool : {ConfigTool::kSwarm, ConfigTool::kNode}) {
    err.clear();
    EXPECT_FALSE(parse_as(tool, {"--trace-kind", "bogus"}, &err).has_value());
    expect_every_kind(err);
  }
}

TEST(Cli, ObserverFlagsFollowTheToolSchema) {
  std::string err;
  const auto swarm =
      parse_as(ConfigTool::kSwarm, {"--telemetry-per-node", "1"}, &err);
  ASSERT_TRUE(swarm.has_value()) << err;
  EXPECT_EQ(swarm->scenario.telemetry_per_node, 1);
  // sstsp_node has no per-node switch and no CSV/chart output: those are
  // unknown options there.
  EXPECT_FALSE(
      parse_as(ConfigTool::kNode, {"--telemetry-per-node", "0"}, &err));
  EXPECT_NE(err.find("unknown option"), std::string::npos);
  EXPECT_FALSE(parse_as(ConfigTool::kNode, {"--csv", "x.csv"}, &err));
  EXPECT_NE(err.find("unknown option"), std::string::npos);
  const auto node = parse_as(ConfigTool::kNode,
                             {"--monitor=strict", "--json-out", "run.jsonl"},
                             &err);
  ASSERT_TRUE(node.has_value()) << err;
  EXPECT_TRUE(node->scenario.monitor);
  EXPECT_TRUE(node->monitor_strict);
  EXPECT_EQ(node->json_out_path, "run.jsonl");
  EXPECT_EQ(node->scenario.trace_capacity, std::size_t{1} << 12);
}

TEST(Cli, LiveToolsStartFromTheLiveDefaults) {
  std::string err;
  for (const ConfigTool tool : {ConfigTool::kSwarm, ConfigTool::kNode}) {
    const auto opts = parse_as(tool, {}, &err);
    ASSERT_TRUE(opts.has_value()) << err;
    EXPECT_EQ(opts->scenario.num_nodes, 5);
    EXPECT_DOUBLE_EQ(opts->scenario.duration_s, 10.0);
    EXPECT_EQ(opts->scenario.sstsp.solver_span_bps,
              net::live_sstsp_defaults().solver_span_bps);
    EXPECT_EQ(opts->scenario.sstsp.chain_length, 300u);
  }
  const auto node = parse_as(ConfigTool::kNode, {}, &err);
  ASSERT_TRUE(node.has_value()) << err;
  EXPECT_EQ(node->live.bind_address, "0.0.0.0");
  EXPECT_DOUBLE_EQ(node->live.wire_latency_us, net::kUdpWireLatencyUs);
  const auto swarm = parse_as(ConfigTool::kSwarm, {}, &err);
  ASSERT_TRUE(swarm.has_value()) << err;
  EXPECT_EQ(swarm->live.bind_address, "127.0.0.1");
  EXPECT_LT(swarm->live.wire_latency_us, 0.0);  // auto
}

TEST(Cli, SimRejectsIntegersItsFieldsCannotHold) {
  std::string err;
  // 2^32 + 1 used to narrow to m = 1.
  EXPECT_FALSE(parse({"--m", "4294967297"}, &err).has_value());
  EXPECT_EQ(err, "--m needs a positive integer");
  EXPECT_FALSE(parse({"--chain-length", "99999999999999999999"}, &err));
  EXPECT_FALSE(parse({"--seed", "-1"}, &err).has_value());
  EXPECT_EQ(parse({"--seed", "18446744073709551615"})->scenario.seed,
            18446744073709551615u);
}

TEST(Cli, SwarmRejectsIntegersItsFieldsCannotHold) {
  std::string err;
  // 2^32 + 2 used to narrow to a 2-node swarm.
  EXPECT_FALSE(parse_as(ConfigTool::kSwarm,
                        {"--transport", "loopback", "--nodes", "4294967298"},
                        &err)
                   .has_value());
  EXPECT_EQ(err, "--nodes needs a positive integer (max 1000000)");
  EXPECT_FALSE(parse_as(ConfigTool::kSwarm, {"--base-port", "65536"}, &err));
}

TEST(Cli, NodeRejectsIntegersItsFieldsCannotHold) {
  std::string err;
  // 2^32 used to narrow to node 0.
  EXPECT_FALSE(parse_cli({"--id", "4294967296", "--nodes", "2", "--peer",
                          "127.0.0.1:9"},
                         ConfigTool::kNode, &err)
                   .has_value());
  EXPECT_EQ(err, "--id needs a non-negative integer");
  EXPECT_FALSE(parse_as(ConfigTool::kNode, {"--port", "65536"}, &err));
  EXPECT_FALSE(parse_as(ConfigTool::kNode, {"--peer", "h:70000"}, &err));
  const auto ok = parse_cli(
      {"--id", "1", "--nodes", "2", "--peer", "127.0.0.1:9"},
      ConfigTool::kNode, &err);
  ASSERT_TRUE(ok.has_value()) << err;
  EXPECT_EQ(ok->node.config.id, 1u);
  ASSERT_EQ(ok->node.udp.peers.size(), 1u);
  EXPECT_EQ(ok->node.udp.peers[0].port, 9);
}

TEST(Cli, UsageNamesExactlyTheToolsFlags) {
  const auto flag_char = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-';
  };
  for (const ConfigTool tool : kTools) {
    const std::string usage = cli_usage(tool);
    std::set<std::string> named;  // every "--name" the text mentions
    for (auto at = usage.find("--"); at != std::string::npos;
         at = usage.find("--", at)) {
      auto end = at + 2;
      while (end < usage.size() && flag_char(usage[end])) ++end;
      named.insert(usage.substr(at + 2, end - at - 2));
      at = end;
    }
    // The entry point's own flags, not table rows.
    EXPECT_EQ(named.erase("help"), 1u);
    EXPECT_EQ(named.erase("config"), 1u);
    std::set<std::string> table;
    for (const auto key : cli_flags(tool)) table.emplace(key);
    EXPECT_EQ(named, table) << static_cast<int>(tool);
  }
}

TEST(Cli, UnknownDisciplineListsTheRegistryForEveryTool) {
  for (const ConfigTool tool : kTools) {
    std::string err;
    EXPECT_FALSE(parse_as(tool, {"--discipline", "bogus"}, &err).has_value());
    EXPECT_NE(err.find("unknown discipline: bogus"), std::string::npos);
    for (const auto& name : core::discipline_names()) {
      EXPECT_NE(err.find(name), std::string::npos)
          << name << " / " << static_cast<int>(tool);
    }
  }
}

TEST(Cli, ConfigIsSplicedOnceForEveryTool) {
  const std::string path = ::testing::TempDir() + "cli_seed_config.json";
  std::ofstream(path) << R"({"seed": 9, "discipline": "rls"})";
  for (const ConfigTool tool : kTools) {
    std::string err;
    const auto opts = parse_as(tool, {"--config", path, "--seed", "4"}, &err);
    ASSERT_TRUE(opts.has_value()) << err;
    EXPECT_EQ(opts->scenario.seed, 4u);  // flags after --config override it
    EXPECT_EQ(opts->scenario.sstsp.discipline.name, "rls");
    EXPECT_FALSE(parse_as(tool, {"--config", path, "--config", path}, &err));
    EXPECT_EQ(err, "--config may be given only once");
    EXPECT_FALSE(parse_as(tool, {"--config"}, &err).has_value());
    EXPECT_EQ(err, "--config needs a path");
    EXPECT_TRUE(parse_as(tool, {"--help"}, &err)->help);
  }
  std::remove(path.c_str());
}

TEST(Cli, ConfigTakesEverySeedTheFlagTakes) {
  const std::string path = ::testing::TempDir() + "cli_big_seed_config.json";
  std::ofstream(path) << R"({"seed": 1000000000000000})";
  for (const ConfigTool tool : kTools) {
    std::string err;
    const auto opts = parse_as(tool, {"--config", path}, &err);
    ASSERT_TRUE(opts.has_value()) << err;
    EXPECT_EQ(opts->scenario.seed, 1000000000000000u);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sstsp::run

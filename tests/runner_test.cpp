#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "runner/network.h"
#include "runner/run_output.h"
#include "runner/sweep.h"

namespace sstsp::run {
namespace {

Scenario tiny(ProtocolKind kind, std::uint64_t seed) {
  Scenario s;
  s.protocol = kind;
  s.num_nodes = 8;
  s.duration_s = 20.0;
  s.seed = seed;
  s.sstsp.chain_length = 400;
  return s;
}

TEST(Sweep, ResultsInInputOrderAndDeterministic) {
  std::vector<Scenario> scenarios{tiny(ProtocolKind::kTsf, 1),
                                  tiny(ProtocolKind::kSstsp, 2),
                                  tiny(ProtocolKind::kAtsp, 3)};
  const auto parallel = run_sweep(scenarios, 3);
  ASSERT_EQ(parallel.size(), 3u);

  // Re-run serially: identical series (bit-reproducible scenarios).
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto serial = run_scenario(scenarios[i]);
    ASSERT_EQ(serial.max_diff.size(), parallel[i].max_diff.size()) << i;
    for (std::size_t p = 0; p < serial.max_diff.size(); ++p) {
      ASSERT_EQ(serial.max_diff.points()[p].value_us,
                parallel[i].max_diff.points()[p].value_us)
          << "scenario " << i << " point " << p;
    }
  }
}

TEST(Sweep, ScenarioFailureIsRethrownAfterTheWorkersJoin) {
  Scenario bad = tiny(ProtocolKind::kSstsp, 4);
  bad.attack = "internal-ref";
  bad.attack_params_json = R"({"skw":500})";
  const std::vector<Scenario> scenarios{tiny(ProtocolKind::kTsf, 1), bad,
                                        tiny(ProtocolKind::kTsf, 2)};
  EXPECT_THROW((void)run_sweep(scenarios, 2), std::runtime_error);
}

TEST(Scenario, PaperSection5Factory) {
  const Scenario s = Scenario::paper_section5(ProtocolKind::kSstsp, 300, 5);
  EXPECT_EQ(s.num_nodes, 300);
  EXPECT_EQ(s.duration_s, 1000.0);
  ASSERT_TRUE(s.churn.has_value());
  EXPECT_DOUBLE_EQ(s.churn->period_s, 200.0);
  EXPECT_DOUBLE_EQ(s.churn->fraction, 0.05);
  EXPECT_EQ(s.reference_departures_s.size(), 3u);

  const Scenario t = Scenario::paper_section5(ProtocolKind::kTsf, 100);
  EXPECT_TRUE(t.reference_departures_s.empty());  // TSF has no reference
}

TEST(Scenario, ProtocolNames) {
  EXPECT_STREQ(protocol_name(ProtocolKind::kTsf), "TSF");
  EXPECT_STREQ(protocol_name(ProtocolKind::kSstsp), "SSTSP");
  EXPECT_STREQ(protocol_name(ProtocolKind::kAtsp), "ATSP");
  EXPECT_STREQ(protocol_name(ProtocolKind::kTatsp), "TATSP");
  EXPECT_STREQ(protocol_name(ProtocolKind::kSatsf), "SATSF");
}

TEST(Network, InstantMaxDiffCountsOnlyEligibleStations) {
  Scenario s = tiny(ProtocolKind::kSstsp, 4);
  Network net(s);
  net.run_until(10.0);
  const auto diff = net.instant_max_diff_us();
  ASSERT_TRUE(diff.has_value());
  EXPECT_GE(*diff, 0.0);
  // Power half the network off: the metric must still be computable from
  // the remainder.
  for (std::size_t i = 0; i < net.station_count() / 2; ++i) {
    net.station(i).power_off();
  }
  EXPECT_TRUE(net.instant_max_diff_us().has_value());
}

TEST(Network, SamplerProducesOnePointPerPeriod) {
  Scenario s = tiny(ProtocolKind::kTsf, 6);
  s.sample_period_s = 0.5;
  const auto r = run_scenario(s);
  EXPECT_EQ(r.max_diff.size(), 40u);  // 20 s / 0.5 s
}

TEST(Network, ChurnRespectsFractionAndRecovers) {
  Scenario s = tiny(ProtocolKind::kTsf, 8);
  s.duration_s = 40.0;
  s.churn = ChurnSpec{10.0, 0.25, 5.0};
  Network net(s);
  net.run_until(10.5);
  int awake = 0;
  for (std::size_t i = 0; i < net.station_count(); ++i) {
    if (net.station(i).awake()) ++awake;
  }
  EXPECT_EQ(awake, 6);  // 25% of 8 left
  net.run_until(16.0);
  awake = 0;
  for (std::size_t i = 0; i < net.station_count(); ++i) {
    if (net.station(i).awake()) ++awake;
  }
  EXPECT_EQ(awake, 8);  // and returned
}

TEST(Determinism, IdenticalSeedsIdenticalRuns) {
  for (const auto kind :
       {ProtocolKind::kTsf, ProtocolKind::kSstsp, ProtocolKind::kSatsf}) {
    const auto a = run_scenario(tiny(kind, 99));
    const auto b = run_scenario(tiny(kind, 99));
    ASSERT_EQ(a.max_diff.size(), b.max_diff.size());
    for (std::size_t i = 0; i < a.max_diff.size(); ++i) {
      ASSERT_EQ(a.max_diff.points()[i].value_us, b.max_diff.points()[i].value_us);
    }
    EXPECT_EQ(a.channel.transmissions, b.channel.transmissions);
    EXPECT_EQ(a.honest.beacons_sent, b.honest.beacons_sent);
  }
}

TEST(Determinism, DifferentSeedsDiffer) {
  const auto a = run_scenario(tiny(ProtocolKind::kTsf, 1));
  const auto b = run_scenario(tiny(ProtocolKind::kTsf, 2));
  bool any_diff = a.max_diff.size() != b.max_diff.size();
  for (std::size_t i = 0; !any_diff && i < a.max_diff.size(); ++i) {
    any_diff = a.max_diff.points()[i].value_us != b.max_diff.points()[i].value_us;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RunOutput, SummaryWithoutPairwiseSeriesSaysNotApplicable) {
  // A lone node (sstsp_node) has no pairwise series; its summary must not
  // read like a run that never synchronized.
  std::ostringstream lone;
  print_result_summary(lone, RunResult{});
  EXPECT_NE(lone.str().find("sync latency (<25 us sustained): n/a (no "
                            "pairwise series)\n"),
            std::string::npos)
      << lone.str();
  EXPECT_NE(lone.str().find("steady max / p99 clock difference: n/a (no "
                            "pairwise series)\n"),
            std::string::npos)
      << lone.str();

  // A series that never settles keeps its verdicts.
  RunResult unsynced;
  unsynced.max_diff.push(1.0, 500.0);
  std::ostringstream out;
  print_result_summary(out, unsynced);
  EXPECT_NE(out.str().find("sync latency (<25 us sustained): never\n"),
            std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("steady max / p99 clock difference: - / - us\n"),
            std::string::npos)
      << out.str();
}

}  // namespace
}  // namespace sstsp::run

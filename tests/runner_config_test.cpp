// run::config_to_args / load_config_args (--config files): conversion of a
// flat JSON object into argv-style flags, the documented special cases, and
// rejection of everything that is not a flat object of scalars/arrays.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "runner/config_file.h"

namespace sstsp::run {
namespace {

std::vector<std::string> args_of(const std::string& json) {
  const std::optional<obs::json::Value> root = obs::json::parse(json);
  EXPECT_TRUE(root.has_value()) << json;
  std::string error;
  const auto args = config_to_args(*root, ConfigTool::kAny, &error);
  EXPECT_TRUE(args.has_value()) << error;
  return args.value_or(std::vector<std::string>{});
}

bool rejects(const std::string& json) {
  const std::optional<obs::json::Value> root = obs::json::parse(json);
  if (!root.has_value()) return true;
  std::string error;
  const auto args = config_to_args(*root, ConfigTool::kAny, &error);
  EXPECT_TRUE(args.has_value() || !error.empty());
  return !args.has_value();
}

TEST(RunnerConfig, ScalarsBecomeFlagValuePairs) {
  const std::vector<std::string> args =
      args_of(R"({"nodes": 5, "duration": 10.5, "protocol": "sstsp"})");
  // Key order inside a JSON object is preserved by the parser, so the
  // argv splice is deterministic.
  const std::vector<std::string> expected = {
      "--nodes", "5", "--duration", "10.5", "--protocol", "sstsp"};
  EXPECT_EQ(args, expected);
}

TEST(RunnerConfig, IntegersRenderWithoutDecimalPoint) {
  const std::vector<std::string> args = args_of(R"({"seed": 42})");
  ASSERT_EQ(args.size(), 2u);
  EXPECT_EQ(args[1], "42");
  EXPECT_EQ(args[1].find('.'), std::string::npos);
}

TEST(RunnerConfig, NumbersSpliceInTheirShortestExactForm) {
  // Whole numbers stay integers past 1e15 (a seed must not become
  // "1e+15"); fractions take the fewest digits that read back exactly.
  const std::vector<std::string> args = args_of(
      R"({"seed": 1000000000000000, "per": 0.05,
          "duration": 0.30000000000000004})");
  const std::vector<std::string> expected = {
      "--seed", "1000000000000000", "--per", "0.05",
      "--duration", "0.30000000000000004"};
  EXPECT_EQ(args, expected);
}

TEST(RunnerConfig, BooleansAreBareFlagsAndFalseIsOmitted) {
  const std::vector<std::string> args =
      args_of(R"({"chart": true, "profile": false, "nodes": 3})");
  const std::vector<std::string> expected = {"--chart", "--nodes", "3"};
  EXPECT_EQ(args, expected);
}

TEST(RunnerConfig, MonitorUsesEqualsForm) {
  const std::vector<std::string> args = args_of(R"({"monitor": "strict"})");
  const std::vector<std::string> expected = {"--monitor=strict"};
  EXPECT_EQ(args, expected);
}

TEST(RunnerConfig, ArraysJoinWithCommas) {
  const std::vector<std::string> args =
      args_of(R"({"departures": [300, 500, 800], "churn": [200, 0.05, 50]})");
  const std::vector<std::string> expected = {
      "--departures", "300,500,800", "--churn", "200,0.05,50"};
  EXPECT_EQ(args, expected);
}

TEST(RunnerConfig, RejectsNonObjectNestingAndRecursiveConfig) {
  EXPECT_TRUE(rejects(R"([1, 2, 3])"));          // not an object
  EXPECT_TRUE(rejects(R"("just a string")"));
  EXPECT_TRUE(rejects(R"({"phy": {"bp": 100}})"));  // nested object
  EXPECT_TRUE(rejects(R"({"departures": [[1], [2]]})"));  // nested array
  EXPECT_TRUE(rejects(R"({"config": "other.json"})"));    // no nesting
}

TEST(RunnerConfig, NullMeansLeaveAtDefault) {
  const std::vector<std::string> args =
      args_of(R"({"seed": null, "nodes": 2})");
  const std::vector<std::string> expected = {"--nodes", "2"};
  EXPECT_EQ(args, expected);
}

TEST(RunnerConfig, LoadReadsFileAndReportsMissingOnes) {
  const std::string path = ::testing::TempDir() + "/sstsp_config_test.json";
  {
    std::ofstream out(path);
    out << R"({"nodes": 4, "monitor": "strict", "expect-sync": true})";
  }
  std::string error;
  const auto args = load_config_args(path, ConfigTool::kAny, &error);
  ASSERT_TRUE(args.has_value()) << error;
  const std::vector<std::string> expected = {"--nodes", "4",
                                             "--monitor=strict",
                                             "--expect-sync"};
  EXPECT_EQ(*args, expected);
  std::remove(path.c_str());

  EXPECT_FALSE(load_config_args(path, ConfigTool::kAny, &error).has_value());
  EXPECT_FALSE(error.empty());

  {
    std::ofstream out(path);
    out << "{ not json";
  }
  EXPECT_FALSE(load_config_args(path, ConfigTool::kAny, &error).has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sstsp::run

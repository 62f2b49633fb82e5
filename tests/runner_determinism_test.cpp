// Golden determinism: a Scenario is a pure function of its seed.  Repeated
// runs must produce bit-identical results, and run_sweep must produce the
// same per-point results regardless of worker-thread count (each scenario
// owns its Simulator and RNG substreams; threads never share state).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "runner/cli.h"
#include "runner/experiment.h"
#include "runner/json_report.h"
#include "runner/parallel_network.h"
#include "runner/run_output.h"
#include "runner/sweep.h"

namespace sstsp::run {
namespace {

Scenario small_scenario(ProtocolKind kind) {
  Scenario s;
  s.protocol = kind;
  s.num_nodes = 25;
  s.duration_s = 8.0;
  s.seed = 7;
  s.sstsp.chain_length = 200;
  return s;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.sync_latency_s, b.sync_latency_s);
  EXPECT_EQ(a.steady_max_us, b.steady_max_us);
  EXPECT_EQ(a.steady_p99_us, b.steady_p99_us);

  EXPECT_EQ(a.channel.transmissions, b.channel.transmissions);
  EXPECT_EQ(a.channel.collided_transmissions,
            b.channel.collided_transmissions);
  EXPECT_EQ(a.channel.deliveries, b.channel.deliveries);
  EXPECT_EQ(a.channel.per_drops, b.channel.per_drops);
  EXPECT_EQ(a.channel.half_duplex_suppressed,
            b.channel.half_duplex_suppressed);
  EXPECT_EQ(a.channel.bytes_on_air, b.channel.bytes_on_air);

  EXPECT_EQ(a.honest.beacons_sent, b.honest.beacons_sent);
  EXPECT_EQ(a.honest.beacons_received, b.honest.beacons_received);
  EXPECT_EQ(a.honest.adjustments, b.honest.adjustments);
  EXPECT_EQ(a.honest.adoptions, b.honest.adoptions);
  EXPECT_EQ(a.honest.rejected_interval, b.honest.rejected_interval);
  EXPECT_EQ(a.honest.rejected_key, b.honest.rejected_key);
  EXPECT_EQ(a.honest.rejected_mac, b.honest.rejected_mac);
  EXPECT_EQ(a.honest.rejected_guard, b.honest.rejected_guard);
  EXPECT_EQ(a.honest.elections_won, b.honest.elections_won);
}

TEST(RunnerDeterminism, RepeatedRunsIdentical) {
  for (const auto kind : {ProtocolKind::kSstsp, ProtocolKind::kTsf}) {
    const Scenario s = small_scenario(kind);
    const RunResult first = run_scenario(s);
    const RunResult second = run_scenario(s);
    expect_identical(first, second);
    EXPECT_GT(first.channel.deliveries, 0u);
  }
}

TEST(RunnerDeterminism, ChurnRunsIdentical) {
  Scenario s = small_scenario(ProtocolKind::kSstsp);
  ChurnSpec churn;
  churn.period_s = 2.0;    // several churn events inside the short run,
  churn.fraction = 0.2;    // less than 1 s apart from the returns — the
  churn.absence_s = 1.0;   // regime that exercises per-event substreams
  s.churn = churn;
  expect_identical(run_scenario(s), run_scenario(s));
}

TEST(RunnerDeterminism, SweepResultsIndependentOfThreadCount) {
  std::vector<Scenario> scenarios;
  scenarios.push_back(small_scenario(ProtocolKind::kSstsp));
  scenarios.push_back(small_scenario(ProtocolKind::kTsf));
  Scenario churned = small_scenario(ProtocolKind::kSstsp);
  churned.churn = ChurnSpec{2.0, 0.2, 1.0};
  scenarios.push_back(churned);

  const auto serial = run_sweep(scenarios, 1);
  const auto parallel = run_sweep(scenarios, 3);
  ASSERT_EQ(serial.size(), scenarios.size());
  ASSERT_EQ(parallel.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    expect_identical(serial[i], parallel[i]);
  }
}

// The sharded kernel's determinism contract (DESIGN.md §12): for a fixed
// scenario, the serialized run document is byte-identical for every
// (shards, threads) combination — wall_seconds is the single wall-derived
// field in the document, so it is pinned before serializing.  `check` sees
// every run's result.
template <typename Check>
void expect_shard_thread_identity(const Scenario& base,
                                  std::initializer_list<int> shard_counts,
                                  const Check& check) {
  std::string reference;
  for (const int shards : shard_counts) {
    for (const int threads : {1, 2, 4}) {
      Scenario s = base;
      s.shards = shards;
      s.threads = threads;
      RunResult r = run_scenario(s);
      check(r);
      r.wall_seconds = 0.0;
      std::ostringstream os;
      write_run_json(os, s, r);
      if (reference.empty()) {
        reference = os.str();
      } else {
        EXPECT_EQ(reference, os.str())
            << "shards=" << shards << " threads=" << threads;
      }
    }
  }
}

// Exercised over both partition modes (single-hop id blocks and spatial
// column strips) with churn active so the control timeline interleaves
// windows.
TEST(RunnerDeterminism, ShardThreadMatrixByteIdentical) {
  for (const bool spatial : {false, true}) {
    SCOPED_TRACE(spatial ? "spatial" : "single-hop");
    Scenario base = small_scenario(ProtocolKind::kSstsp);
    base.churn = ChurnSpec{2.0, 0.2, 1.0};
    if (spatial) base.phy.radio_range_m = 30.0;
    expect_shard_thread_identity(base, {1, 2, 8}, [](const RunResult& r) {
      EXPECT_GT(r.channel.deliveries, 0u);
    });
  }
}

// Cluster scenarios (DESIGN.md §13) on the sharded kernel: gateway bridge
// announcements cross shards like any other frame, so the same contract
// holds, and the inter-cluster spread stays inside the cross-cluster bound.
TEST(RunnerDeterminism, ClusterShardThreadMatrixByteIdentical) {
  Scenario base;
  base.cluster.clusters = 3;
  base.cluster.nodes_per_cluster = 8;
  base.num_nodes = base.cluster.total_nodes();
  base.duration_s = 30.0;  // the steady window opens 20 s in
  base.seed = 5;
  base.phy.radio_range_m = 50.0;
  base.preestablished_reference = true;
  base.sstsp.chain_length = 400;
  expect_shard_thread_identity(base, {1, 3, 6}, [&](const RunResult& r) {
    ASSERT_TRUE(r.cluster_steady_max_us.has_value());
    EXPECT_LE(*r.cluster_steady_max_us, base.cluster.cross_cluster_bound_us());
  });
}

// sstsp_sim's run on the sharded kernel: parse the flags, build and run a
// ParallelNetwork, and report through RunOutput (wall time pinned to 0).
// Returns what the tool prints after its "running ..." line.
std::string run_sharded_cli(const std::vector<std::string>& args,
                            RunResult* result = nullptr) {
  std::string error;
  const auto opts = parse_cli(args, ConfigTool::kSim, &error);
  EXPECT_TRUE(opts.has_value()) << error;
  if (!opts) return {};
  ParallelNetwork net(opts->scenario);
  RunOutput output(*opts);
  EXPECT_TRUE(output.begin(net.trace(), &error)) << error;
  net.run();
  const RunResult r = collect_result(net, 0.0);
  std::ostringstream out;
  std::ostringstream err;
  (void)output.finish(out, err, opts->scenario, r, net.trace());
  if (result != nullptr) *result = r;
  return out.str();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// The merged trace is one stream for any partition: --trace prints the same
// bytes at 1 and 4 shards, and the ring saw every event the event.*
// counters counted.
TEST(RunnerDeterminism, ShardedTraceSummaryIndependentOfShardCount) {
  RunResult result;
  const std::vector<std::string> args = {"--nodes", "200", "--duration", "60",
                                         "--trace", "--threads", "1"};
  std::vector<std::string> one = args;
  one.insert(one.end(), {"--shards", "1"});
  std::vector<std::string> four = args;
  four.insert(four.end(), {"--shards", "4"});
  const std::string reference = run_sharded_cli(one, &result);
  EXPECT_EQ(reference, run_sharded_cli(four));

  std::uint64_t counted = 0;
  for (const auto& [name, value] : result.metrics.counters) {
    if (name.rfind("event.", 0) == 0) counted += value;
  }
  EXPECT_GT(counted, 0u);
  EXPECT_NE(reference.find("(recorded " + std::to_string(counted) +
                           " events total"),
            std::string::npos)
      << reference;
}

// Every observer on the sharded kernel at once, in the shape of the
// cluster-faults benchmark: three chained clusters under a gateway crash,
// a reference crash and loss on the gateway's frames, with the monitor,
// the JSONL stream, telemetry and the flight recorder on.  Deployment seed
// 1 raises reference-uniqueness audits, so the flight recorder dumps.  The
// run JSON (audit and recovery blocks included), the JSONL stream, the
// telemetry JSONL and the flight dump are byte-identical over shards
// {1, 3, 6} x threads {1, 2, 4}.
TEST(RunnerDeterminism, ObservedClusterFaultRunByteIdentical) {
  constexpr const char* kPlan = R"({"seed": 1,
    "packet": [{"kind": "drop", "probability": 0.05, "start": 30, "end": 70,
                "from": 20}],
    "node_faults": [{"kind": "crash", "node": 20, "at": 40, "restart": 46},
                    {"kind": "crash", "node": "reference", "at": 80}]})";
  const std::string dir = testing::TempDir() + "/observed_cluster_";
  const std::vector<std::string> files = {"run.json", "events.jsonl",
                                          "telemetry.jsonl", "flight.jsonl"};
  std::vector<std::string> reference;
  for (const int shards : {1, 3, 6}) {
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      RunResult r;
      (void)run_sharded_cli(
          {"--clusters", "3", "--cluster-nodes", "20", "--radio-range", "50",
           "--preestablished", "--duration", "120", "--seed", "1",
           "--faults-json", kPlan, "--monitor", "--metrics-out",
           dir + files[0], "--json-out", dir + files[1], "--telemetry-out",
           dir + files[2], "--flight-recorder", dir + files[3], "--shards",
           std::to_string(shards), "--threads", std::to_string(threads)},
          &r);
      ASSERT_TRUE(r.audit.has_value());
      EXPECT_FALSE(r.audit->clean());
      ASSERT_TRUE(r.recovery.has_value());
      EXPECT_EQ(r.recovery->records.size(), 2u);
      EXPECT_GT(r.recovery->packet_faults.drops, 0u);
      std::vector<std::string> outputs;
      for (const std::string& f : files) {
        outputs.push_back(slurp(dir + f));
        EXPECT_FALSE(outputs.back().empty()) << f;
        std::remove((dir + f).c_str());
      }
      if (reference.empty()) {
        reference = outputs;
        continue;
      }
      for (std::size_t i = 0; i < files.size(); ++i) {
        EXPECT_TRUE(outputs[i] == reference[i]) << files[i] << " differs";
      }
    }
  }
}

}  // namespace
}  // namespace sstsp::run

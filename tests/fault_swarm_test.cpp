// The same FaultPlan format through the live stack: partition heal on a
// 5-node loopback swarm (strict-audit-clean), the ISSUE acceptance plan
// (reference crash at t=30 under 10% loss), and failure surfacing for a
// node that goes silent without a planned fault.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fault/plan.h"
#include "net/swarm.h"

namespace sstsp::net {
namespace {

SwarmConfig loopback_config(std::uint64_t seed, double duration_s) {
  SwarmConfig config;
  config.transport = TransportKind::kLoopback;
  config.num_nodes = 5;
  config.duration_s = duration_s;
  config.seed = seed;
  config.monitor = true;
  return config;
}

fault::FaultPlan plan_from(const char* json) {
  std::string error;
  const auto plan = fault::parse_plan_text(json, &error);
  EXPECT_TRUE(plan.has_value()) << error;
  return plan.value_or(fault::FaultPlan{});
}

run::RunResult run_swarm(const SwarmConfig& config, Swarm** out = nullptr,
                         std::unique_ptr<Swarm>* keep = nullptr) {
  std::string error;
  std::unique_ptr<Swarm> swarm = Swarm::create(config, &error);
  EXPECT_NE(swarm, nullptr) << error;
  swarm->run();
  const run::RunResult result = swarm->collect();
  if (out != nullptr) *out = swarm.get();
  if (keep != nullptr) *keep = std::move(swarm);
  return result;
}

TEST(FaultSwarm, PartitionHealResyncsAuditClean) {
  SwarmConfig config = loopback_config(1, 30.0);
  config.faults = plan_from(R"({
    "partitions": [{"start": 10, "end": 18, "group_a": [3, 4]}]
  })");
  std::unique_ptr<Swarm> swarm;
  const run::RunResult result = run_swarm(config, nullptr, &swarm);

  ASSERT_TRUE(result.audit.has_value());
  EXPECT_TRUE(result.audit->records.empty())
      << result.audit->records.size() << " audit record(s), first: "
      << result.audit->records.front().detail;
  EXPECT_TRUE(swarm->failed_nodes().empty());

  ASSERT_TRUE(result.recovery.has_value());
  ASSERT_EQ(result.recovery->records.size(), 1u);
  const auto& rec = result.recovery->records[0];
  EXPECT_EQ(rec.fault, "partition-heal");
  EXPECT_TRUE(rec.recovered);
  EXPECT_GE(rec.resync_s, 0.0);
  EXPECT_GT(result.recovery->packet_faults.partition_drops, 0u);
}

TEST(FaultSwarm, AcceptancePlanReelectsWithinBoundStrictClean) {
  // The exact plan examples/faults/ref_crash_loss.json ships — identical
  // JSON runs through sstsp_sim (see fault_injection_test) and this swarm.
  SwarmConfig config = loopback_config(1, 45.0);
  config.faults = plan_from(R"({
    "seed": 1,
    "packet": [{"kind": "drop", "probability": 0.1}],
    "node_faults": [{"kind": "crash", "node": "reference", "at": 30}]
  })");
  std::unique_ptr<Swarm> swarm;
  const run::RunResult result = run_swarm(config, nullptr, &swarm);

  ASSERT_TRUE(result.audit.has_value());
  EXPECT_TRUE(result.audit->records.empty())
      << result.audit->records.size() << " audit record(s), first: "
      << result.audit->records.front().detail;
  EXPECT_TRUE(swarm->failed_nodes().empty());  // the crash was planned

  ASSERT_TRUE(result.recovery.has_value());
  ASSERT_EQ(result.recovery->records.size(), 1u);
  const auto& rec = result.recovery->records[0];
  EXPECT_EQ(rec.fault, "reference-crash");
  EXPECT_TRUE(rec.recovered);
  // Paper bound: detection after l+1 silent BPs, plus contention/confirm.
  EXPECT_LE(rec.reelection_bps, (config.sstsp.l + 1) + 4.0);
  EXPECT_GE(result.recovery->post_fault_steady_max_us, 0.0);
  EXPECT_LT(result.recovery->post_fault_steady_max_us, 25.0);
  EXPECT_GT(result.recovery->packet_faults.drops, 0u);
}

TEST(FaultSwarm, DeafNodeWithoutPlannedFaultIsSurfacedAsFailure) {
  // Cut every delivery to node 4 for the whole run: it never hears a
  // beacon while its peers exchange hundreds.  That is an unplanned
  // failure mode (nothing in the plan says the node should be down), so
  // collect() must flag it instead of reporting a clean run.
  SwarmConfig config = loopback_config(1, 10.0);
  config.faults = plan_from(
      R"({"packet": [{"kind": "drop", "probability": 1.0, "to": 4}]})");
  std::unique_ptr<Swarm> swarm;
  const run::RunResult result = run_swarm(config, nullptr, &swarm);

  ASSERT_EQ(swarm->failed_nodes().size(), 1u);
  EXPECT_EQ(swarm->failed_nodes()[0], 4u);
  ASSERT_TRUE(result.audit.has_value());
  bool found = false;
  for (const auto& record : result.audit->records) {
    if (record.kind == obs::InvariantKind::kNodeFailure &&
        record.node == 4u) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no kNodeFailure audit record for the deaf node";
}

TEST(FaultSwarm, PlannedCrashIsNotFlaggedAsFailure) {
  SwarmConfig config = loopback_config(1, 12.0);
  config.faults = plan_from(
      R"({"node_faults": [{"kind": "crash", "node": 2, "at": 6}]})");
  std::unique_ptr<Swarm> swarm;
  const run::RunResult result = run_swarm(config, nullptr, &swarm);
  (void)result;
  EXPECT_TRUE(swarm->failed_nodes().empty());
}

}  // namespace
}  // namespace sstsp::net

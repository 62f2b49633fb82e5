// net::Swarm over the virtual-time LoopbackTransport: a 5-node live-stack
// deployment must converge audit-clean under the PR-2 invariant monitor,
// and a seeded run must be bit-reproducible — two runs with the same
// configuration produce byte-identical JSONL sync traces.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "net/swarm.h"
#include "obs/export.h"

namespace sstsp::net {
namespace {

SwarmConfig loopback_config(std::uint64_t seed) {
  SwarmConfig config;
  config.transport = TransportKind::kLoopback;
  config.num_nodes = 5;
  config.duration_s = 8.0;
  config.seed = seed;
  config.monitor = true;
  config.trace_capacity = 1 << 14;
  return config;
}

// Runs one swarm to completion, streaming the event trace into `jsonl`.
run::RunResult run_swarm(const SwarmConfig& config, std::ostream& jsonl,
                         std::optional<mac::NodeId>* reference,
                         std::optional<double>* final_diff) {
  std::string error;
  std::unique_ptr<Swarm> swarm = Swarm::create(config, &error);
  EXPECT_NE(swarm, nullptr) << error;
  obs::attach_jsonl_sink(*swarm->observers().trace(), jsonl);
  swarm->run();
  if (reference != nullptr) *reference = swarm->current_reference();
  if (final_diff != nullptr) *final_diff = swarm->instant_max_diff_us();
  return swarm->collect();
}

TEST(NetSwarm, FiveNodeLoopbackConvergesAuditClean) {
  std::ostringstream jsonl;
  std::optional<mac::NodeId> reference;
  std::optional<double> final_diff;
  const run::RunResult result =
      run_swarm(loopback_config(1), jsonl, &reference, &final_diff);

  // A reference was elected and every node tracks it inside the guard
  // threshold (eq. 5) — in fact well inside the monitor's 25 us
  // convergence band, or the audit below would not be clean.
  ASSERT_TRUE(reference.has_value());
  ASSERT_TRUE(final_diff.has_value());
  EXPECT_LT(*final_diff, 25.0);

  ASSERT_TRUE(result.audit.has_value());
  EXPECT_TRUE(result.audit->records.empty())
      << result.audit->records.size() << " audit record(s), first: "
      << (result.audit->records.empty()
              ? std::string{}
              : result.audit->records.front().detail);

  // Wire accounting: every beacon was serialized onto the hub and fanned
  // out to the 4 other endpoints; the strict decoder rejected nothing.
  ASSERT_TRUE(result.net.has_value());
  EXPECT_GT(result.net->frames_sent, 0u);
  EXPECT_EQ(result.net->frames_received, result.net->frames_sent * 4);
  EXPECT_EQ(result.net->decode_errors, 0u);
  EXPECT_EQ(result.net->self_frames_dropped, 0u);
  EXPECT_EQ(result.net->transport.send_errors, 0u);
  EXPECT_GT(result.honest.adjustments, 0u);
}

TEST(NetSwarm, SeededRunsProduceByteIdenticalTraces) {
  std::ostringstream first_jsonl;
  std::ostringstream second_jsonl;
  const run::RunResult first =
      run_swarm(loopback_config(42), first_jsonl, nullptr, nullptr);
  const run::RunResult second =
      run_swarm(loopback_config(42), second_jsonl, nullptr, nullptr);

  const std::string a = first_jsonl.str();
  const std::string b = second_jsonl.str();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "seeded loopback runs diverged";

  // The aggregate counters must agree too, not just the trace stream.
  EXPECT_EQ(first.honest.beacons_sent, second.honest.beacons_sent);
  EXPECT_EQ(first.honest.adjustments, second.honest.adjustments);
  EXPECT_EQ(first.events_processed, second.events_processed);
  ASSERT_TRUE(first.net.has_value());
  ASSERT_TRUE(second.net.has_value());
  EXPECT_EQ(first.net->transport.bytes_sent, second.net->transport.bytes_sent);
}

TEST(NetSwarm, DifferentSeedsDiverge) {
  std::ostringstream first_jsonl;
  std::ostringstream second_jsonl;
  (void)run_swarm(loopback_config(1), first_jsonl, nullptr, nullptr);
  (void)run_swarm(loopback_config(2), second_jsonl, nullptr, nullptr);
  EXPECT_NE(first_jsonl.str(), second_jsonl.str());
}

TEST(NetSwarm, RejectsBadConfig) {
  std::string error;
  SwarmConfig config = loopback_config(1);
  config.num_nodes = 0;
  EXPECT_EQ(Swarm::create(config, &error), nullptr);
  EXPECT_FALSE(error.empty());
  config = loopback_config(1);
  config.duration_s = 0.0;
  EXPECT_EQ(Swarm::create(config, &error), nullptr);
  // The nodes run plain SSTSP; the deployment's cluster census would
  // misread them.
  config = loopback_config(1);
  config.cluster.clusters = 1;
  EXPECT_EQ(Swarm::create(config, &error), nullptr);
}

}  // namespace
}  // namespace sstsp::net

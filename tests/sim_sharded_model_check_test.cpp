// Randomized model check: sharded kernel vs the single-threaded kernel.
//
// With packet_error_rate = 0 and a degenerate receive-latency interval
// (rx_latency_min == rx_latency_max) the channel consumes no randomness
// per delivery, so the two kernels' documented RNG-stream deviation
// (DESIGN.md §12) vanishes and the sharded kernel must reproduce the
// legacy kernel EXACTLY: same delivery schedule, same protocol decisions,
// same sampled clock spreads — over random seeds, node counts, partition
// modes and churn.  Trace events are compared as multisets with trace_id
// excluded (transmission ids are (sender, seq) in the sharded kernel and
// a global counter in the legacy one; everything observable must match).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "obs/json.h"
#include "runner/experiment.h"
#include "runner/network.h"
#include "runner/parallel_network.h"

namespace sstsp::run {
namespace {

// (time ps, node, kind, peer, value_us) — everything but trace_id.
using FlatEvent = std::tuple<std::int64_t, int, int, int, double>;

std::vector<FlatEvent> flatten(const std::vector<trace::TraceEvent>& events) {
  std::vector<FlatEvent> flat;
  flat.reserve(events.size());
  for (const auto& e : events) {
    flat.emplace_back(e.time.ps, static_cast<int>(e.node),
                      static_cast<int>(e.kind), static_cast<int>(e.peer),
                      e.value_us);
  }
  std::sort(flat.begin(), flat.end());
  return flat;
}

void expect_stats_equal(const mac::ChannelStats& a,
                        const mac::ChannelStats& b) {
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.collided_transmissions, b.collided_transmissions);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.per_drops, b.per_drops);
  EXPECT_EQ(a.half_duplex_suppressed, b.half_duplex_suppressed);
  EXPECT_EQ(a.bytes_on_air, b.bytes_on_air);
}

void expect_stats_equal(const proto::ProtocolStats& a,
                        const proto::ProtocolStats& b) {
  EXPECT_EQ(a.beacons_sent, b.beacons_sent);
  EXPECT_EQ(a.beacons_received, b.beacons_received);
  EXPECT_EQ(a.adoptions, b.adoptions);
  EXPECT_EQ(a.adjustments, b.adjustments);
  EXPECT_EQ(a.rejected_interval, b.rejected_interval);
  EXPECT_EQ(a.rejected_key, b.rejected_key);
  EXPECT_EQ(a.rejected_mac, b.rejected_mac);
  EXPECT_EQ(a.rejected_guard, b.rejected_guard);
  EXPECT_EQ(a.elections_won, b.elections_won);
  EXPECT_EQ(a.demotions, b.demotions);
  EXPECT_EQ(a.coarse_steps, b.coarse_steps);
  EXPECT_EQ(a.solver_rejections, b.solver_rejections);
}

/// The JSON of an optional report block, "null" when absent.
template <class Block>
std::string block_json(const std::optional<Block>& block) {
  if (!block) return "null";
  std::ostringstream os;
  obs::json::Writer w(os);
  block->append_json(w);
  return os.str();
}

Scenario deterministic_channel_scenario(std::uint64_t seed, int nodes,
                                        double radio_range_m, bool churn) {
  Scenario s;
  s.protocol = ProtocolKind::kSstsp;
  s.num_nodes = nodes;
  s.duration_s = 6.0;
  s.seed = seed;
  s.sstsp.chain_length = 200;
  s.phy.packet_error_rate = 0.0;
  s.phy.rx_latency_max = s.phy.rx_latency_min;  // no per-delivery draw
  s.phy.radio_range_m = radio_range_m;
  if (churn) s.churn = ChurnSpec{2.0, 0.2, 1.0};
  s.trace_capacity = 1U << 20;  // retain everything; eviction would make
                                // the multiset comparison vacuous
  return s;
}

/// Runs `base` on both kernels and checks them event for event; stores the
/// legacy kernel's channel stats in `legacy_stats` and its result in
/// `legacy_out` when given.
void check_scenario(const Scenario& base,
                    mac::ChannelStats* legacy_stats = nullptr,
                    RunResult* legacy_out = nullptr) {
  Network legacy(base);
  legacy.run();

  Scenario sharded_s = base;
  sharded_s.shards = 3;
  sharded_s.threads = 2;
  ParallelNetwork sharded(sharded_s);
  sharded.run();

  expect_stats_equal(legacy.channel_stats(), sharded.channel_stats());
  expect_stats_equal(legacy.honest_stats(), sharded.honest_stats());
  EXPECT_EQ(legacy.simulator().events_processed(),
            sharded.events_processed());

  // Clock-spread samples must agree to the last bit: every protocol's
  // notion of network time derives from exact delivery timestamps.
  const auto& la = legacy.max_diff_series().points();
  const auto& sa = sharded.max_diff_series().points();
  ASSERT_EQ(la.size(), sa.size());
  for (std::size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la[i].t_s, sa[i].t_s) << "sample " << i;
    EXPECT_EQ(la[i].value_us, sa[i].value_us) << "sample " << i;
  }

  ASSERT_NE(legacy.trace(), nullptr);
  EXPECT_EQ(legacy.trace()->dropped(), 0u);
  ASSERT_NE(sharded.trace(), nullptr);
  EXPECT_EQ(sharded.trace()->dropped(), 0u);
  const auto all = [](const trace::TraceEvent&) { return true; };
  const auto legacy_flat = flatten(legacy.trace()->select(all));
  const auto sharded_flat = flatten(sharded.trace()->select(all));
  EXPECT_GT(legacy_flat.size(), 0u);
  EXPECT_EQ(legacy_flat, sharded_flat);

  // The monitor's audit and the recovery block, when the scenario asks for
  // them, see the same run.
  const RunResult legacy_result = collect_result(legacy, 0.0);
  const RunResult sharded_result = collect_result(sharded, 0.0);
  EXPECT_EQ(block_json(legacy_result.audit), block_json(sharded_result.audit));
  EXPECT_EQ(block_json(legacy_result.recovery),
            block_json(sharded_result.recovery));
  if (legacy_stats != nullptr) *legacy_stats = legacy.channel_stats();
  if (legacy_out != nullptr) *legacy_out = legacy_result;
}

TEST(ShardedModelCheck, SingleHopMatchesLegacyKernel) {
  for (const std::uint64_t seed : {1ULL, 23ULL, 456ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    check_scenario(deterministic_channel_scenario(
        seed, /*nodes=*/12 + static_cast<int>(seed % 9),
        /*radio_range_m=*/0.0, /*churn=*/false));
  }
}

TEST(ShardedModelCheck, SpatialPartitionMatchesLegacyKernel) {
  for (const std::uint64_t seed : {7ULL, 91ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    check_scenario(deterministic_channel_scenario(
        seed, /*nodes=*/18 + static_cast<int>(seed % 7),
        /*radio_range_m=*/35.0, /*churn=*/false));
  }
}

TEST(ShardedModelCheck, ChurnedControlTimelineMatchesLegacyKernel) {
  check_scenario(deterministic_channel_scenario(/*seed=*/5, /*nodes=*/20,
                                                /*radio_range_m=*/0.0,
                                                /*churn=*/true));
  check_scenario(deterministic_channel_scenario(/*seed=*/11, /*nodes=*/16,
                                                /*radio_range_m=*/40.0,
                                                /*churn=*/true));
}

// The rest of the shared environment timeline on the control simulator:
// reference departures and per-node clock stress next to churn.
TEST(ShardedModelCheck, DeparturesAndClockStressMatchLegacyKernel) {
  Scenario s = deterministic_channel_scenario(/*seed=*/9, /*nodes=*/20,
                                              /*radio_range_m=*/0.0,
                                              /*churn=*/true);
  s.duration_s = 8.0;
  s.reference_departures_s = {3.0, 5.5};
  s.departure_absence_s = 1.0;
  s.clock_stress.kind = clk::DriftStressKind::kRandomWalk;
  s.clock_stress.period_s = 0.5;
  check_scenario(s);
}

// The monitor with a fault plan that draws nothing: a partition that heals,
// a reference crash with a restart, a follower's pause and a clock step.
// Its node, clock and pause events run on the control timeline, the
// partition and the pause cut deliveries on every shard channel, and the
// monitor and recovery tracker see the shards' events merged at each
// window commit.
TEST(ShardedModelCheck, MonitoredFaultPlanMatchesLegacyKernel) {
  Scenario s = deterministic_channel_scenario(/*seed=*/3, /*nodes=*/16,
                                              /*radio_range_m=*/0.0,
                                              /*churn=*/false);
  s.duration_s = 12.0;
  s.monitor = true;
  fault::Partition split;
  split.start_s = 2.0;
  split.end_s = 4.0;
  split.group_a = {0, 1, 2, 3, 4, 5, 6, 7};
  s.faults.partitions.push_back(split);
  fault::NodeFault crash;
  crash.reference = true;
  crash.at_s = 6.0;
  crash.restart_s = 7.5;
  s.faults.node_faults.push_back(crash);
  fault::NodeFault pause;
  pause.kind = fault::NodeFaultKind::kPause;
  pause.node = 11;
  pause.at_s = 10.0;
  pause.restart_s = 10.5;
  s.faults.node_faults.push_back(pause);
  fault::ClockFault step;
  step.node = 9;
  step.at_s = 9.0;
  step.step_us = 300.0;
  s.faults.clock_faults.push_back(step);
  RunResult r;
  check_scenario(s, nullptr, &r);
  // Not vacuous: the faults opened records, and the partition and the
  // pause cut frames.
  ASSERT_TRUE(r.recovery.has_value());
  EXPECT_EQ(r.recovery->records.size(), 3u);
  EXPECT_GT(r.recovery->packet_faults.partition_drops, 0u);
  EXPECT_GT(r.recovery->packet_faults.isolation_drops, 0u);
  ASSERT_TRUE(r.audit.has_value());
  EXPECT_FALSE(r.audit->records.empty());
}

// The attacker station: its drift draw, its adversary from the shared
// protocol factory, and the honest/attacker stats split.
TEST(ShardedModelCheck, AdversariesMatchLegacyKernel) {
  {
    SCOPED_TRACE("internal-ref");
    Scenario s = deterministic_channel_scenario(/*seed=*/13, /*nodes=*/18,
                                                /*radio_range_m=*/40.0,
                                                /*churn=*/false);
    s.attack = "internal-ref";
    s.sstsp_attack.start_s = 2.0;
    s.sstsp_attack.end_s = 5.0;
    s.preestablished_reference = true;
    check_scenario(s);
  }
  {
    SCOPED_TRACE("replay");
    Scenario s = deterministic_channel_scenario(/*seed=*/21, /*nodes=*/16,
                                                /*radio_range_m=*/0.0,
                                                /*churn=*/false);
    s.attack = "replay";
    s.sstsp_attack.start_s = 2.0;
    s.sstsp_attack.end_s = 5.0;
    check_scenario(s);
  }
  {
    SCOPED_TRACE("tsf-slow");
    Scenario s = deterministic_channel_scenario(/*seed=*/4, /*nodes=*/14,
                                                /*radio_range_m=*/0.0,
                                                /*churn=*/false);
    s.protocol = ProtocolKind::kTsf;
    s.attack = "tsf-slow";
    s.tsf_attack.start_s = 2.0;
    s.tsf_attack.end_s = 5.0;
    check_scenario(s);
  }
}

// The shared protocol factory beyond SSTSP, under churn.
TEST(ShardedModelCheck, TsfFamilyUnderChurnMatchesLegacyKernel) {
  for (const ProtocolKind kind : {ProtocolKind::kTsf, ProtocolKind::kSatsf}) {
    SCOPED_TRACE(static_cast<int>(kind));
    Scenario s = deterministic_channel_scenario(/*seed=*/4, /*nodes=*/14,
                                                /*radio_range_m=*/0.0,
                                                /*churn=*/true);
    s.protocol = kind;
    check_scenario(s);
  }
}

// 150 stations in a disc under five radio ranges across: a third or more
// of the frames collide, so the interference verdicts and carrier-sense
// probes routinely see several concurrent transmissions.
TEST(ShardedModelCheck, DenseContentionMatchesLegacyKernel) {
  for (const std::uint64_t seed : {3ULL, 17ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Scenario s = deterministic_channel_scenario(seed, /*nodes=*/150,
                                                /*radio_range_m=*/25.0,
                                                /*churn=*/false);
    s.phy.placement_radius_m = 60.0;
    mac::ChannelStats stats;
    check_scenario(s, &stats);
    // Not vacuous: a sizeable share of the transmissions collided.
    ASSERT_GT(stats.transmissions, 0u);
    EXPECT_GE(static_cast<double>(stats.collided_transmissions),
              0.30 * static_cast<double>(stats.transmissions))
        << stats.collided_transmissions << "/" << stats.transmissions
        << " collided";
  }
}

}  // namespace
}  // namespace sstsp::run

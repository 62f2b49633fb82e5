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
#include <tuple>
#include <vector>

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
/// legacy kernel's channel stats in `legacy_stats` when given.
void check_scenario(const Scenario& base,
                    mac::ChannelStats* legacy_stats = nullptr) {
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
  std::vector<trace::TraceEvent> sharded_events;
  for (const auto& t : sharded.shard_traces()) {
    EXPECT_EQ(t->dropped(), 0u);
    const auto part =
        t->select([](const trace::TraceEvent&) { return true; });
    sharded_events.insert(sharded_events.end(), part.begin(), part.end());
  }
  const auto legacy_flat = flatten(
      legacy.trace()->select([](const trace::TraceEvent&) { return true; }));
  const auto sharded_flat = flatten(sharded_events);
  EXPECT_GT(legacy_flat.size(), 0u);
  EXPECT_EQ(legacy_flat, sharded_flat);
  if (legacy_stats != nullptr) *legacy_stats = legacy.channel_stats();
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

// Cross-node trace analyzer: torn-line tolerance, causal chain stitching by
// trace_id, convergence/spike detection, recovery curves from run-summary
// fault marks, and the headline acceptance scenario — a partitioned 5-node
// live swarm whose merged telemetry + event streams show the error spike
// and the post-heal re-convergence under the 25 µs bound.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "net/swarm.h"
#include "obs/export.h"
#include "trace/analyzer.h"

namespace sstsp::trace {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary);
  ASSERT_TRUE(os.is_open()) << path;
  os << content;
}

std::string event_line(double t_s, int node, const std::string& kind,
                       std::uint64_t trace_id) {
  std::ostringstream ss;
  ss << R"({"type":"event","t_s":)" << t_s << R"(,"node":)" << node
     << R"(,"kind":")" << kind << R"(")";
  if (trace_id != 0) ss << R"(,"trace_id":)" << trace_id;
  ss << "}";
  return ss.str();
}

std::string cluster_sample_line(double t_s, double max_offset_us) {
  std::ostringstream ss;
  ss << R"({"type":"telemetry","v":1,"t_s":)" << t_s
     << R"(,"source":"sim","node":null,"nodes_total":5,"nodes_awake":5,)"
     << R"("nodes_synced":5,"reference":0,"max_offset_us":)" << max_offset_us
     << R"(,"mean_offset_us":1.0,"beacons_tx":10,"beacons_rx":40,)"
     << R"("adjustments":40,"coarse_steps":0,"rejects":0,"elections":0,)"
     << R"("events":100,"queue_depth":5,"audit_records":0,)"
     << R"("recovery_pending":false,"rss_kb":null,"wall_s":null})";
  return ss.str();
}

TEST(TraceAnalyzer, TornLinesAreCountedAndSkippedNeverFatal) {
  const std::string path = temp_path("torn.jsonl");
  std::ostringstream content;
  content << event_line(1.0, 0, "beacon-tx", 1) << "\n"
          << event_line(1.01, 1, "beacon-rx", 1) << "\n"
          << R"({"type":"event","t_s":2.0,"node":0,"kind":"beac)"  // torn
          << "\n"
          << "not json at all\n"
          << cluster_sample_line(2.0, 3.0) << "\n";
  write_file(path, content.str());

  std::string error;
  const auto analysis = TraceAnalysis::load({path}, &error);
  ASSERT_TRUE(analysis.has_value()) << error;
  EXPECT_EQ(analysis->stats().torn, 2u);
  EXPECT_EQ(analysis->stats().events, 2u);
  EXPECT_EQ(analysis->stats().samples_cluster, 1u);
  std::remove(path.c_str());
}

TEST(TraceAnalyzer, MissingFileIsAnError) {
  std::string error;
  const auto analysis =
      TraceAnalysis::load({temp_path("definitely_missing.jsonl")}, &error);
  EXPECT_FALSE(analysis.has_value());
  EXPECT_FALSE(error.empty());
}

TEST(TraceAnalyzer, StitchesCrossNodeChainsByTraceId) {
  // Two beacons: trace 1 crosses from node 0 to nodes 1 and 2 (the first
  // remote adjustment, node 1's at +150 us, sets the chain latency);
  // trace 2 is tx-only (never delivered) and must not form a chain.
  const std::string path = temp_path("chains.jsonl");
  std::ostringstream content;
  content << event_line(1.0, 0, "beacon-tx", 1) << "\n"
          << event_line(1.00005, 1, "beacon-rx", 1) << "\n"
          << event_line(1.00005, 2, "beacon-rx", 1) << "\n"
          << event_line(1.0001, 1, "auth-ok", 1) << "\n"
          << event_line(1.00015, 1, "adjustment", 1) << "\n"
          << event_line(1.0002, 2, "adjustment", 1) << "\n"
          << event_line(2.0, 0, "beacon-tx", 2) << "\n";
  write_file(path, content.str());

  std::string error;
  const auto analysis = TraceAnalysis::load({path}, &error);
  ASSERT_TRUE(analysis.has_value()) << error;
  const FunnelReport funnel = analysis->funnel();
  EXPECT_EQ(funnel.beacons_tx, 2u);
  EXPECT_EQ(funnel.beacons_rx, 2u);
  EXPECT_EQ(funnel.auth_ok, 1u);
  EXPECT_EQ(funnel.adjustments, 2u);
  EXPECT_EQ(funnel.chains, 2u);
  EXPECT_EQ(funnel.cross_node_chains, 1u);
  EXPECT_NEAR(funnel.median_tx_to_adjust_us, 150.0, 1.0);
  std::remove(path.c_str());
}

TEST(TraceAnalyzer, DetectsFirstSyncSpikeAndReconvergence) {
  const std::string path = temp_path("spike.jsonl");
  std::ostringstream content;
  content << cluster_sample_line(1.0, 400.0) << "\n"   // converging
          << cluster_sample_line(2.0, 10.0) << "\n"    // first sync
          << cluster_sample_line(3.0, 5.0) << "\n"
          << cluster_sample_line(4.0, 180.0) << "\n"   // spike start
          << cluster_sample_line(5.0, 220.0) << "\n"   // spike peak
          << cluster_sample_line(6.0, 8.0) << "\n"     // re-converged
          << cluster_sample_line(7.0, 4.0) << "\n";
  write_file(path, content.str());

  std::string error;
  const auto analysis = TraceAnalysis::load({path}, &error);
  ASSERT_TRUE(analysis.has_value()) << error;
  const ConvergenceReport report = analysis->convergence();
  ASSERT_TRUE(report.first_sync_s.has_value());
  EXPECT_DOUBLE_EQ(*report.first_sync_s, 2.0);
  ASSERT_EQ(report.spikes.size(), 1u);
  const ErrorSpike& spike = report.spikes.front();
  EXPECT_DOUBLE_EQ(spike.start_s, 4.0);
  EXPECT_DOUBLE_EQ(spike.peak_us, 220.0);
  EXPECT_DOUBLE_EQ(spike.peak_t_s, 5.0);
  EXPECT_TRUE(spike.recovered);
  EXPECT_DOUBLE_EQ(spike.recovered_s, 6.0);
  ASSERT_TRUE(report.final_max_offset_us.has_value());
  EXPECT_DOUBLE_EQ(*report.final_max_offset_us, 4.0);
  std::remove(path.c_str());
}

TEST(TraceAnalyzer, ExtractsFaultMarksAndWindowsRecoveryCurves) {
  const std::string path = temp_path("marks.jsonl");
  std::ostringstream content;
  for (int t = 1; t <= 12; ++t) {
    content << cluster_sample_line(t, t == 6 ? 300.0 : 5.0) << "\n";
  }
  content << R"({"type":"summary","recovery":{"records":[)"
          << R"({"fault":"partition-heal","node":3,"t_s":5.5,)"
          << R"("resync_s":1.2,"recovered":true}]}})"
          << "\n";
  write_file(path, content.str());

  std::string error;
  const auto analysis = TraceAnalysis::load({path}, &error);
  ASSERT_TRUE(analysis.has_value()) << error;
  ASSERT_EQ(analysis->fault_marks().size(), 1u);
  const FaultMark& mark = analysis->fault_marks().front();
  EXPECT_EQ(mark.fault, "partition-heal");
  EXPECT_EQ(mark.node, 3);
  EXPECT_DOUBLE_EQ(mark.t_s, 5.5);
  EXPECT_TRUE(mark.recovered);

  const auto curves = analysis->recovery_curves(analysis->fault_marks(),
                                                /*pre_s=*/2.0, /*post_s=*/4.0);
  ASSERT_EQ(curves.size(), 1u);
  // Window [3.5, 9.5] holds samples at t=4..9 — includes the 300 us spike.
  ASSERT_FALSE(curves.front().curve.empty());
  EXPECT_GE(curves.front().curve.front().t_s, 3.5);
  EXPECT_LE(curves.front().curve.back().t_s, 9.5);
  double peak = 0.0;
  for (const auto& p : curves.front().curve) peak = std::max(peak, p.err_us);
  EXPECT_DOUBLE_EQ(peak, 300.0);
  std::remove(path.c_str());
}

TEST(TraceAnalyzer, WritersProduceMergedStreamAndTimelineCsv) {
  const std::string in_a = temp_path("merge_a.jsonl");
  const std::string in_b = temp_path("merge_b.jsonl");
  // Deliberately out of order across the two inputs.
  write_file(in_a, event_line(3.0, 0, "beacon-tx", 7) + "\n");
  write_file(in_b, cluster_sample_line(1.0, 50.0) + "\n" +
                       cluster_sample_line(2.0, 9.0) + "\n");

  std::string error;
  const auto analysis = TraceAnalysis::load({in_a, in_b}, &error);
  ASSERT_TRUE(analysis.has_value()) << error;

  const std::string merged = temp_path("merged.jsonl");
  ASSERT_TRUE(analysis->write_merged_jsonl(merged, &error)) << error;
  std::ifstream ms(merged);
  std::string l1, l2, l3;
  ASSERT_TRUE(std::getline(ms, l1) && std::getline(ms, l2) &&
              std::getline(ms, l3));
  EXPECT_NE(l1.find("\"t_s\":1"), std::string::npos);
  EXPECT_NE(l2.find("\"t_s\":2"), std::string::npos);
  EXPECT_NE(l3.find("\"t_s\":3"), std::string::npos);

  const std::string csv = temp_path("timeline.csv");
  ASSERT_TRUE(analysis->write_timeline_csv(csv, &error)) << error;
  std::ifstream cs(csv);
  std::string header;
  ASSERT_TRUE(std::getline(cs, header));
  EXPECT_EQ(header, "t_s,node,err_us,synced");

  std::remove(in_a.c_str());
  std::remove(in_b.c_str());
  std::remove(merged.c_str());
  std::remove(csv.c_str());
}

// The acceptance scenario: a 5-node live swarm over loopback, nodes 3+4 cut
// off for 10 s mid-run.  The merged telemetry + event streams must show the
// cluster re-join — an error spike above the 25 µs bound that re-converges
// after the heal — and the funnel must stitch cross-node chains.
TEST(TraceAnalyzer, PartitionedSwarmShowsSpikeAndReconvergence) {
  const std::string tele_path = temp_path("part_tele.jsonl");
  const std::string events_path = temp_path("part_events.jsonl");

  net::SwarmConfig config;
  config.transport = net::TransportKind::kLoopback;
  config.num_nodes = 5;
  config.duration_s = 40.0;
  config.seed = 7;
  config.monitor = true;
  config.trace_capacity = 1 << 14;
  config.telemetry_out = tele_path;
  config.telemetry_interval_s = 1.0;
  config.telemetry_per_node = 1;
  fault::Partition cut;
  cut.start_s = 15.0;
  cut.end_s = 25.0;
  cut.group_a = {3, 4};
  config.faults.partitions.push_back(cut);

  std::string error;
  auto swarm = net::Swarm::create(config, &error);
  ASSERT_NE(swarm, nullptr) << error;
  {
    std::ofstream events(events_path);
    ASSERT_TRUE(events.is_open());
    obs::attach_jsonl_sink(*swarm->observers().trace(), events);
    swarm->run();
  }
  // The partition is a *planned* fault: no node may be flagged as failed.
  const run::RunResult result = swarm->collect();
  EXPECT_TRUE(swarm->failed_nodes().empty());

  const auto analysis = TraceAnalysis::load({tele_path, events_path}, &error);
  ASSERT_TRUE(analysis.has_value()) << error;
  EXPECT_EQ(analysis->stats().torn, 0u);
  EXPECT_GT(analysis->stats().events, 0u);
  EXPECT_GT(analysis->stats().samples_cluster, 0u);
  EXPECT_GT(analysis->stats().samples_node, 0u);

  const FunnelReport funnel = analysis->funnel();
  EXPECT_GT(funnel.beacons_tx, 0u);
  EXPECT_GT(funnel.cross_node_chains, 0u);
  EXPECT_TRUE(std::isfinite(funnel.median_tx_to_adjust_us));

  const ConvergenceReport report = analysis->convergence();
  ASSERT_TRUE(report.first_sync_s.has_value());
  EXPECT_LT(*report.first_sync_s, 15.0);  // synced before the cut

  // The heal pulls the partitioned group back: at least one excursion above
  // the 25 µs bound that re-converges before the run ends.
  bool recovered_spike = false;
  for (const ErrorSpike& spike : report.spikes) {
    if (spike.recovered) recovered_spike = true;
  }
  EXPECT_TRUE(recovered_spike)
      << report.spikes.size() << " spike(s), none re-converged";
  ASSERT_TRUE(report.final_max_offset_us.has_value());
  EXPECT_LT(*report.final_max_offset_us, 25.0);

  // The run summary's recovery tracker saw the heal too.
  ASSERT_TRUE(result.recovery.has_value());
  (void)result;

  std::remove(tele_path.c_str());
  std::remove(events_path.c_str());
}

}  // namespace
}  // namespace sstsp::trace

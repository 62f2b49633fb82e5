// Streaming telemetry (DESIGN.md §10): sampler cadence and counter-delta
// logic, JSONL schema round-trip, line-atomic sink behavior, concurrent
// counter snapshots (run this binary under TSan), and the determinism
// contract — enabling telemetry must not perturb a seeded simulation by a
// single bit, and repeated telemetry runs must produce byte-identical
// streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "runner/experiment.h"
#include "runner/network.h"
#include "runner/scenario.h"
#include "runner/sweep.h"

namespace sstsp::obs {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.is_open()) << path;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

TEST(TelemetrySampler, FirstSampleDueAfterOneFullInterval) {
  std::vector<TelemetrySample> out;
  TelemetrySampler sampler({/*interval_s=*/2.0, "sim", false},
                           [&](const TelemetrySample& s) { out.push_back(s); });
  EXPECT_FALSE(sampler.due(0.0));
  EXPECT_FALSE(sampler.due(1.999));
  EXPECT_TRUE(sampler.due(2.0));
}

TEST(TelemetrySampler, EmitsPerIntervalDeltasNotCumulativeTotals) {
  std::vector<TelemetrySample> out;
  TelemetrySampler sampler({1.0, "sim", false},
                           [&](const TelemetrySample& s) { out.push_back(s); });

  TelemetryCumulative totals;
  totals.beacons_tx = 10;
  totals.beacons_rx = 40;
  totals.adjustments = 38;
  totals.events = 1000;
  sampler.emit(1.0, TelemetrySample{}, totals);

  totals.beacons_tx = 25;  // +15 over the second interval
  totals.beacons_rx = 100;
  totals.adjustments = 95;
  totals.rejects = 3;
  totals.events = 2500;
  sampler.emit(2.0, TelemetrySample{}, totals);

  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].beacons_tx, 10u);  // first delta is against zero
  EXPECT_EQ(out[0].events, 1000u);
  EXPECT_EQ(out[1].beacons_tx, 15u);
  EXPECT_EQ(out[1].beacons_rx, 60u);
  EXPECT_EQ(out[1].adjustments, 57u);
  EXPECT_EQ(out[1].rejects, 3u);
  EXPECT_EQ(out[1].events, 1500u);
  EXPECT_EQ(sampler.emitted(), 2u);

  // The next due time advanced past both emissions.
  EXPECT_FALSE(sampler.due(2.5));
  EXPECT_TRUE(sampler.due(3.0));

  // Sim samples never carry process stats.
  EXPECT_EQ(out[1].rss_kb, -1);
  EXPECT_TRUE(std::isnan(out[1].wall_s));
}

TEST(TelemetrySample, JsonlRoundTripPreservesEveryField) {
  TelemetrySample s;
  s.t_s = 12.5;
  s.source = "swarm";
  s.node = -1;
  s.nodes_total = 5;
  s.nodes_awake = 4;
  s.nodes_synced = 3;
  s.reference = 2;
  s.max_offset_us = 7.25;
  s.mean_offset_us = 1.5;
  s.beacons_tx = 10;
  s.beacons_rx = 40;
  s.adjustments = 39;
  s.coarse_steps = 1;
  s.rejects = 2;
  s.elections = 1;
  s.events = 1234;
  s.queue_depth = 17;
  s.audit_records = 3;
  s.recovery_pending = true;
  s.rss_kb = 2048;
  s.wall_s = 0.75;
  s.node_errors.push_back({0, -3.5, true});
  s.node_errors.push_back({4, 2.0, false});

  const std::string line = telemetry_to_jsonl(s);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto value = json::parse(line);
  ASSERT_TRUE(value.has_value());
  const auto back = telemetry_from_json(*value);
  ASSERT_TRUE(back.has_value());

  EXPECT_DOUBLE_EQ(back->t_s, s.t_s);
  EXPECT_EQ(back->source, s.source);
  EXPECT_EQ(back->node, s.node);
  EXPECT_EQ(back->nodes_total, s.nodes_total);
  EXPECT_EQ(back->nodes_awake, s.nodes_awake);
  EXPECT_EQ(back->nodes_synced, s.nodes_synced);
  EXPECT_EQ(back->reference, s.reference);
  EXPECT_DOUBLE_EQ(back->max_offset_us, s.max_offset_us);
  EXPECT_DOUBLE_EQ(back->mean_offset_us, s.mean_offset_us);
  EXPECT_EQ(back->beacons_tx, s.beacons_tx);
  EXPECT_EQ(back->beacons_rx, s.beacons_rx);
  EXPECT_EQ(back->adjustments, s.adjustments);
  EXPECT_EQ(back->coarse_steps, s.coarse_steps);
  EXPECT_EQ(back->rejects, s.rejects);
  EXPECT_EQ(back->elections, s.elections);
  EXPECT_EQ(back->events, s.events);
  EXPECT_EQ(back->queue_depth, s.queue_depth);
  EXPECT_EQ(back->audit_records, s.audit_records);
  EXPECT_EQ(back->recovery_pending, s.recovery_pending);
  EXPECT_EQ(back->rss_kb, s.rss_kb);
  EXPECT_DOUBLE_EQ(back->wall_s, s.wall_s);
  ASSERT_EQ(back->node_errors.size(), 2u);
  EXPECT_EQ(back->node_errors[0].node, 0);
  EXPECT_DOUBLE_EQ(back->node_errors[0].err_us, -3.5);
  EXPECT_TRUE(back->node_errors[0].synced);
  EXPECT_EQ(back->node_errors[1].node, 4);
  EXPECT_FALSE(back->node_errors[1].synced);
}

TEST(TelemetrySample, NotApplicableFieldsSerializeAsNull) {
  TelemetrySample s;  // defaults: node=-1, reference=-1, NaN offsets, no rss
  const std::string line = telemetry_to_jsonl(s);
  EXPECT_NE(line.find("\"node\":null"), std::string::npos);
  EXPECT_NE(line.find("\"reference\":null"), std::string::npos);
  EXPECT_NE(line.find("\"max_offset_us\":null"), std::string::npos);
  EXPECT_NE(line.find("\"rss_kb\":null"), std::string::npos);
  EXPECT_EQ(line.find("nan"), std::string::npos);

  const auto back = telemetry_from_json(*json::parse(line));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->node, -1);
  EXPECT_EQ(back->reference, -1);
  EXPECT_TRUE(std::isnan(back->max_offset_us));
  EXPECT_EQ(back->rss_kb, -1);
}

TEST(TelemetrySample, UnknownSchemaVersionOrTypeIsRejected) {
  const auto wrong_type = json::parse(R"({"type":"event","v":1})");
  ASSERT_TRUE(wrong_type.has_value());
  EXPECT_FALSE(telemetry_from_json(*wrong_type).has_value());

  const auto future = json::parse(R"({"type":"telemetry","v":999,"t_s":1})");
  ASSERT_TRUE(future.has_value());
  EXPECT_FALSE(telemetry_from_json(*future).has_value());
}

TEST(JsonlSink, EveryWriteLandsAsOneCompleteLine) {
  const std::string path = temp_path("sink_lines.jsonl");
  {
    JsonlSink sink;
    std::string error;
    ASSERT_TRUE(sink.open(path, &error)) << error;
    sink.write_line(R"({"a":1})");
    // Flushed at line granularity: the file already holds the whole line
    // (trailing newline included) while the sink is still open.
    EXPECT_EQ(read_file(path), "{\"a\":1}\n");
    sink.write_line(R"({"b":2})");
    EXPECT_EQ(sink.lines_written(), 2u);
    EXPECT_TRUE(sink.ok());
  }
  EXPECT_EQ(read_file(path), "{\"a\":1}\n{\"b\":2}\n");
  std::remove(path.c_str());
}

TEST(MetricsCounters, SnapshotWhileAnotherThreadIncrements) {
  // Counters are relaxed atomics precisely so live telemetry can snapshot
  // the registry mid-run; under TSan this test proves the claim.
  Registry registry;
  Counter& hits = registry.counter("test.hits");
  constexpr std::uint64_t kIncrements = 200000;

  std::atomic<bool> go{false};
  std::thread writer([&] {
    while (!go.load(std::memory_order_acquire)) {
    }
    for (std::uint64_t i = 0; i < kIncrements; ++i) hits.inc();
  });

  go.store(true, std::memory_order_release);
  std::uint64_t last_seen = 0;
  for (int i = 0; i < 200; ++i) {
    const RegistrySnapshot snap = registry.snapshot();
    for (const auto& [name, value] : snap.counters) {
      if (name == "test.hits") {
        EXPECT_GE(value, last_seen);  // monotone across snapshots
        last_seen = value;
      }
    }
  }
  writer.join();

  const RegistrySnapshot final_snap = registry.snapshot();
  for (const auto& [name, value] : final_snap.counters) {
    if (name == "test.hits") {
      EXPECT_EQ(value, kIncrements);
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism contract (ISSUE 6 acceptance): telemetry must be a pure
// observer of the simulation.

run::Scenario telemetry_scenario(const std::string& telemetry_path) {
  run::Scenario s;
  s.protocol = run::ProtocolKind::kSstsp;
  s.num_nodes = 15;
  s.duration_s = 6.0;
  s.seed = 11;
  s.telemetry_out = telemetry_path;
  s.telemetry_interval_s = 0.5;
  s.telemetry_per_node = 1;
  return s;
}

TEST(TelemetryDeterminism, SeededTelemetryStreamsAreByteIdentical) {
  const std::string path_a = temp_path("tele_det_a.jsonl");
  const std::string path_b = temp_path("tele_det_b.jsonl");
  (void)run::run_scenario(telemetry_scenario(path_a));
  (void)run::run_scenario(telemetry_scenario(path_b));

  const std::string a = read_file(path_a);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, read_file(path_b));
  // ~12 samples (6 s / 0.5 s); the first interval has no sample at t=0.
  EXPECT_GE(std::count(a.begin(), a.end(), '\n'), 10);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(TelemetryDeterminism, EnablingTelemetryDoesNotPerturbTheRun) {
  run::Scenario off = telemetry_scenario("");
  off.telemetry_out.clear();
  const run::RunResult base = run::run_scenario(off);

  const std::string path = temp_path("tele_det_on.jsonl");
  const run::RunResult with = run::run_scenario(telemetry_scenario(path));
  std::remove(path.c_str());

  // Bit-identical event count and protocol counters: telemetry piggybacks
  // on the existing sampling tick and schedules NO events of its own.
  EXPECT_EQ(base.events_processed, with.events_processed);
  EXPECT_EQ(base.sync_latency_s, with.sync_latency_s);
  EXPECT_EQ(base.steady_max_us, with.steady_max_us);
  EXPECT_EQ(base.honest.beacons_sent, with.honest.beacons_sent);
  EXPECT_EQ(base.honest.beacons_received, with.honest.beacons_received);
  EXPECT_EQ(base.honest.adjustments, with.honest.adjustments);
  EXPECT_EQ(base.honest.elections_won, with.honest.elections_won);
  EXPECT_EQ(base.channel.transmissions, with.channel.transmissions);
  EXPECT_EQ(base.channel.bytes_on_air, with.channel.bytes_on_air);
}

TEST(TelemetryDeterminism, SweepThreadCountDoesNotChangeTelemetry) {
  std::vector<run::Scenario> serial_scenarios;
  std::vector<run::Scenario> parallel_scenarios;
  std::vector<std::string> serial_paths, parallel_paths;
  for (int i = 0; i < 3; ++i) {
    serial_paths.push_back(temp_path("sweep_s" + std::to_string(i)));
    parallel_paths.push_back(temp_path("sweep_p" + std::to_string(i)));
    run::Scenario s = telemetry_scenario(serial_paths.back());
    s.seed = 20 + static_cast<std::uint64_t>(i);
    serial_scenarios.push_back(s);
    s.telemetry_out = parallel_paths.back();
    parallel_scenarios.push_back(s);
  }

  (void)run::run_sweep(serial_scenarios, 1);
  (void)run::run_sweep(parallel_scenarios, 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(read_file(serial_paths[i]), read_file(parallel_paths[i]))
        << "sweep point " << i;
    std::remove(serial_paths[i].c_str());
    std::remove(parallel_paths[i].c_str());
  }
}

TEST(TelemetryNetwork, ClusterSamplesCarryTheExpectedSchema) {
  const std::string path = temp_path("tele_schema.jsonl");
  run::Scenario s = telemetry_scenario(path);
  run::Network net(s);
  net.run();
  ASSERT_NE(net.observers().telemetry_sampler(), nullptr);
  EXPECT_GT(net.observers().telemetry_sampler()->emitted(), 0u);
  const run::RunResult result = run::collect_result(net, 0.0);
  EXPECT_GT(result.honest.beacons_sent, 0u);

  std::ifstream is(path);
  std::string line;
  std::size_t lines = 0;
  std::uint64_t beacons_tx_total = 0;
  while (std::getline(is, line)) {
    const auto value = json::parse(line);
    ASSERT_TRUE(value.has_value()) << line;
    const auto sample = telemetry_from_json(*value);
    ASSERT_TRUE(sample.has_value()) << line;
    EXPECT_EQ(sample->source, "sim");
    EXPECT_EQ(sample->node, -1);  // cluster-wide samples
    EXPECT_EQ(sample->nodes_total, 15);
    EXPECT_EQ(sample->node_errors.size(), 15u);  // per-node opted in
    beacons_tx_total += sample->beacons_tx;
    ++lines;
  }
  EXPECT_GT(lines, 0u);
  // Interval deltas must sum back to (approximately) the cumulative total;
  // the tail beyond the last sample instant is the only unsampled part.
  EXPECT_LE(beacons_tx_total, result.honest.beacons_sent);
  EXPECT_GE(beacons_tx_total + 2, result.honest.beacons_sent);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sstsp::obs

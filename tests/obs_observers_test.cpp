// The observer bundle (obs/observers.h): one construction path for every
// host, the null-bundle fast path, the station fan-out order and the
// shared stats fold.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "net/swarm.h"
#include "obs/json.h"
#include "obs/observers.h"
#include "runner/network.h"

namespace sstsp::obs {
namespace {

using Windows = std::vector<std::pair<sim::SimTime, sim::SimTime>>;

sim::SimTime at(double t_s) { return sim::SimTime::from_sec_double(t_s); }

// A partition that heals, a crash that restarts, a reference pause that
// never does, and a clock step.
fault::FaultPlan mixed_plan() {
  std::string error;
  const auto plan = fault::parse_plan_text(R"({
    "partitions": [{"start": 4, "end": 6, "group_a": [1, 2]}],
    "node_faults": [{"kind": "crash", "node": 3, "at": 2, "restart": 3},
                    {"kind": "pause", "node": "reference", "at": 7}],
    "clock_faults": [{"node": 4, "at": 5, "step_us": 30}]
  })",
                                           &error);
  EXPECT_TRUE(plan.has_value()) << error;
  return plan.value_or(fault::FaultPlan{});
}

const Windows kExpectedWindows{
    {at(4), at(6)}, {at(2), at(3)}, {at(7), at(7)}, {at(5), at(5)}};

ObserverConfig monitored() {
  ObserverConfig cfg;
  cfg.monitor = true;
  return cfg;
}

TEST(Observers, DisturbanceWindowsAreTheSameForEveryHost) {
  const fault::FaultPlan plan = mixed_plan();
  const sim::Simulator sim(1);

  // The setups of run::Network, net::Swarm (UDP) and sstsp_node.
  ObservedRun sim_run;
  sim_run.faults = plan;
  ObservedRun swarm_run = sim_run;
  swarm_run.telemetry_source = "swarm";
  swarm_run.diverge_threshold_us = net::kUdpDivergeThresholdUs;
  ObservedRun node_run = sim_run;
  node_run.track_recovery = false;
  node_run.telemetry_source.clear();
  for (const ObservedRun* run : {&sim_run, &swarm_run, &node_run}) {
    const Observers observers(monitored(), *run, sim);
    ASSERT_NE(observers.monitor(), nullptr);
    EXPECT_EQ(observers.monitor()->disturbances(), kExpectedWindows);
  }

  // And through the hosts themselves.
  run::Scenario scenario;
  scenario.num_nodes = 5;
  scenario.monitor = true;
  scenario.faults = plan;
  run::Network network(scenario);
  EXPECT_EQ(network.observers().monitor()->disturbances(), kExpectedWindows);

  net::SwarmConfig config;
  config.transport = net::TransportKind::kLoopback;
  config.monitor = true;
  config.faults = plan;
  std::string error;
  const auto swarm = net::Swarm::create(config, &error);
  ASSERT_NE(swarm, nullptr) << error;
  EXPECT_EQ(swarm->observers().monitor()->disturbances(), kExpectedWindows);
}

TEST(Observers, StationsGetNoBundleWhenNothingRecordsTheirEvents) {
  const sim::Simulator sim(1);
  ObserverConfig quiet;
  quiet.collect_metrics = false;
  quiet.phase_sampler = true;  // simulator-side only
  EXPECT_EQ(Observers(quiet, {}, sim).for_stations(), nullptr);

  ObserverConfig traced = quiet;
  traced.trace_capacity = 16;
  const Observers observers(traced, {}, sim);
  EXPECT_EQ(observers.for_stations(), &observers);
}

TEST(Observers, MonitorTriggeredDumpPrecedesTheTriggeringEvent) {
  const std::string path = testing::TempDir() + "/observers_order.jsonl";
  const sim::Simulator sim(1);
  ObserverConfig cfg = monitored();
  cfg.flight_recorder_out = path;
  {
    const Observers observers(cfg, {}, sim);
    trace::TraceEvent event;
    event.time = at(1.0);
    event.node = 2;
    event.kind = trace::EventKind::kBeaconTx;
    observers.on_event(event);
    // A guard rejection is an audit record on first sight: the monitor
    // fires the flight dump from inside the fan-out.
    event.time = at(1.1);
    event.kind = trace::EventKind::kRejectGuard;
    observers.on_event(event);
    EXPECT_EQ(observers.flight()->dumps_written(), 1u);
    EXPECT_EQ(observers.flight()->events_recorded(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> kinds;
  while (std::getline(in, line)) {
    const auto value = json::parse(line);
    ASSERT_TRUE(value.has_value()) << line;
    const json::Value* type = value->find("type");
    ASSERT_NE(type, nullptr);
    if (type->string == "flight_dump") {
      EXPECT_EQ(value->find("events_retained")->number, 1.0);
    } else if (type->string == "event") {
      kinds.push_back(value->find("kind")->string);
    }
  }
  EXPECT_EQ(kinds, std::vector<std::string>{"beacon-tx"});
  std::remove(path.c_str());
}

TEST(Observers, TelemetryTotalsFoldFromProtocolStats) {
  proto::ProtocolStats a;
  a.beacons_sent = 3;
  a.beacons_received = 10;
  a.adjustments = 4;
  a.adoptions = 1;
  a.rejected_guard = 2;
  a.rejected_key = 1;
  a.elections_won = 1;
  a.discipline_verdicts[2] = 5;
  proto::ProtocolStats sum = a;
  sum += a;
  EXPECT_EQ(sum.beacons_received, 20u);
  EXPECT_EQ(sum.discipline_verdicts[2], 10u);

  const TelemetryCumulative cum = telemetry_cumulative(sum, 99);
  EXPECT_EQ(cum.beacons_tx, 6u);
  EXPECT_EQ(cum.beacons_rx, 20u);
  EXPECT_EQ(cum.adjustments, 10u);  // adjustments + adoptions
  EXPECT_EQ(cum.rejects, 6u);
  EXPECT_EQ(cum.elections, 2u);
  EXPECT_EQ(cum.events, 99u);
}

TEST(Observers, StationCountersFoldPast32BitsLosslessly) {
  // Stations count in 32 bits; their sum, which telemetry and run results
  // read, must not wrap where it passes 2^32.
  static_assert(sizeof(proto::StationStats{}.beacons_received) == 4);
  static_assert(sizeof(proto::ProtocolStats{}.beacons_received) == 8);
  proto::StationStats station;
  station.beacons_received = 0xFFFF'FFF0u;
  station.adjustments = 3'000'000'000u;
  station.discipline_verdicts[7] = 0xFFFF'FFFFu;
  proto::ProtocolStats sum;
  for (int i = 0; i < 5; ++i) sum += station;
  EXPECT_EQ(sum.beacons_received, 5 * std::uint64_t{0xFFFF'FFF0u});
  EXPECT_EQ(sum.adjustments, 15'000'000'000u);
  EXPECT_EQ(sum.discipline_verdicts[7], 5 * std::uint64_t{0xFFFF'FFFFu});
  // Widening one station's counters copies them.
  const proto::ProtocolStats one = station;
  EXPECT_EQ(one.beacons_received, 0xFFFF'FFF0u);
  EXPECT_EQ(one.discipline_verdicts[7], 0xFFFF'FFFFu);

  const TelemetryCumulative cum = telemetry_cumulative(sum, 0);
  EXPECT_EQ(cum.beacons_rx, 5 * std::uint64_t{0xFFFF'FFF0u});
  EXPECT_EQ(cum.adjustments, 15'000'000'000u);
}

}  // namespace
}  // namespace sstsp::obs

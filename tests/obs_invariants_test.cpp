// Invariant monitor (src/obs/invariants.h): hook-level unit tests plus
// end-to-end audit behaviour — honest runs stay clean, the §5 attacks leave
// structured audit records.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "attack/replay.h"
#include "obs/invariants.h"
#include "obs/json.h"
#include "runner/experiment.h"
#include "runner/network.h"
#include "support/hand_net.h"

namespace sstsp::obs {
namespace {

sim::SimTime at_s(double s) { return sim::SimTime::from_sec_double(s); }

// The monitor checks, as a station reports them (obs/station_event.h).
void report(InvariantMonitor& mon, mac::NodeId node, sim::SimTime now,
            const MonitorCheck& check, mac::NodeId peer = mac::kNoNode) {
  mon.on_event(StationEvent({.time = now, .node = node, .peer = peer}, check));
}
void on_clock_adjustment(InvariantMonitor& mon, mac::NodeId node,
                         sim::SimTime now, double before_us, double after_us,
                         double new_k, bool coarse) {
  report(mon, node, now, ClockAdjusted{before_us, after_us, new_k, coarse});
}
void on_beacon_tx(InvariantMonitor& mon, mac::NodeId node, std::int64_t j,
                  double ts_us, double clock_us, bool as_reference,
                  sim::SimTime now) {
  report(mon, node, now, BeaconStamped{j, ts_us, clock_us, as_reference});
}
void on_key_accepted(InvariantMonitor& mon, mac::NodeId node,
                     mac::NodeId sender, std::int64_t key_index,
                     double local_us, sim::SimTime now) {
  report(mon, node, now, KeyAccepted{key_index, local_us}, sender);
}
void on_role_change(InvariantMonitor& mon, mac::NodeId node,
                    bool is_reference, bool via_election, sim::SimTime now) {
  report(mon, node, now, RoleChanged{is_reference, via_election});
}

bool has_kind(const AuditReport& report, InvariantKind kind) {
  for (const auto& r : report.records) {
    if (r.kind == kind) return true;
  }
  return false;
}

const AuditRecord* find_kind(const AuditReport& report, InvariantKind kind) {
  for (const auto& r : report.records) {
    if (r.kind == kind) return &r;
  }
  return nullptr;
}

TEST(InvariantMonitor, FinePhaseLeapIsCritical) {
  InvariantMonitor mon{InvariantConfig{}};
  // A misbehaving clock: the re-solve leaps the adjusted value by 40 us at
  // the switch instant — eq. (2) requires continuity.
  on_clock_adjustment(mon, /*node=*/3, at_s(10.0), /*before_us=*/1e7,
                          /*after_us=*/1e7 + 40.0, /*new_k=*/1.0,
                          /*coarse=*/false);
  const auto report = mon.report();
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_EQ(report.records[0].kind, InvariantKind::kClockContinuity);
  EXPECT_EQ(report.records[0].severity, Severity::kCritical);
  EXPECT_EQ(report.records[0].node, 3u);
  EXPECT_NEAR(report.records[0].worst_value_us, 40.0, 1e-9);
  EXPECT_EQ(report.critical_count(), 1u);
}

TEST(InvariantMonitor, CoarseStepsMayLeap) {
  InvariantMonitor mon{InvariantConfig{}};
  on_clock_adjustment(mon, 1, at_s(1.0), 0.0, 112.0, 1.0, /*coarse=*/true);
  EXPECT_TRUE(mon.report().clean());
}

TEST(InvariantMonitor, SlopeEscapeIsCritical) {
  InvariantMonitor mon{InvariantConfig{}};
  on_clock_adjustment(mon, 2, at_s(5.0), 100.0, 100.0, /*new_k=*/1.2,
                          /*coarse=*/false);
  const auto report = mon.report();
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_EQ(report.records[0].kind, InvariantKind::kClockContinuity);
  EXPECT_EQ(report.records[0].severity, Severity::kCritical);
}

TEST(InvariantMonitor, ChainRegressionIsCritical) {
  InvariantConfig cfg;
  InvariantMonitor mon{cfg};
  const double in_window = cfg.t0_us + 6.0 * cfg.bp_us;  // key 5's window
  on_key_accepted(mon, /*node=*/1, /*sender=*/9, /*key_index=*/5, in_window,
                      at_s(0.6));
  EXPECT_TRUE(mon.report().clean());
  // Re-accepting an older (already-disclosed) index must be flagged.
  on_key_accepted(mon, 1, 9, /*key_index=*/4, in_window, at_s(0.7));
  const auto report = mon.report();
  const auto* rec = find_kind(report, InvariantKind::kChainRegression);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->severity, Severity::kCritical);
  EXPECT_EQ(rec->node, 1u);
  EXPECT_EQ(rec->peer, 9u);
}

TEST(InvariantMonitor, ChainRegressionIsTrackedPerOrderedPairOfWideIds) {
  InvariantConfig cfg;
  InvariantMonitor mon{cfg};
  // 200 ordered (receiver, sender) pairs of ids above 65 535: all share
  // their low 16 bits, and both (a, b) and (b, a) occur for a, b < 10.
  std::vector<std::pair<mac::NodeId, mac::NodeId>> pairs;
  for (mac::NodeId i = 0; i < 200; ++i) {
    pairs.emplace_back(65536u * (1 + i % 10) + 7, 65536u * (1 + i / 10) + 7);
  }
  auto accept = [&](mac::NodeId node, mac::NodeId sender, std::size_t key,
                    double t_s) {
    // Inside key `key`'s disclosure window, so only the chain check fires.
    const double local_us =
        cfg.t0_us + static_cast<double>(key + 1) * cfg.bp_us;
    on_key_accepted(mon, node, sender, static_cast<std::int64_t>(key),
                        local_us, at_s(t_s));
  };
  // Pair i sits at chain index 10 + i, so two pairs sharing one tip would
  // read as a regression of one of them.
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    accept(pairs[i].first, pairs[i].second, 10 + i, 1.0);
  }
  // Re-accepting the same index is legitimate µTESLA.
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    accept(pairs[i].first, pairs[i].second, 10 + i, 1.1);
  }
  EXPECT_TRUE(mon.report().clean());

  for (std::size_t i = 0; i < pairs.size(); ++i) {
    accept(pairs[i].first, pairs[i].second, 9 + i, 1.2);
  }
  const auto report = mon.report();
  std::set<std::pair<mac::NodeId, mac::NodeId>> flagged;
  for (const auto& r : report.records) {
    ASSERT_EQ(r.kind, InvariantKind::kChainRegression);
    EXPECT_EQ(r.count, 1u);
    EXPECT_TRUE(flagged.emplace(r.node, r.peer).second);
  }
  const std::set<std::pair<mac::NodeId, mac::NodeId>> all(pairs.begin(),
                                                          pairs.end());
  EXPECT_EQ(flagged, all);
  EXPECT_EQ(report.dropped_records, 0u);
  EXPECT_EQ(mon.total_violations(), 200u);
}

TEST(InvariantMonitor, KeyAcceptedOutsideDisclosureWindowIsCritical) {
  InvariantConfig cfg;
  InvariantMonitor mon{cfg};
  // Key 5 is disclosed in interval 6; accepting it while the local clock
  // already reads interval 9 means the µTESLA check is broken.
  const double late = cfg.t0_us + 9.0 * cfg.bp_us;
  on_key_accepted(mon, 2, 7, /*key_index=*/5, late, at_s(0.9));
  const auto report = mon.report();
  const auto* rec = find_kind(report, InvariantKind::kKeyDisclosure);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->severity, Severity::kCritical);
}

TEST(InvariantMonitor, TakeoverWithoutElectionIsFlagged) {
  InvariantMonitor mon{InvariantConfig{}};
  on_role_change(mon, 4, /*is_reference=*/true, /*via_election=*/true,
                     at_s(1.0));
  EXPECT_TRUE(mon.report().clean());
  on_role_change(mon, 5, /*is_reference=*/true, /*via_election=*/false,
                     at_s(2.0));
  const auto report = mon.report();
  const auto* rec = find_kind(report, InvariantKind::kReferenceTakeover);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->severity, Severity::kWarning);
  EXPECT_EQ(rec->node, 5u);
}

TEST(InvariantMonitor, TwoReferencesInOneIntervalAreFlagged) {
  InvariantConfig cfg;
  InvariantMonitor mon{cfg};
  const double t7 = cfg.t0_us + 7.0 * cfg.bp_us;
  on_beacon_tx(mon, 1, 7, t7, t7, /*as_reference=*/true, at_s(0.7));
  EXPECT_TRUE(mon.report().clean());
  on_beacon_tx(mon, 2, 7, t7, t7, /*as_reference=*/true, at_s(0.75));
  EXPECT_TRUE(
      has_kind(mon.report(), InvariantKind::kReferenceUniqueness));
}

TEST(InvariantMonitor, DraggedTimestampIsFlagged) {
  InvariantConfig cfg;
  InvariantMonitor mon{cfg};
  const double t3 = cfg.t0_us + 3.0 * cfg.bp_us;
  // The §5 internal attacker: stamps a virtual clock 20 us behind its own.
  on_beacon_tx(mon, 8, 3, t3 - 20.0, t3, /*as_reference=*/false, at_s(0.3));
  const auto report = mon.report();
  const auto* rec = find_kind(report, InvariantKind::kTimestampIntegrity);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->severity, Severity::kWarning);
  EXPECT_NEAR(rec->worst_value_us, -20.0, 1e-9);
}

TEST(InvariantMonitor, SstspChecksGateEverythingProtocolSpecific) {
  InvariantConfig cfg;
  cfg.sstsp_checks = false;  // a TSF run
  InvariantMonitor mon{cfg};
  on_clock_adjustment(mon, 1, at_s(1.0), 0.0, 500.0, 2.0, false);
  on_beacon_tx(mon, 1, 3, 0.0, 99999.0, true, at_s(0.3));
  on_key_accepted(mon, 1, 2, 5, 0.0, at_s(0.5));
  on_role_change(mon, 1, true, false, at_s(1.0));
  mon.on_max_diff_sample(at_s(60.0), 5000.0);
  EXPECT_TRUE(mon.report().clean());
}

TEST(InvariantMonitor, RecordsAggregateAndCap) {
  InvariantConfig cfg;
  cfg.max_records = 2;
  InvariantMonitor mon{cfg};
  for (int i = 0; i < 100; ++i) {
    on_clock_adjustment(mon, 1, at_s(i), 0.0, 40.0, 1.0, false);
  }
  on_role_change(mon, 2, true, false, at_s(1.0));
  on_role_change(mon, 3, true, false, at_s(1.0));  // 3rd class: dropped
  const auto report = mon.report();
  EXPECT_EQ(report.records.size(), 2u);
  EXPECT_EQ(report.dropped_records, 1u);
  EXPECT_FALSE(report.clean());
  const auto* rec = find_kind(report, InvariantKind::kClockContinuity);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->count, 100u);
  EXPECT_EQ(mon.total_violations(), 102u);
}

TEST(InvariantMonitor, AuditJsonRoundTrips) {
  InvariantMonitor mon{InvariantConfig{}};
  on_role_change(mon, 5, true, false, at_s(2.0));
  std::ostringstream os;
  json::Writer w(os);
  mon.report().append_json(w);
  const auto doc = json::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  const auto* records = doc->find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->array.size(), 1u);
  const auto& rec = records->array[0];
  EXPECT_EQ(rec.find("kind")->string, "reference-takeover");
  EXPECT_EQ(rec.find("severity")->string, "warning");
  EXPECT_EQ(rec.find("paper_ref")->string, "§3.3 contention election");
  EXPECT_DOUBLE_EQ(rec.find("node")->number, 5.0);
  EXPECT_TRUE(rec.find("peer")->is_null());
  EXPECT_DOUBLE_EQ(rec.find("count")->number, 1.0);
  EXPECT_DOUBLE_EQ(doc->find("critical")->number, 0.0);
  EXPECT_DOUBLE_EQ(doc->find("warnings")->number, 1.0);
}

TEST(InvariantMonitor, EveryKindHasNameAndPaperReference) {
  for (std::size_t i = 0; i < kInvariantKindCount; ++i) {
    const auto kind = static_cast<InvariantKind>(i);
    EXPECT_NE(to_string(kind), "?");
    EXPECT_NE(paper_reference(kind), "?");
  }
}

// ---- end-to-end: the scenario runner wires the monitor -------------------

TEST(InvariantMonitorIntegration, HonestSstspRunIsClean) {
  // Fig. 2's shape in miniature: churn-free honest run with a reference
  // departure mid-way.  The monitor must stay silent.
  run::Scenario s;
  s.protocol = run::ProtocolKind::kSstsp;
  s.num_nodes = 30;
  s.duration_s = 80.0;
  s.seed = 11;
  s.sstsp.chain_length = 1000;
  s.reference_departures_s = {40.0};
  s.monitor = true;
  const auto r = run::run_scenario(s);
  ASSERT_TRUE(r.audit.has_value());
  EXPECT_TRUE(r.audit->clean()) << "unexpected audit records; first: "
                                << (r.audit->records.empty()
                                        ? ""
                                        : r.audit->records[0].detail);
}

TEST(InvariantMonitorIntegration, HonestTsfRunIsClean) {
  run::Scenario s;
  s.protocol = run::ProtocolKind::kTsf;
  s.num_nodes = 30;
  s.duration_s = 60.0;
  s.seed = 11;
  s.monitor = true;
  const auto r = run::run_scenario(s);
  ASSERT_TRUE(r.audit.has_value());
  EXPECT_TRUE(r.audit->clean());
}

TEST(InvariantMonitorIntegration, UnmonitoredRunCarriesNoAudit) {
  run::Scenario s;
  s.protocol = run::ProtocolKind::kSstsp;
  s.num_nodes = 10;
  s.duration_s = 10.0;
  s.sstsp.chain_length = 300;
  const auto r = run::run_scenario(s);
  EXPECT_FALSE(r.audit.has_value());
}

TEST(InvariantMonitorIntegration, InternalAttackerLeavesAuditTrail) {
  run::Scenario s;
  s.protocol = run::ProtocolKind::kSstsp;
  s.num_nodes = 20;
  s.duration_s = 100.0;
  s.seed = 11;
  s.sstsp.chain_length = 1200;
  s.attack = "internal-ref";
  s.sstsp_attack.start_s = 40.0;
  s.sstsp_attack.end_s = 90.0;
  s.monitor = true;
  const auto r = run::run_scenario(s);
  ASSERT_TRUE(r.audit.has_value());

  // The smooth tow passes every receiver-side check (see attack_test.cpp's
  // SmoothTowIsTrackedWithoutAlarms) — detection comes from the role and
  // emission invariants instead, each pinned on the attacker.
  const mac::NodeId attacker = 20;  // the extra station
  const auto* takeover =
      find_kind(*r.audit, InvariantKind::kReferenceTakeover);
  ASSERT_NE(takeover, nullptr);
  EXPECT_EQ(takeover->node, attacker);
  const auto* stamp =
      find_kind(*r.audit, InvariantKind::kTimestampIntegrity);
  ASSERT_NE(stamp, nullptr);
  EXPECT_EQ(stamp->node, attacker);
  // And no *critical* records: the protocol itself held up.
  EXPECT_EQ(r.audit->critical_count(), 0u);
}

// Hand-wired net (attack_test.cpp's fixture) with a monitor attached, for
// the replay attacker the scenario runner does not wire.
struct MonitoredSstspNet : rig::HandNet {
  std::unique_ptr<Observers> observers;

  MonitoredSstspNet() : HandNet(77, rig::lossless_phy(), 1200) {
    ObserverConfig monitored;
    monitored.collect_metrics = false;
    monitored.monitor = true;
    ObservedRun run;
    run.sstsp = cfg;
    observers = std::make_unique<Observers>(monitored, run, sim);
    station_observers = observers->for_stations();
  }

  [[nodiscard]] AuditReport report() const {
    return observers->monitor()->report();
  }
};

TEST(InvariantMonitorIntegration, PulseDelayAttackProducesGuardRecords) {
  MonitoredSstspNet net;
  for (int i = 0; i < 6; ++i) net.add_honest(-50.0 + 20.0 * i, 5.0 * i);
  auto& relayer = net.add_station(0.0, 0.0);
  relayer.set_protocol(std::make_unique<attack::ReplayAttacker>(
      relayer, attack::ReplayParams{/*start_s=*/5.0, /*end_s=*/35.0,
                                    /*delay_bps=*/0,
                                    /*extra_delay_us=*/30000.0}));
  net.run(40.0);
  const auto report = net.report();
  const auto* rec = find_kind(report, InvariantKind::kGuardViolation);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->severity, Severity::kWarning);
  EXPECT_EQ(report.critical_count(), 0u);
}

TEST(InvariantMonitorIntegration, ReplayAttackProducesKeyDisclosureRecords) {
  MonitoredSstspNet net;
  for (int i = 0; i < 6; ++i) net.add_honest(-50.0 + 20.0 * i, 5.0 * i);
  auto& replayer = net.add_station(0.0, 0.0);
  replayer.set_protocol(std::make_unique<attack::ReplayAttacker>(
      replayer, attack::ReplayParams{/*start_s=*/5.0, /*end_s=*/35.0,
                                     /*delay_bps=*/3}));
  net.run(40.0);
  const auto report = net.report();
  const auto* rec = find_kind(report, InvariantKind::kKeyDisclosure);
  ASSERT_NE(rec, nullptr);
  // The protocol *rejected* the stale beacons — evidence, not breakage.
  EXPECT_EQ(rec->severity, Severity::kWarning);
  EXPECT_EQ(report.critical_count(), 0u);
}

}  // namespace
}  // namespace sstsp::obs

// Cluster formation: each broadcast-domain cluster elects exactly one
// reference with the unmodified l-BP contention, gateways stay passive in
// their home plane while their uplink halves attach to the parent, and the
// whole hierarchy is bit-identical under a fixed seed.  The last test puts
// two timelines in ONE cluster (duelling boot references): they must merge
// via RULE R without the duel leaking across a gateway boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cluster/sstsp_cluster.h"
#include "runner/experiment.h"
#include "runner/network.h"
#include "support/hand_net.h"

namespace sstsp::cluster {
namespace {

run::Scenario three_cluster_scenario() {
  run::Scenario s;
  s.cluster.clusters = 3;
  s.cluster.nodes_per_cluster = 8;
  s.num_nodes = s.cluster.total_nodes();
  s.duration_s = 15.0;
  s.seed = 5;
  s.phy.radio_range_m = 50.0;
  s.preestablished_reference = true;
  s.sstsp.chain_length = 400;
  return s;
}

// Cluster scenarios reject attackers and run ClusterSstsp on every station,
// so the downcast is total (same contract Network::sample_cluster relies
// on).
const ClusterSstsp& proto_of(run::Network& net, std::size_t i) {
  return static_cast<const ClusterSstsp&>(net.station(i).protocol());
}

TEST(ClusterFormation, OneReferencePerClusterAndPassiveGateways) {
  const run::Scenario s = three_cluster_scenario();
  run::Network net(s);
  net.run();

  std::vector<int> references(static_cast<std::size_t>(s.cluster.clusters), 0);
  for (std::size_t i = 0; i < net.station_count(); ++i) {
    const ClusterSstsp& cs = proto_of(net, i);
    ASSERT_EQ(cs.cluster(), cluster_of(s.cluster, static_cast<mac::NodeId>(i)))
        << i;
    if (cs.is_reference()) {
      ++references[static_cast<std::size_t>(cs.cluster())];
    }
    if (cs.gateway()) {
      // The member half never holds the home reference role: a gateway sits
      // where the two parents are mutually hidden terminals and must not
      // win elections off collision bursts.
      EXPECT_FALSE(cs.is_reference()) << i;
      // The uplink half is a live passive follower of the parent cluster.
      ASSERT_NE(cs.uplink(), nullptr) << i;
      EXPECT_TRUE(cs.uplink()->is_synchronized()) << i;
      EXPECT_NE(cs.bridge(), nullptr) << i;
      EXPECT_GT(cs.bridge()->announcements(), 0u) << i;
    } else {
      EXPECT_EQ(cs.uplink(), nullptr) << i;
    }
    EXPECT_TRUE(cs.attached()) << i;
  }
  for (int c = 0; c < s.cluster.clusters; ++c) {
    EXPECT_EQ(references[static_cast<std::size_t>(c)], 1) << "cluster " << c;
  }
}

TEST(ClusterFormation, EveryNodeAttachesWithinTheBound) {
  run::Scenario s = three_cluster_scenario();
  // The steady-state window opens 20 s in; run past it.
  s.duration_s = 30.0;
  const run::RunResult res = run::run_scenario(s);
  ASSERT_FALSE(res.attach_fraction.empty());
  EXPECT_DOUBLE_EQ(res.attach_fraction.points().back().value_us, 1.0);
  ASSERT_TRUE(res.cluster_steady_max_us.has_value());
  // Two gateway hops from the root: the documented cross-cluster bound.
  EXPECT_LT(*res.cluster_steady_max_us, s.cluster.cross_cluster_bound_us());
}

TEST(ClusterFormation, SeededRunsAreBitIdentical) {
  const run::Scenario s = three_cluster_scenario();
  const run::RunResult a = run::run_scenario(s);
  const run::RunResult b = run::run_scenario(s);
  EXPECT_EQ(a.events_processed, b.events_processed);
  ASSERT_EQ(a.cluster_spread.size(), b.cluster_spread.size());
  for (std::size_t i = 0; i < a.cluster_spread.size(); ++i) {
    EXPECT_EQ(a.cluster_spread.points()[i].value_us,
              b.cluster_spread.points()[i].value_us)
        << i;
  }
  ASSERT_EQ(a.attach_fraction.size(), b.attach_fraction.size());
  EXPECT_EQ(a.honest.beacons_sent, b.honest.beacons_sent);
  EXPECT_EQ(a.honest.adjustments, b.honest.adjustments);
}

mac::PhyParams duel_phy() {
  mac::PhyParams phy = rig::lossless_phy();
  phy.radio_range_m = 50.0;
  return phy;
}

// Two clusters on the chain layout; cluster 1 boots with TWO members
// holding the reference role — two timelines inside one broadcast domain.
struct ClusterDuelNet : rig::HandNet {
  ClusterSpec spec;
  std::vector<ClusterSstsp*> protos;

  ClusterDuelNet() : HandNet(97, duel_phy(), 400) {
    spec.clusters = 2;
    spec.nodes_per_cluster = 4;
    sim::Rng rng(97);
    const auto shared_cfg = std::make_shared<const core::SstspConfig>(cfg);
    for (int i = 0; i < spec.total_nodes(); ++i) {
      const auto id = static_cast<mac::NodeId>(i);
      auto& st = add_station(clk::HardwareClock(clk::DriftModel::uniform(rng),
                                                rng.uniform(-40.0, 40.0)),
                             position_of(id));
      register_chain(id);
      ClusterSstsp::Options opts;
      opts.spec = spec;
      opts.cluster = cluster_of(spec, id);
      opts.gateway = is_gateway(spec, id);
      // The duel: both 5 and 6 claim cluster 1's reference role at boot.
      opts.start_as_reference = (i == 0 || i == 5 || i == 6);
      auto proto =
          std::make_unique<ClusterSstsp>(st, shared_cfg, directory, opts);
      protos.push_back(proto.get());
      st.set_protocol(std::move(proto));
    }
  }

  [[nodiscard]] mac::Position position_of(mac::NodeId id) const {
    if (is_gateway(spec, id)) return gateway_position(spec, id);
    const mac::Position center = cluster_center(spec, cluster_of(spec, id));
    return {center.x_m + 3.0 * member_index(spec, id), center.y_m};
  }
};

TEST(ClusterPartition, CrossTimelineRuleRStopsAtTheGatewayBoundary) {
  ClusterDuelNet net;
  net.run(20.0);

  // RULE R inside cluster 1: the duel collapses to exactly one reference
  // (the loser demotes on hearing the survivor's authenticated beacon).
  int cluster1_refs = 0;
  for (int i = 5; i <= 7; ++i) {
    if (net.protos[static_cast<std::size_t>(i)]->is_reference()) {
      ++cluster1_refs;
    }
  }
  EXPECT_EQ(cluster1_refs, 1);
  EXPECT_GE(net.protos[5]->stats().demotions + net.protos[6]->stats().demotions,
            1u);

  // The duel never crosses the boundary: beacons of both contenders are
  // domain-1 traffic, so cluster 0's reference is untouched even though it
  // sits inside radio range of the bridge plane.
  EXPECT_TRUE(net.protos[0]->is_reference());
  EXPECT_EQ(net.protos[0]->stats().demotions, 0u);
  // The gateway stays a follower in both planes throughout.
  EXPECT_FALSE(net.protos[4]->is_reference());

  // With the duel resolved the bridge carries one timescale: every node is
  // attached and the network-wide reading is tight across the boundary.
  double lo = 1e18;
  double hi = -1e18;
  for (std::size_t i = 0; i < net.protos.size(); ++i) {
    ASSERT_TRUE(net.protos[i]->is_synchronized()) << i;
    const double v = net.protos[i]->network_time_us(net.sim.now());
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_LT(hi - lo, 50.0);
}

}  // namespace
}  // namespace sstsp::cluster

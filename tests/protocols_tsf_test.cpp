// TSF behaviour at the protocol level: forward-only adoption, the
// fastest-node-asynchronization pathology, and basic beaconing discipline.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "protocols/tsf_family.h"
#include "support/hand_net.h"

namespace sstsp::proto {
namespace {

using sim::SimTime;
using namespace sstsp::sim::literals;

struct TsfNet : rig::HandNet {
  TsfNet() : HandNet(11) {}

  Station& add(double ppm, double offset_us) {
    Station& st = add_station(ppm, offset_us);
    st.set_protocol(std::make_unique<Tsf>(st));
    return st;
  }
};

TEST(Tsf, TwoNodesSynchronizeToFaster) {
  TsfNet net;
  net.add(+100, 0.0);   // fast
  net.add(-100, -50.0);  // slow, behind
  net.power_on_all();
  net.sim.run_until(30_sec);
  // The slow node must repeatedly adopt the fast node's timestamps.
  EXPECT_LT(net.spread_us(), 25.0);
  const auto& slow = net.stations[1]->protocol();
  EXPECT_GT(slow.stats().adoptions, 0u);
}

TEST(Tsf, TimerNeverLeapsBackward) {
  TsfNet net;
  for (int i = 0; i < 8; ++i) {
    net.add(-100.0 + 25.0 * i, -100.0 + 30.0 * i);
  }
  net.power_on_all();
  // Sample every 10 ms and assert monotonicity of every timer.
  std::vector<double> prev(net.stations.size(), -1e18);
  for (int step = 0; step < 2000; ++step) {
    net.sim.run_until(SimTime::from_ms(10 * (step + 1)));
    for (std::size_t i = 0; i < net.stations.size(); ++i) {
      const double v =
          net.stations[i]->protocol().network_time_us(net.sim.now());
      ASSERT_GE(v, prev[i]) << "station " << i << " step " << step;
      prev[i] = v;
    }
  }
}

TEST(Tsf, OnlyAdoptsLaterTimestamps) {
  // A network where one node starts 10 ms ahead: the others must converge
  // *up* to it (forward-only adoption), never it down to them.
  TsfNet net;
  net.add(0.0, 10'000.0);  // way ahead
  net.add(0.0, 0.0);
  net.add(0.0, 0.0);
  net.power_on_all();
  net.sim.run_until(5_sec);
  EXPECT_LT(net.spread_us(), 25.0);
  // The ahead node's timer can only have moved forward: at least its
  // initial offset plus elapsed time at its own rate.
  const double v0 =
      net.stations[0]->protocol().network_time_us(net.sim.now());
  EXPECT_GE(v0, 10'000.0 + 5e6 - 1.0);
  // The trailing nodes adopted their way up.
  EXPECT_GT(net.stations[1]->protocol().stats().adoptions, 0u);
}

TEST(Tsf, AtMostOneSuccessfulBeaconPerBp) {
  TsfNet net;
  for (int i = 0; i < 10; ++i) net.add(i * 10.0 - 50.0, i * 5.0);
  net.power_on_all();
  net.sim.run_until(20_sec);
  const auto& stats = net.channel.stats();
  // Successful (non-collided) transmissions cannot exceed one per BP.
  const std::uint64_t successful =
      stats.transmissions - stats.collided_transmissions;
  EXPECT_LE(successful, 200u);
  EXPECT_GT(successful, 100u);  // and the window mostly resolves cleanly
}

TEST(Tsf, FastestNodeAsynchronization) {
  // The paper's core observation: with many stations, the fastest node's
  // beacon rarely wins the contention, so the spread grows with N.
  TsfNet small;
  for (int i = 0; i < 5; ++i) small.add(i == 0 ? 100.0 : -80.0 + i, 0.0);
  small.power_on_all();
  small.sim.run_until(60_sec);
  const double small_spread = small.spread_us();

  TsfNet big;
  for (int i = 0; i < 60; ++i) big.add(i == 0 ? 100.0 : -80.0 + i * 0.1, 0.0);
  big.power_on_all();
  big.sim.run_until(60_sec);
  const double big_spread = big.spread_us();

  EXPECT_GT(big_spread, small_spread);
}

TEST(Tsf, StopCancelsActivity) {
  TsfNet net;
  net.add(0.0, 0.0);
  net.add(10.0, 5.0);
  net.power_on_all();
  net.sim.run_until(2_sec);
  const auto sent_before = net.stations[0]->protocol().stats().beacons_sent +
                           net.stations[1]->protocol().stats().beacons_sent;
  net.stations[0]->power_off();
  net.stations[1]->power_off();
  net.sim.run_until(10_sec);
  const auto sent_after = net.stations[0]->protocol().stats().beacons_sent +
                          net.stations[1]->protocol().stats().beacons_sent;
  EXPECT_EQ(sent_before, sent_after);
}

TEST(Tsf, RejoinedNodeResynchronizes) {
  TsfNet net;
  net.add(80.0, 0.0);
  net.add(-80.0, 10.0);
  net.add(0.0, -10.0);
  net.power_on_all();
  net.sim.run_until(5_sec);
  net.stations[1]->power_off();
  net.sim.run_until(25_sec);  // drifts ~ -80ppm * 20 s = -1.6 ms
  net.stations[1]->power_on();
  net.sim.run_until(40_sec);
  EXPECT_LT(net.spread_us(), 30.0);
}

}  // namespace
}  // namespace sstsp::proto

// ATSP / TATSP / SATSF: participation-policy dynamics and the headline
// property that motivated them — better scalability than plain TSF.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "protocols/atsp.h"
#include "protocols/satsf.h"
#include "protocols/tatsp.h"
#include "protocols/tsf_family.h"
#include "runner/experiment.h"
#include "support/hand_net.h"

namespace sstsp::proto {
namespace {

template <typename Proto, typename Params>
struct VariantNet : rig::HandNet {
  Params params{};

  VariantNet() : HandNet(13) {}

  Proto& add(double ppm, double offset_us) {
    Station& st = add_station(ppm, offset_us);
    auto proto = std::make_unique<Proto>(st, params);
    Proto& ref = *proto;
    st.set_protocol(std::move(proto));
    return ref;
  }
};

TEST(Atsp, SlowNodesBackOffFastNodeStaysEager) {
  VariantNet<Atsp, AtspParams> net;
  Atsp& fast = net.add(+100, 0.0);
  Atsp& slow1 = net.add(-100, 0.0);
  Atsp& slow2 = net.add(-50, 0.0);
  net.run(20.0);
  // Slow nodes heard later timestamps and must sit at I = Imax; the fast
  // node heard nothing later and competes every BP.
  EXPECT_EQ(fast.current_interval(), 1u);
  EXPECT_EQ(slow1.current_interval(), net.params.i_max);
  EXPECT_EQ(slow2.current_interval(), net.params.i_max);
  EXPECT_GT(fast.stats().beacons_sent, slow1.stats().beacons_sent);
}

TEST(Atsp, SynchronizesNetwork) {
  VariantNet<Atsp, AtspParams> net;
  for (int i = 0; i < 20; ++i) net.add(-100.0 + 10.0 * i, i * 5.0);
  net.run(30.0);
  EXPECT_LT(net.spread_us(), 25.0);
}

TEST(Tatsp, TierAssignmentsReflectSpeed) {
  VariantNet<Tatsp, TatspParams> net;
  Tatsp& fast = net.add(+100, 0.0);
  Tatsp& mid = net.add(0, 0.0);
  Tatsp& slow = net.add(-100, 0.0);
  net.run(30.0);
  EXPECT_EQ(fast.tier(), 1);
  EXPECT_EQ(slow.tier(), 3);
  (void)mid;
  EXPECT_GT(fast.stats().beacons_sent, slow.stats().beacons_sent);
}

TEST(Tatsp, SynchronizesNetwork) {
  VariantNet<Tatsp, TatspParams> net;
  for (int i = 0; i < 20; ++i) net.add(-100.0 + 10.0 * i, i * 5.0);
  net.run(30.0);
  EXPECT_LT(net.spread_us(), 25.0);
}

TEST(Satsf, FftGrowsForFastShrinksForSlow) {
  VariantNet<Satsf, SatsfParams> net;
  Satsf& fast = net.add(+100, 0.0);
  Satsf& slow = net.add(-100, 0.0);
  net.run(30.0);
  EXPECT_EQ(fast.fft(), net.params.fft_max);
  EXPECT_LT(slow.fft(), net.params.fft_max / 2);
  EXPECT_GT(fast.stats().beacons_sent, slow.stats().beacons_sent);
}

TEST(Satsf, SynchronizesNetwork) {
  VariantNet<Satsf, SatsfParams> net;
  for (int i = 0; i < 20; ++i) net.add(-100.0 + 10.0 * i, i * 5.0);
  net.run(30.0);
  EXPECT_LT(net.spread_us(), 25.0);
}

class VariantScalability : public ::testing::TestWithParam<run::ProtocolKind> {
};

// The design goal of every TSF improvement: at a node count where plain TSF
// visibly degrades, the variant keeps the drift bounded tighter.  Uses the
// scenario runner end to end.
TEST_P(VariantScalability, BeatsTsfAtScale) {
  const int n = 80;
  run::Scenario tsf;
  tsf.protocol = run::ProtocolKind::kTsf;
  tsf.num_nodes = n;
  tsf.duration_s = 120.0;
  tsf.seed = 17;

  run::Scenario variant = tsf;
  variant.protocol = GetParam();

  const auto r_tsf = run::run_scenario(tsf);
  const auto r_var = run::run_scenario(variant);
  ASSERT_TRUE(r_tsf.steady_p99_us.has_value());
  ASSERT_TRUE(r_var.steady_p99_us.has_value());
  EXPECT_LT(*r_var.steady_p99_us, *r_tsf.steady_p99_us);
}

INSTANTIATE_TEST_SUITE_P(Variants, VariantScalability,
                         ::testing::Values(run::ProtocolKind::kAtsp,
                                           run::ProtocolKind::kTatsp,
                                           run::ProtocolKind::kSatsf,
                                           run::ProtocolKind::kSstsp));

}  // namespace
}  // namespace sstsp::proto

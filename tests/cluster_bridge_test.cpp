// Gateway bridge: the TauTracker's authenticate-then-fit path in isolation
// (µTESLA deferred auth, least-squares extrapolation, epoch resets,
// freshness horizon), plus one end-to-end 2-cluster run against the
// documented per-hop translation bound.
#include <gtest/gtest.h>

#include <cmath>

#include "cluster/gateway_bridge.h"
#include "core/beacon_security.h"
#include "core/key_directory.h"
#include "crypto/hash_chain.h"
#include "runner/experiment.h"

namespace sstsp::cluster {
namespace {

constexpr mac::NodeId kGw = 7;
constexpr double kBp = 1e5;
constexpr double kSlack = 2000.0;
constexpr double kStale = 8.0 * kBp;

/// Tracker plus a signing gateway identity: feed() plays one announcement
/// into the tracker the way ClusterSstsp::ingest_bridge would.  µTESLA
/// defers authentication, so the (local, tau) sample for interval j only
/// materializes when interval j+1's announcement discloses K_j.
struct BridgeRig {
  core::KeyDirectory directory{9, 64};
  crypto::MuTeslaSchedule schedule{0.0, kBp, 64};
  crypto::ChainParams chain{crypto::derive_seed(9, kGw), 64};
  core::BeaconSigner signer{chain, schedule};
  TauTracker tracker{directory, schedule, kSlack, kStale};

  BridgeRig() { directory.register_node(kGw); }

  TauIngest feed(std::int64_t j, double local_us, double tau_us) {
    const double ts_est = local_us + tau_us;
    const auto ts = static_cast<std::int64_t>(std::llround(ts_est));
    // Chain indices start at 1, so no key exists to sign an earlier claim:
    // such an announcement goes out with an empty MAC and key.
    mac::SstspBeaconBody body;
    body.timestamp_us = ts;
    body.interval = j;
    body.level = 1;
    if (j >= 1) body = signer.sign(j, ts, kGw, /*level=*/1);
    return tracker.ingest(body, kGw, /*arrival_hw_us=*/local_us, ts_est,
                          local_us, static_cast<std::uint64_t>(j));
  }
};

TEST(TauTracker, DeferredAuthThenLinearExtrapolation) {
  BridgeRig rig;
  // Interval 1's announcement arrives: key-valid but nothing authenticated
  // yet, so no sample and no estimate.
  const TauIngest first = rig.feed(1, 1e5, 100.0);
  EXPECT_TRUE(first.interval_ok);
  EXPECT_TRUE(first.key_valid);
  EXPECT_FALSE(first.sample_accepted);
  EXPECT_FALSE(rig.tracker.tau_us(1e5).has_value());

  // Interval 2 discloses K_1: sample (1e5, 100) lands.
  EXPECT_TRUE(rig.feed(2, 2e5, 110.0).sample_accepted);
  // Interval 3 discloses K_2: sample (2e5, 110).  Tau drifts +10 us per BP
  // (rate 1e-4, inside the clamp), so the two-point fit extrapolates the
  // line exactly.
  EXPECT_TRUE(rig.feed(3, 3e5, 120.0).sample_accepted);
  EXPECT_EQ(rig.tracker.announcer(), kGw);
  EXPECT_EQ(rig.tracker.samples_accepted(), 2u);
  ASSERT_TRUE(rig.tracker.fresh(3e5));
  const auto tau = rig.tracker.tau_us(3e5);
  ASSERT_TRUE(tau.has_value());
  EXPECT_NEAR(*tau, 120.0, 1e-9);
}

TEST(TauTracker, RateIsClampedAgainstCorruptedBaselines) {
  BridgeRig rig;
  // 100 us of tau change per BP = 1e-3 relative rate, double the clamp:
  // no honest pair of ±100 ppm oscillators can diverge that fast.
  ASSERT_FALSE(rig.feed(1, 1e5, 0.0).sample_accepted);
  ASSERT_TRUE(rig.feed(2, 2e5, 100.0).sample_accepted);
  ASSERT_TRUE(rig.feed(3, 3e5, 200.0).sample_accepted);
  // Samples (1e5, 0) and (2e5, 100); pivot (1.5e5, 50).  Unclamped the
  // line would read 150 at 2.5e5 — the clamp holds it to 5e-4.
  const auto tau = rig.tracker.tau_us(2.5e5);
  ASSERT_TRUE(tau.has_value());
  EXPECT_NEAR(*tau, 50.0 + 5e-4 * 1e5, 1e-9);
}

TEST(TauTracker, EpochGapRestartsTheBaseline) {
  BridgeRig rig;
  // Establish an old epoch: samples (1e5, 100) and (2e5, 100).
  ASSERT_FALSE(rig.feed(1, 1e5, 100.0).sample_accepted);
  ASSERT_TRUE(rig.feed(2, 2e5, 100.0).sample_accepted);
  ASSERT_TRUE(rig.feed(3, 3e5, 100.0).sample_accepted);

  // Silence past the staleness window (announcer restarted / we coasted
  // detached), then announcements resume with a very different tau.
  ASSERT_FALSE(rig.tracker.fresh(13e5));
  ASSERT_TRUE(rig.feed(13, 13e5, 500.0).key_valid);
  ASSERT_TRUE(rig.feed(14, 14e5, 500.0).sample_accepted);

  // Regression guard: the post-gap fit must be built from the NEW sample
  // only.  (An earlier bug left the ring head pointing past the restart, so
  // the one-sample fit silently read the stale pre-gap slot and served the
  // old epoch's tau.)
  ASSERT_TRUE(rig.tracker.fresh(14e5));
  const auto tau = rig.tracker.tau_us(14e5);
  ASSERT_TRUE(tau.has_value());
  EXPECT_NEAR(*tau, 500.0, 1e-9);
}

TEST(TauTracker, FreshnessHorizonTracksTheFitSpan) {
  BridgeRig rig;
  ASSERT_FALSE(rig.feed(1, 1e5, 100.0).sample_accepted);
  ASSERT_TRUE(rig.feed(2, 2e5, 100.0).sample_accepted);
  // One sample at local 1e5: zero fit span, so the estimate may coast at
  // most one announcement interval past it — never the full staleness
  // window (a young fit's rate is all noise).
  EXPECT_TRUE(rig.tracker.fresh(2e5));
  EXPECT_FALSE(rig.tracker.fresh(2e5 + 1.0));

  // A second sample widens the horizon to span + one interval.
  ASSERT_TRUE(rig.feed(3, 3e5, 100.0).sample_accepted);
  EXPECT_TRUE(rig.tracker.fresh(4e5));
  EXPECT_FALSE(rig.tracker.fresh(4e5 + 1.0));
}

TEST(TauTracker, NearSimultaneousSampleRefreshesInPlace) {
  BridgeRig rig;
  // The interval-check windows of adjacent intervals overlap inside the
  // slack; two authentications landing < 1 ms apart must not form a rate
  // baseline (the quotient would be pure noise) — the newer sample replaces
  // the older in place and the fit stays flat.
  ASSERT_FALSE(rig.feed(1, 1.49e5, 100.0).sample_accepted);
  ASSERT_TRUE(rig.feed(2, 1.495e5, 110.0).sample_accepted);
  // Interval 3 authenticates interval 2's announcement: its sample
  // (1.495e5, 110) lands 500 us after (1.49e5, 100) and replaces it.  Had
  // the pair formed a baseline, the clamped fit would read 105.125 here.
  ASSERT_TRUE(rig.feed(3, 2.5e5, 120.0).sample_accepted);
  const auto tau = rig.tracker.tau_us(1.495e5);
  ASSERT_TRUE(tau.has_value());
  EXPECT_NEAR(*tau, 110.0, 1e-9);
}

TEST(TauTracker, IntervalCheckRejectsOutOfWindowClaims) {
  BridgeRig rig;
  // Claimed interval 5 while the context clock sits in interval 1: the key
  // for interval 5 may already be public — reject before any chain work.
  const TauIngest out = rig.feed(5, 1e5, 0.0);
  EXPECT_FALSE(out.interval_ok);
  EXPECT_FALSE(out.key_valid);
  EXPECT_EQ(rig.tracker.samples_accepted(), 0u);
  // Interval 0 is never valid (chain indices start at 1).
  EXPECT_FALSE(rig.feed(0, 0.0, 0.0).interval_ok);
}

TEST(ClusterBridge, TwoClusterRunStaysInsideTheHopBound) {
  run::Scenario s;
  s.cluster.clusters = 2;
  s.cluster.nodes_per_cluster = 10;
  s.num_nodes = s.cluster.total_nodes();
  s.duration_s = 40.0;
  s.seed = 5;
  s.phy.radio_range_m = 50.0;
  s.preestablished_reference = true;
  s.sstsp.chain_length = 600;

  const run::RunResult res = run::run_scenario(s);
  ASSERT_FALSE(res.cluster_spread.empty());
  ASSERT_TRUE(res.cluster_steady_max_us.has_value());
  // Depth 1: one gateway hop from the root, so the cross-cluster Lemma-1
  // analogue bounds the steady inter-cluster offset by one hop_bound_us.
  EXPECT_LT(*res.cluster_steady_max_us, s.cluster.hop_bound_us);
  // Everybody ends the run attached to the root timescale.
  ASSERT_FALSE(res.attach_fraction.empty());
  EXPECT_DOUBLE_EQ(res.attach_fraction.points().back().value_us, 1.0);
}

}  // namespace
}  // namespace sstsp::cluster

#include "crypto/mutesla.h"

#include <gtest/gtest.h>

#include <vector>

namespace sstsp::crypto {
namespace {

constexpr double kBpUs = 1e5;

MuTeslaSchedule sched(std::size_t n) { return MuTeslaSchedule{0.0, kBpUs, n}; }

ChainParams chain(std::size_t n) {
  return ChainParams{derive_seed(3, 5), n};
}

std::vector<std::uint8_t> body(std::string_view s) { return {s.begin(), s.end()}; }

TEST(MuTeslaSchedule, IntervalOfRoundsToNearest) {
  const auto s = sched(100);
  EXPECT_EQ(s.interval_of(0.0), 0);
  EXPECT_EQ(s.interval_of(1e5), 1);
  EXPECT_EQ(s.interval_of(1.49e5), 1);
  EXPECT_EQ(s.interval_of(1.51e5), 2);
  EXPECT_DOUBLE_EQ(s.emission_time(7), 7e5);
}

TEST(MuTeslaSchedule, IntervalCheckWindow) {
  const auto s = sched(100);
  const double slack = 2000.0;
  // Interval 5's beacon expected at 5e5; window [4.5e5 - slack, 5.5e5 + slack].
  EXPECT_TRUE(s.interval_check(5, 5e5, slack));
  EXPECT_TRUE(s.interval_check(5, 4.5e5 - slack + 1, slack));
  EXPECT_TRUE(s.interval_check(5, 5.5e5 + slack - 1, slack));
  EXPECT_FALSE(s.interval_check(5, 4.5e5 - slack - 1, slack));
  EXPECT_FALSE(s.interval_check(5, 5.5e5 + slack + 1, slack));
  // Out-of-range intervals are rejected outright.
  EXPECT_FALSE(s.interval_check(0, 0.0, slack));
  EXPECT_FALSE(s.interval_check(101, 101e5, slack));
  EXPECT_FALSE(s.interval_check(-3, 0.0, slack));
}

TEST(MuTesla, SignerKeysMatchChainConvention) {
  const std::size_t n = 50;
  const ChainParams c = chain(n);
  MuTeslaSigner signer(c, sched(n));
  for (std::int64_t j = 1; j <= 10; ++j) {
    EXPECT_EQ(signer.key_for_interval(j),
              c.element(n - static_cast<std::size_t>(j)));
    EXPECT_EQ(signer.disclosed_key(j),
              c.element(n - static_cast<std::size_t>(j) + 1));
  }
  EXPECT_EQ(signer.anchor(), c.anchor());
}

TEST(MuTesla, SignerStartedLateKeepsEveryKeyAndTheAnchor) {
  const std::size_t n = 50;
  const ChainParams c = chain(n);
  for (const std::int64_t first : {1, 7, 25, 50}) {
    const MuTeslaSigner signer(c, sched(n), first);
    EXPECT_EQ(signer.anchor(), c.anchor()) << "first=" << first;
    for (std::int64_t j = 1; j <= static_cast<std::int64_t>(n); ++j) {
      ASSERT_EQ(signer.key_for_interval(j),
                c.element(n - static_cast<std::size_t>(j)))
          << "first=" << first << " j=" << j;
    }
  }
}

TEST(MuTesla, DisclosedKeyIsHashOfIntervalKey) {
  const std::size_t n = 20;
  const ChainParams c = chain(n);
  MuTeslaSigner signer(c, sched(n));
  const auto b = body("beacon");
  for (std::int64_t j = 1; j <= static_cast<std::int64_t>(n); ++j) {
    EXPECT_EQ(signer.disclosed_key(j), hash_once(signer.key_for_interval(j)))
        << "j=" << j;
    EXPECT_EQ(signer.disclosed_key(j),
              c.element(n - static_cast<std::size_t>(j) + 1))
        << "j=" << j;
    const MuTeslaSigner::Signature sig = signer.sign(j, b);
    EXPECT_EQ(sig.mac, signer.mac(j, b)) << "j=" << j;
    EXPECT_EQ(sig.disclosed_key, signer.disclosed_key(j)) << "j=" << j;
  }
}

TEST(MuTesla, VerifierAcceptsSequentialDisclosures) {
  const std::size_t n = 40;
  const ChainParams c = chain(n);
  MuTeslaSigner signer(c, sched(n));
  MuTeslaVerifier verifier(signer.anchor());
  // Beacon of interval j disclosed K_{j-1}; feed them in order.
  for (std::int64_t j = 2; j <= static_cast<std::int64_t>(n); ++j) {
    EXPECT_TRUE(verifier.verify_key({sched(n)}, j - 1, signer.disclosed_key(j)))
        << "j=" << j;
  }
  EXPECT_EQ(verifier.verified_interval(), static_cast<std::int64_t>(n) - 1);
}

TEST(MuTesla, SteadyStateVerificationIsOneHash) {
  const std::size_t n = 40;
  const ChainParams c = chain(n);
  MuTeslaSigner signer(c, sched(n));
  MuTeslaVerifier verifier(signer.anchor());
  ASSERT_TRUE(verifier.verify_key({sched(n)}, 1, signer.key_for_interval(1)));
  const std::uint64_t before = verifier.hash_ops();
  ASSERT_TRUE(verifier.verify_key({sched(n)}, 2, signer.key_for_interval(2)));
  EXPECT_EQ(verifier.hash_ops() - before, 1u);
}

TEST(MuTesla, FirstContactCostsJHashes) {
  const std::size_t n = 100;
  const ChainParams c = chain(n);
  MuTeslaSigner signer(c, sched(n));
  MuTeslaVerifier verifier(signer.anchor());
  ASSERT_TRUE(verifier.verify_key({sched(n)}, 30, signer.key_for_interval(30)));
  EXPECT_EQ(verifier.hash_ops(), 30u);
}

TEST(MuTesla, GapsInDisclosureAreHandled) {
  const std::size_t n = 40;
  const ChainParams c = chain(n);
  MuTeslaSigner signer(c, sched(n));
  MuTeslaVerifier verifier(signer.anchor());
  ASSERT_TRUE(verifier.verify_key({sched(n)}, 3, signer.key_for_interval(3)));
  // Intervals 4-6 lost; key 7 still verifies (walks 4 hashes).
  EXPECT_TRUE(verifier.verify_key({sched(n)}, 7, signer.key_for_interval(7)));
}

TEST(MuTesla, StaleKeysRejected) {
  const std::size_t n = 40;
  const ChainParams c = chain(n);
  MuTeslaSigner signer(c, sched(n));
  MuTeslaVerifier verifier(signer.anchor());
  ASSERT_TRUE(verifier.verify_key({sched(n)}, 10, signer.key_for_interval(10)));
  // Replaying an older interval's key is rejected...
  EXPECT_FALSE(verifier.verify_key({sched(n)}, 5, signer.key_for_interval(5)));
  // ...but re-presenting the exact same current key is idempotent.
  EXPECT_TRUE(verifier.verify_key({sched(n)}, 10, signer.key_for_interval(10)));
  // Same interval with a *wrong* key is rejected.
  EXPECT_FALSE(verifier.verify_key({sched(n)}, 10, signer.key_for_interval(9)));
}

TEST(MuTesla, WrongKeyRejected) {
  const std::size_t n = 40;
  MuTeslaSigner signer(chain(n), sched(n));
  MuTeslaVerifier verifier(signer.anchor());
  Digest bogus = signer.key_for_interval(4);
  bogus[0] ^= 0x80;
  EXPECT_FALSE(verifier.verify_key({sched(n)}, 4, bogus));
  // A key from a different node's chain is also rejected.
  MuTeslaSigner other(ChainParams{derive_seed(3, 6), n}, sched(n));
  EXPECT_FALSE(verifier.verify_key({sched(n)}, 4, other.key_for_interval(4)));
}

TEST(MuTesla, OutOfRangeIntervals) {
  const std::size_t n = 8;
  MuTeslaSigner signer(chain(n), sched(n));
  MuTeslaVerifier verifier(signer.anchor());
  EXPECT_FALSE(verifier.verify_key({sched(n)}, 0, signer.anchor()));
  EXPECT_FALSE(verifier.verify_key({sched(n)}, -1, signer.anchor()));
  EXPECT_FALSE(verifier.verify_key({sched(n)}, 9, signer.key_for_interval(8)));
}

TEST(MuTesla, MacRoundTrip) {
  const std::size_t n = 16;
  MuTeslaSigner signer(chain(n), sched(n));
  const auto msg = body("timestamp|sender");
  const Digest128 mac = signer.mac(3, msg);
  const Digest key = signer.key_for_interval(3);
  EXPECT_TRUE(MuTeslaVerifier::verify_mac(key, 3, msg, mac));
  // Wrong interval binding fails even with the right key and body.
  EXPECT_FALSE(MuTeslaVerifier::verify_mac(key, 4, msg, mac));
  // Wrong key fails.
  EXPECT_FALSE(
      MuTeslaVerifier::verify_mac(signer.key_for_interval(4), 3, msg, mac));
}

class MacBitFlip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MacBitFlip, AnyFlippedBodyByteFails) {
  const std::size_t n = 16;
  MuTeslaSigner signer(chain(n), sched(n));
  auto msg = body("0123456789abcdef");
  const Digest128 mac = signer.mac(2, msg);
  const Digest key = signer.key_for_interval(2);
  msg[GetParam()] ^= 0x01;
  EXPECT_FALSE(MuTeslaVerifier::verify_mac(key, 2, msg, mac));
}

INSTANTIATE_TEST_SUITE_P(Positions, MacBitFlip,
                         ::testing::Range<std::size_t>(0, 16));

TEST(MuTesla, MacInputEncodesInterval) {
  const auto msg = body("x");
  EXPECT_NE(mac_input(1, msg), mac_input(2, msg));
  EXPECT_EQ(mac_input(1, msg).size(), msg.size() + 8);
}

}  // namespace
}  // namespace sstsp::crypto

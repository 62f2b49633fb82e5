#include "crypto/hash_chain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace sstsp::crypto {
namespace {

ChainParams make_chain(std::size_t n) {
  return ChainParams{derive_seed(/*scenario=*/1, /*node=*/42), n};
}

TEST(HashChain, HashTimesComposes) {
  const Digest seed = derive_seed(1, 1);
  EXPECT_EQ(hash_times(seed, 0), seed);
  EXPECT_EQ(hash_times(seed, 3), hash_once(hash_once(hash_once(seed))));
}

TEST(HashChain, DeriveSeedDistinct) {
  EXPECT_NE(derive_seed(1, 1), derive_seed(1, 2));
  EXPECT_NE(derive_seed(1, 1), derive_seed(2, 1));
  EXPECT_EQ(derive_seed(7, 9), derive_seed(7, 9));
}

TEST(HashChain, AnchorIsNthElement) {
  const ChainParams c = make_chain(16);
  EXPECT_EQ(c.anchor(), c.element(16));
  EXPECT_EQ(c.element(0), c.seed);
}

TEST(HashChain, MuTeslaVerifyIdentity) {
  // h^{j-1}(K_{j-1}) == anchor with K_{j-1} = v_{n-j+1}, for all j.
  const std::size_t n = 32;
  const ChainParams c = make_chain(n);
  const Digest anchor = c.anchor();
  for (std::size_t j = 2; j <= n; ++j) {
    const Digest disclosed = c.element(n - j + 1);
    EXPECT_EQ(hash_times(disclosed, j - 1), anchor) << "j=" << j;
  }
}

class TraversalEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TraversalEquivalence, AllStrategiesYieldSameSequence) {
  const std::size_t n = GetParam();
  const ChainParams c = make_chain(n);
  FullStorageTraversal full(c);
  RecomputeTraversal recompute(c);
  FractalTraversal fractal(c);

  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_FALSE(full.exhausted());
    ASSERT_EQ(full.position(), n - 1 - i);
    ASSERT_EQ(recompute.position(), full.position());
    ASSERT_EQ(fractal.position(), full.position());
    const Digest a = full.next();
    const Digest b = recompute.next();
    const Digest d = fractal.next();
    ASSERT_EQ(a, b) << "i=" << i;
    ASSERT_EQ(a, d) << "i=" << i;
    ASSERT_EQ(a, c.element(n - 1 - i)) << "i=" << i;
  }
  EXPECT_TRUE(full.exhausted());
  EXPECT_TRUE(recompute.exhausted());
  EXPECT_TRUE(fractal.exhausted());
}

INSTANTIATE_TEST_SUITE_P(Lengths, TraversalEquivalence,
                         ::testing::Values(1, 2, 3, 7, 8, 64, 100, 256, 1000));

class FractalBounds : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FractalBounds, LogarithmicStorageAndAmortizedWork) {
  const std::size_t n = GetParam();
  const ChainParams c = make_chain(n);
  FractalTraversal fractal(c);
  const auto log2n = static_cast<std::size_t>(std::ceil(std::log2(n))) + 2;

  std::size_t max_stored = 0;
  for (std::size_t i = 0; i < n; ++i) {
    (void)fractal.next();
    max_stored = std::max(max_stored, fractal.stored_digests());
  }
  EXPECT_LE(max_stored, log2n) << "n=" << n;
  // Total work O(n log n): amortized log per step.
  EXPECT_LE(fractal.hash_ops(),
            static_cast<std::uint64_t>(
                static_cast<double>(n) * (std::log2(static_cast<double>(n)) + 2)))
      << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Lengths, FractalBounds,
                         ::testing::Values(16, 64, 128, 1024, 4096));

TEST(Traversal, WorkAccounting) {
  const std::size_t n = 64;
  const ChainParams c = make_chain(n);

  FullStorageTraversal full(c);
  EXPECT_EQ(full.hash_ops(), n - 1);  // all work up front
  EXPECT_EQ(full.stored_digests(), n);

  RecomputeTraversal recompute(c);
  EXPECT_EQ(recompute.stored_digests(), 1u);
  (void)recompute.next();  // v_{n-1}: costs n-1 hashes
  EXPECT_EQ(recompute.hash_ops(), n - 1);
  (void)recompute.next();
  EXPECT_EQ(recompute.hash_ops(), 2 * n - 3);
}

TEST(CheckpointedChain, RandomAccessMatchesDirect) {
  const std::size_t n = 500;
  const ChainParams c = make_chain(n);
  CheckpointedChain cc(c, /*spacing=*/64);
  for (const std::size_t i : {0u, 1u, 63u, 64u, 65u, 200u, 499u, 500u}) {
    EXPECT_EQ(cc.element(i), c.element(i)) << "i=" << i;
  }
  EXPECT_EQ(cc.anchor(), c.anchor());
  // ceil(500/64) interior checkpoints + v_0 + anchor slot.
  EXPECT_LE(cc.stored_digests(), n / 64 + 3);
}

TEST(CheckpointedChain, SpacingOneStoresEverything) {
  const ChainParams c = make_chain(10);
  CheckpointedChain cc(c, 1);
  for (std::size_t i = 0; i <= 10; ++i) EXPECT_EQ(cc.element(i), c.element(i));
}

// Every access order the segment cursor can see: descending (the signer's
// order), ascending, and random — over chains whose length is below the
// spacing, a multiple of it, and not a multiple of it.
TEST(CheckpointedChain, SegmentCursorMatchesDirectInAnyOrder) {
  for (const auto& [n, spacing] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {5, 8}, {64, 8}, {70, 8}, {100, 10}, {101, 11}, {1, 1}}) {
    SCOPED_TRACE("n=" + std::to_string(n) + " spacing=" +
                 std::to_string(spacing));
    const ChainParams c = make_chain(n);
    std::vector<Digest> direct;
    for (std::size_t i = 0; i <= n; ++i) direct.push_back(c.element(i));

    CheckpointedChain down(c, spacing);
    for (std::size_t i = n + 1; i-- > 0;) {
      EXPECT_EQ(down.element(i), direct[i]) << "descending i=" << i;
    }
    CheckpointedChain up(c, spacing);
    for (std::size_t i = 0; i <= n; ++i) {
      EXPECT_EQ(up.element(i), direct[i]) << "ascending i=" << i;
    }
    CheckpointedChain random(c, spacing);
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (int k = 0; k < 200; ++k) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const std::size_t i = static_cast<std::size_t>(x % (n + 1));
      EXPECT_EQ(random.element(i), direct[i]) << "random i=" << i;
    }
    // Segment edges, both sides, in a thrashing order.
    CheckpointedChain edges(c, spacing);
    for (std::size_t base = 0; base < n; base += spacing) {
      const std::size_t last = std::min(base + spacing, n) - 1;
      EXPECT_EQ(edges.element(last), direct[last]) << "i=" << last;
      EXPECT_EQ(edges.element(base), direct[base]) << "i=" << base;
      EXPECT_EQ(edges.element(last + 1), direct[last + 1]) << "i=" << last + 1;
    }
    EXPECT_EQ(edges.element(n), c.anchor());
    EXPECT_LE(edges.segment_digests(), spacing);
  }
}

TEST(CheckpointedChain, DescendingWalkCostsAtMostTwoHashesPerElement) {
  for (const std::size_t n : {64u, 1000u, 6200u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const ChainParams c = make_chain(n);
    CheckpointedChain cc(c);
    EXPECT_EQ(cc.spacing(), CheckpointedChain::sqrt_spacing(n));
    for (std::size_t i = n + 1; i-- > 0;) (void)cc.element(i);
    // Construction (n) plus one fill per segment (< spacing each).
    EXPECT_LE(cc.hash_ops(), 2 * n);
  }
}

TEST(CheckpointedChain, WalkStoppedAtTopReadsEveryPositionExactly) {
  for (const auto& [n, spacing] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {64, 8}, {70, 8}, {101, 11}, {5, 8}}) {
    const ChainParams c = make_chain(n);
    std::vector<Digest> direct;
    for (std::size_t i = 0; i <= n; ++i) direct.push_back(c.element(i));
    for (std::size_t top = 0; top <= n; ++top) {
      SCOPED_TRACE("n=" + std::to_string(n) + " spacing=" +
                   std::to_string(spacing) + " top=" + std::to_string(top));
      CheckpointedChain cc(c, spacing, top);
      EXPECT_EQ(cc.hash_ops(), top);  // the bootstrap walk stops at top
      EXPECT_EQ(cc.anchor(), direct[n]);
      // Positions at or below top, descending, as a signer reads them.
      for (std::size_t i = top + 1; i-- > 0;) {
        ASSERT_EQ(cc.element(i), direct[i]) << "i=" << i;
      }
      // Positions above top (intervals before the first one signed).
      for (std::size_t i = top; i <= n; ++i) {
        ASSERT_EQ(cc.element(i), direct[i]) << "i=" << i;
      }
    }
  }
}

TEST(CheckpointedChain, SqrtSpacingIsCeiling) {
  EXPECT_EQ(CheckpointedChain::sqrt_spacing(0), 1u);
  EXPECT_EQ(CheckpointedChain::sqrt_spacing(1), 1u);
  EXPECT_EQ(CheckpointedChain::sqrt_spacing(2), 2u);
  EXPECT_EQ(CheckpointedChain::sqrt_spacing(64), 8u);
  EXPECT_EQ(CheckpointedChain::sqrt_spacing(65), 9u);
  EXPECT_EQ(CheckpointedChain::sqrt_spacing(6200), 79u);
  EXPECT_EQ(CheckpointedChain::sqrt_spacing(12000), 110u);
}

TEST(Traversal, EmptyChainIsExhausted) {
  const ChainParams c = make_chain(0);
  FullStorageTraversal full(c);
  RecomputeTraversal recompute(c);
  FractalTraversal fractal(c);
  EXPECT_TRUE(full.exhausted());
  EXPECT_TRUE(recompute.exhausted());
  EXPECT_TRUE(fractal.exhausted());
}

}  // namespace
}  // namespace sstsp::crypto

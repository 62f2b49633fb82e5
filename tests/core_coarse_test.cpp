#include "core/coarse_sync.h"

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace sstsp::core {
namespace {

SstspConfig cfg() {
  SstspConfig c;
  c.guard_coarse_us = 20000.0;
  return c;
}

TEST(CoarseSync, EmptyGivesNoEstimate) {
  const SstspConfig c = cfg();
  CoarseSync coarse;
  EXPECT_FALSE(coarse.estimate(c).has_value());
}

TEST(CoarseSync, AveragesCleanOffsets) {
  const SstspConfig c = cfg();
  CoarseSync coarse;
  for (const double o : {100.0, 104.0, 98.0, 102.0, 96.0}) {
    coarse.add_offset(o);
  }
  const auto est = coarse.estimate(c);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(*est, 100.0, 1e-9);
}

TEST(CoarseSync, ThresholdRejectsFarOffsets) {
  SstspConfig c = cfg();
  c.coarse_use_gesd = false;
  CoarseSync coarse;
  coarse.add_offset(50.0);
  coarse.add_offset(55.0);
  coarse.add_offset(45.0);
  coarse.add_offset(1e6);  // replayed ancient beacon
  std::size_t rejected = 0;
  const auto est = coarse.estimate(c, &rejected);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(*est, 50.0, 1e-9);
  EXPECT_EQ(rejected, 1u);
}

TEST(CoarseSync, GesdCatchesSubtleBias) {
  // Offsets biased by ~10 guard-widths would pass the loose threshold
  // (20 ms) but are statistical outliers; GESD removes them first.
  SstspConfig c = cfg();
  c.coarse_use_gesd = true;
  CoarseSync coarse;
  sim::Rng rng(41);
  for (int i = 0; i < 10; ++i) coarse.add_offset(rng.uniform(95.0, 105.0));
  coarse.add_offset(5000.0);  // within coarse guard, still malicious
  std::size_t rejected = 0;
  const auto est = coarse.estimate(c, &rejected);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(*est, 100.0, 5.0);
  EXPECT_GE(rejected, 1u);
}

TEST(CoarseSync, WithoutGesdSubtleBiasLeaksThrough) {
  // The same scenario with GESD disabled: documents why the paper layers
  // the statistical filter on top of the threshold.
  SstspConfig c = cfg();
  c.coarse_use_gesd = false;
  CoarseSync coarse;
  sim::Rng rng(41);
  for (int i = 0; i < 10; ++i) coarse.add_offset(rng.uniform(95.0, 105.0));
  coarse.add_offset(5000.0);
  const auto est = coarse.estimate(c);
  ASSERT_TRUE(est.has_value());
  EXPECT_GT(*est, 300.0);  // polluted mean
}

TEST(CoarseSync, ResetClearsSamples) {
  const SstspConfig c = cfg();
  CoarseSync coarse;
  coarse.add_offset(5.0);
  coarse.reset();
  EXPECT_EQ(coarse.samples(), 0u);
  EXPECT_FALSE(coarse.estimate(c).has_value());
}

TEST(CoarseSync, FewSamplesSkipGesd) {
  // GESD needs >= 5 samples; with 3 samples only the threshold applies.
  SstspConfig c = cfg();
  c.coarse_use_gesd = true;
  CoarseSync coarse;
  coarse.add_offset(10.0);
  coarse.add_offset(12.0);
  coarse.add_offset(11.0);
  const auto est = coarse.estimate(c);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(*est, 11.0, 1e-9);
}

}  // namespace
}  // namespace sstsp::core

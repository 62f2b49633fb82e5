#include <gtest/gtest.h>

#include <cmath>

#include "clock/adjusted_clock.h"
#include "clock/drift_model.h"
#include "clock/hardware_clock.h"
#include "sim/rng.h"

namespace sstsp::clk {
namespace {

using sim::SimTime;

TEST(DriftModel, PpmConversions) {
  EXPECT_DOUBLE_EQ(DriftModel::perfect().frequency, 1.0);
  EXPECT_NEAR(DriftModel::from_ppm(100).frequency, 1.0001, 1e-12);
  EXPECT_NEAR(DriftModel::from_ppm(-50).ppm(), -50.0, 1e-9);
}

TEST(DriftModel, UniformWithinTolerance) {
  sim::Rng rng(5);
  double min_ppm = 1e9;
  double max_ppm = -1e9;
  for (int i = 0; i < 10'000; ++i) {
    const double ppm = DriftModel::uniform(rng).ppm();
    ASSERT_GE(ppm, -100.0);
    ASSERT_LE(ppm, 100.0);
    min_ppm = std::min(min_ppm, ppm);
    max_ppm = std::max(max_ppm, ppm);
  }
  EXPECT_LT(min_ppm, -95.0);  // the distribution actually fills the range
  EXPECT_GT(max_ppm, 95.0);
}

TEST(HardwareClock, AffineReading) {
  const HardwareClock hw(DriftModel::from_ppm(100), 50.0);
  EXPECT_DOUBLE_EQ(hw.read_us(SimTime::zero()), 50.0);
  // After 1 s: 50 + 1.0001 * 1e6.
  EXPECT_NEAR(hw.read_us(SimTime::from_sec(1)), 50.0 + 1.0001e6, 1e-6);
}

TEST(HardwareClock, InverseMapping) {
  const HardwareClock hw(DriftModel::from_ppm(-73), -12.5);
  for (const double target : {0.0, 1.0, 1e5, 9.87e8}) {
    const SimTime real = hw.real_at(target);
    EXPECT_NEAR(hw.read_us(real), target, 1e-5) << target;
  }
}

TEST(HardwareClock, DriftAccumulatesAsExpected) {
  // Two clocks +/-100 ppm apart diverge by 200 us per second.
  const HardwareClock fast(DriftModel::from_ppm(100), 0.0);
  const HardwareClock slow(DriftModel::from_ppm(-100), 0.0);
  const SimTime t = SimTime::from_sec(10);
  EXPECT_NEAR(fast.read_us(t) - slow.read_us(t), 2000.0, 1e-6);
}

TEST(AdjustedClock, IdentityByDefault) {
  const HardwareClock hw(DriftModel::from_ppm(25), 7.0);
  AdjustedClock adj(&hw);
  EXPECT_DOUBLE_EQ(adj.k(), 1.0);
  EXPECT_DOUBLE_EQ(adj.b(), 0.0);
  EXPECT_DOUBLE_EQ(adj.read_us(SimTime::from_sec(3)),
                   hw.read_us(SimTime::from_sec(3)));
}

TEST(AdjustedClock, SlopeChangeIsContinuous) {
  const HardwareClock hw(DriftModel::perfect(), 0.0);
  AdjustedClock adj(&hw);
  adj.set_params(1.00005, -20.0);
  const double hw_now = 5e8;
  const double before = adj.value_at_hw(hw_now);
  adj.set_slope_continuous(0.99997, hw_now);
  EXPECT_NEAR(adj.value_at_hw(hw_now), before, 1e-6);
  EXPECT_DOUBLE_EQ(adj.k(), 0.99997);
}

TEST(AdjustedClock, StepToSetsValue) {
  const HardwareClock hw(DriftModel::perfect(), 0.0);
  AdjustedClock adj(&hw);
  adj.step_to(777.0, 100.0);
  EXPECT_DOUBLE_EQ(adj.value_at_hw(100.0), 777.0);
  EXPECT_DOUBLE_EQ(adj.k(), 1.0);
}

TEST(AdjustedClock, CounterFloors) {
  const HardwareClock hw(DriftModel::perfect(), 0.25);
  const AdjustedClock adj(&hw);
  EXPECT_EQ(adj.read_counter(SimTime::zero()), 0);
  EXPECT_EQ(adj.read_counter(SimTime::from_us(3)), 3);  // 3.25 -> 3
  const HardwareClock neg(DriftModel::perfect(), -0.25);
  EXPECT_EQ(AdjustedClock(&neg).read_counter(SimTime::zero()),
            -1);  // floor(-0.25)
}

TEST(AdjustedClock, StepToJumpsAtHardwareRate) {
  // The TSF timer: a step sets the reading, which then ticks at the
  // hardware rate.
  const HardwareClock hw(DriftModel::from_ppm(40), 10.0);
  AdjustedClock timer(&hw);
  const SimTime t1 = SimTime::from_sec(1);
  EXPECT_DOUBLE_EQ(timer.read_us(t1), hw.read_us(t1));
  timer.step_to(5'000'000.0, hw.read_us(t1));
  EXPECT_DOUBLE_EQ(timer.read_us(t1), 5'000'000.0);
  const SimTime t2 = SimTime::from_sec(2);
  EXPECT_NEAR(timer.read_us(t2) - timer.read_us(t1), 1.00004e6, 1e-3);
}

TEST(AdjustedClock, RealAtInverseAfterStep) {
  const HardwareClock hw(DriftModel::from_ppm(-100), 3.0);
  AdjustedClock timer(&hw);
  timer.step_to(123456.0, hw.read_us(SimTime::from_sec(5)));
  const SimTime when = timer.real_at(200000.0);
  EXPECT_NEAR(timer.read_us(when), 200000.0, 1e-5);
}

TEST(AdjustedClock, RealAtInverse) {
  const HardwareClock hw(DriftModel::from_ppm(80), -4.0);
  AdjustedClock adj(&hw);
  adj.set_params(0.99998, 42.0);
  const SimTime when = adj.real_at(3.21e8);
  EXPECT_NEAR(adj.read_us(when), 3.21e8, 1e-4);
}

TEST(AdjustedClock, MonotoneForPositiveSlope) {
  const HardwareClock hw(DriftModel::from_ppm(-100), 0.0);
  AdjustedClock adj(&hw);
  adj.set_params(0.9999, 10.0);
  double prev = adj.read_us(SimTime::zero());
  for (int i = 1; i <= 100; ++i) {
    const double v = adj.read_us(SimTime::from_ms(i));
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(RngNormal, MomentsAndDeterminism) {
  sim::Rng rng(11);
  double sum = 0.0, sumsq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / kN;
  const double var = sumsq / kN - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);

  sim::Rng a(99), b(99);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.normal(0.0, 1.0), b.normal(0.0, 1.0));
  }
}

TEST(DriftStress, DisabledByDefault) {
  DriftStress spec;
  EXPECT_FALSE(spec.enabled());
  spec.kind = DriftStressKind::kTempRamp;
  EXPECT_TRUE(spec.enabled());
  spec.period_s = 0.0;
  EXPECT_FALSE(spec.enabled());
}

TEST(DriftStress, TempRampRespectsWindowAndSusceptibility) {
  DriftStress spec;
  spec.kind = DriftStressKind::kTempRamp;
  spec.ramp_ppm_per_s = 2.0;
  spec.ramp_start_s = 10.0;
  spec.ramp_end_s = 20.0;
  sim::Rng rng(5);
  DriftStressor stressor(spec, rng.substream("clock-stress", 0));
  EXPECT_GE(stressor.susceptibility(), -1.0);
  EXPECT_LE(stressor.susceptibility(), 1.0);
  // Outside the active window the ramp contributes nothing.
  EXPECT_EQ(stressor.step_delta_ppm(5.0, 1.0), 0.0);
  EXPECT_EQ(stressor.step_delta_ppm(25.0, 1.0), 0.0);
  // Inside: susceptibility * rate * dt exactly.
  EXPECT_DOUBLE_EQ(stressor.step_delta_ppm(15.0, 1.0),
                   stressor.susceptibility() * 2.0);
}

TEST(DriftStress, TempRampEndNegativeMeansWholeRun) {
  DriftStress spec;
  spec.kind = DriftStressKind::kTempRamp;
  spec.ramp_ppm_per_s = 1.0;
  spec.ramp_end_s = -1.0;
  sim::Rng rng(6);
  DriftStressor stressor(spec, rng.substream("clock-stress", 3));
  EXPECT_DOUBLE_EQ(stressor.step_delta_ppm(1e6, 1.0),
                   stressor.susceptibility());
}

TEST(DriftStress, AgingIsMonotoneNonNegative) {
  DriftStress spec;
  spec.kind = DriftStressKind::kAging;
  spec.aging_ppm_per_day = 86400.0;  // 1 ppm/s at susceptibility 1
  sim::Rng rng(7);
  DriftStressor stressor(spec, rng.substream("clock-stress", 1));
  EXPECT_GE(stressor.susceptibility(), 0.0);
  EXPECT_LE(stressor.susceptibility(), 1.0);
  const double d = stressor.step_delta_ppm(100.0, 1.0);
  EXPECT_GE(d, 0.0);
  EXPECT_DOUBLE_EQ(d, stressor.susceptibility());
}

TEST(DriftStress, RandomWalkIsDeterministicPerSubstream) {
  DriftStress spec;
  spec.kind = DriftStressKind::kRandomWalk;
  spec.walk_sigma_ppm = 0.5;
  sim::Rng rng(9);
  DriftStressor s1(spec, rng.substream("clock-stress", 2));
  DriftStressor s2(spec, rng.substream("clock-stress", 2));
  DriftStressor other(spec, rng.substream("clock-stress", 3));
  bool differs = false;
  for (int i = 0; i < 8; ++i) {
    const double a = s1.step_delta_ppm(i, 1.0);
    EXPECT_EQ(a, s2.step_delta_ppm(i, 1.0));
    if (a != other.step_delta_ppm(i, 1.0)) differs = true;
  }
  EXPECT_TRUE(differs);  // distinct nodes walk distinct paths
}

}  // namespace
}  // namespace sstsp::clk

// Free-running hardware oscillator.
//
// Models the 64-bit, 1 us-resolution counter the 802.11 standard mandates:
// reading(real) = offset + frequency * real, kept continuous (double) for
// protocol math.  The 1 us truncation a real TSF timer register exhibits is
// AdjustedClock::read_counter, the value stamped into beacons.
//
// The clock is intentionally *not* settable: every protocol that adjusts
// its time base (TSF adoption, Rentel–Kunz's controlled clock, SSTSP's
// discipline) layers an AdjustedClock on top.  Keeping the oscillator
// immutable mirrors the paper's split between the "original clock" and the
// "adjusted clock".
#pragma once

#include "clock/drift_model.h"
#include "sim/time_types.h"

namespace sstsp::clk {

class HardwareClock {
 public:
  HardwareClock() = default;
  HardwareClock(DriftModel drift, double initial_offset_us)
      : drift_(drift), offset_us_(initial_offset_us) {}

  [[nodiscard]] const DriftModel& drift() const { return drift_; }
  [[nodiscard]] double initial_offset_us() const { return offset_us_; }

  /// Continuous reading in microseconds at simulation (real) time `real`.
  [[nodiscard]] double read_us(sim::SimTime real) const {
    return offset_us_ + drift_.frequency * real.to_us();
  }

  /// Inverse mapping: the real time at which the continuous reading equals
  /// `hw_us`.  Well-defined because frequency > 0.
  [[nodiscard]] sim::SimTime real_at(double hw_us) const {
    return sim::SimTime::from_us_double((hw_us - offset_us_) /
                                        drift_.frequency);
  }

  /// Fault injection: an instantaneous counter step.  The only mutators on
  /// the otherwise-immutable oscillator; they model hardware faults (glitch,
  /// thermal shock), not protocol adjustments — those stay layered on top.
  void fault_step_us(double step_us) { offset_us_ += step_us; }

  /// Fault injection: a permanent frequency change of delta_ppm at real time
  /// `now`, preserving reading continuity (the counter does not jump).
  void fault_drift_delta_ppm(double delta_ppm, sim::SimTime now) {
    const double before = read_us(now);
    drift_.frequency += delta_ppm * 1e-6;
    offset_us_ = before - drift_.frequency * now.to_us();
  }

 private:
  DriftModel drift_{};
  double offset_us_{0.0};
};

}  // namespace sstsp::clk

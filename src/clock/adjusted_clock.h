// The adjustable clock: c(t) = k * t + b over the hardware reading t.
//
// This is the paper's equation (1) and the only clock protocols adjust.
// SSTSP re-solves (k, b) on each authenticated reference beacon (see
// core/adjustment.h); the TSF timer is this clock held at k = 1, stepped
// forward on adoption; Rentel–Kunz's controlled clock sets both.  This
// class only owns the piecewise-affine evaluation and enforces the paper's
// structural guarantees at the representation level:
//
//   * continuity   — set_slope_continuous() recomputes b so that the value
//                    at the switch instant is preserved exactly (eq. 2);
//   * monotonicity — callers can query k to verify the slope stays positive;
//                    the SSTSP discipline rejects solves outside
//                    [k_min, k_max] so time never flows backwards.
#pragma once

#include <cstdint>

#include "clock/hardware_clock.h"

namespace sstsp::clk {

class AdjustedClock {
 public:
  AdjustedClock() = default;
  explicit AdjustedClock(const HardwareClock* hw) : hw_(hw) {}

  [[nodiscard]] double k() const { return k_; }
  [[nodiscard]] double b() const { return b_; }

  /// Adjusted value as a function of the hardware reading.
  [[nodiscard]] double value_at_hw(double hw_us) const {
    return k_ * hw_us + b_;
  }

  /// Adjusted value at simulation time `real`.
  [[nodiscard]] double read_us(sim::SimTime real) const {
    return value_at_hw(hw_->read_us(real));
  }

  /// The 1 us-resolution counter a TSF timer register shows: the floor of
  /// read_us, which is what gets stamped into TSF beacons.
  [[nodiscard]] std::int64_t read_counter(sim::SimTime real) const {
    const double v = read_us(real);
    const auto f = static_cast<std::int64_t>(v);
    return (static_cast<double>(f) > v) ? f - 1 : f;  // floor
  }

  /// Real time at which the adjusted clock reads `value_us`.
  [[nodiscard]] sim::SimTime real_at(double value_us) const {
    return hw_->real_at((value_us - b_) / k_);
  }

  /// Replaces the slope at hardware instant `hw_now_us`, recomputing the
  /// offset so that c is continuous there (paper eq. 2).
  void set_slope_continuous(double new_k, double hw_now_us) {
    const double value_now = value_at_hw(hw_now_us);
    k_ = new_k;
    b_ = value_now - new_k * hw_now_us;
  }

  /// Step: aligns the adjusted clock to `value_us` at hardware instant
  /// `hw_now_us` with slope 1 relative to the hardware clock.  SSTSP uses
  /// it only in the coarse synchronization phase, before the fine-grained
  /// no-leap guarantee is in force; TSF adoption is this step.
  void step_to(double value_us, double hw_now_us) {
    k_ = 1.0;
    b_ = value_us - hw_now_us;
  }

  /// Direct parameter install (the SSTSP solver already builds b for
  /// continuity at the adjustment instant, so no recomputation is needed).
  void set_params(double k, double b) {
    k_ = k;
    b_ = b;
  }

 private:
  const HardwareClock* hw_{nullptr};
  double k_{1.0};
  double b_{0.0};
};

}  // namespace sstsp::clk

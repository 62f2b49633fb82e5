#include "mac/phy_params.h"

namespace sstsp::mac {

sim::SimTime propagation_delay(const Position& a, const Position& b) {
  return sim::SimTime::from_us_double(distance_m(a, b) /
                                      kSpeedOfLightMPerUs);
}

}  // namespace sstsp::mac

// Coarse synchronization phase (paper §3.3).
//
// A (re)joining node scans beacons for a few BPs, computing the offset of
// each overheard timestamp against its own adjusted clock.  Biased offsets
// (attacks, replays) are eliminated with the Song-Zhu-Cao filters — GESD
// first when the sample count supports it, then the loose threshold filter —
// and the survivors' mean is applied as a single clock step.  The result is
// synchronization loose enough (<< BP/2) for the µTESLA interval check,
// which is all the fine-grained phase needs to bootstrap.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/sstsp_config.h"

namespace sstsp::core {

class CoarseSync {
 public:
  void reset() { offsets_.clear(); }

  void add_offset(double offset_us) { offsets_.push_back(offset_us); }

  [[nodiscard]] std::size_t samples() const { return offsets_.size(); }

  /// Filtered mean offset under `cfg`'s filter settings; nullopt when no
  /// sample survives (the node keeps scanning).  `rejected_out`, if
  /// non-null, receives the rejection count.
  [[nodiscard]] std::optional<double> estimate(
      const SstspConfig& cfg, std::size_t* rejected_out = nullptr) const;

 private:
  std::vector<double> offsets_;
};

}  // namespace sstsp::core

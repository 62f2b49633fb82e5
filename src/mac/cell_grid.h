// Uniform cell grid over station positions: the one spatial index of the
// finite-range channels (mac::Channel, mac::ShardChannel) and the column
// axis mac::ShardedWorld partitions by.
//
// Cells are squares whose side is the radio range, laid out from the
// minimum corner of the fitted point set.  A query point outside the fitted
// bounds (for a shard's grid: a remote sender) maps to the nearest cell by
// clamping, so the 3x3 neighbourhood around it still covers every fitted
// point within one cell side of it.  Candidates are therefore a superset of
// the in-range points; callers keep only those passing the exact distance
// check.
#pragma once

#include <algorithm>
#include <cstdint>
#include <ranges>
#include <vector>

#include "mac/phy_params.h"

namespace sstsp::mac {

class CellGrid {
 public:
  /// One axis: `cells` cells of width `cell_m`, the first starting at
  /// `min_m`.
  struct Axis {
    double min_m{0.0};
    double cell_m{1.0};
    int cells{1};

    /// The axis covering [lo, hi] (lo <= hi) with cells of width
    /// `cell_m` > 0.
    [[nodiscard]] static Axis fit(double lo, double hi, double cell_m);
    /// The cell holding coordinate `v`, clamped into [0, cells - 1].
    [[nodiscard]] int index(double v) const;
  };

  /// Fits the bounds to `points` (a range of Position; may be empty) and
  /// files each point under its cell by its index in the range.
  template <std::ranges::forward_range Points>
  CellGrid(const Points& points, double cell_m) {
    double min_x = 0.0;
    double max_x = 0.0;
    double min_y = 0.0;
    double max_y = 0.0;
    bool first = true;
    for (const Position& p : points) {
      if (first) {
        min_x = max_x = p.x_m;
        min_y = max_y = p.y_m;
        first = false;
      } else {
        min_x = std::min(min_x, p.x_m);
        max_x = std::max(max_x, p.x_m);
        min_y = std::min(min_y, p.y_m);
        max_y = std::max(max_y, p.y_m);
      }
    }
    x_ = Axis::fit(min_x, max_x, cell_m);
    y_ = Axis::fit(min_y, max_y, cell_m);
    cells_.resize(static_cast<std::size_t>(x_.cells) *
                  static_cast<std::size_t>(y_.cells));
    std::uint32_t i = 0;
    for (const Position& p : points) {
      cells_[cell(x_.index(p.x_m), y_.index(p.y_m))].push_back(i++);
    }
  }

  /// Replaces `out` with the indices of the points in the 3x3 cell
  /// neighbourhood of `p`, in ascending order: the channels visit
  /// receivers in index order, which keeps every seeded RNG draw where the
  /// full scan would make it.
  void neighbours(const Position& p, std::vector<std::uint32_t>& out) const;

 private:
  [[nodiscard]] std::size_t cell(int cx, int cy) const {
    return static_cast<std::size_t>(cy) * static_cast<std::size_t>(x_.cells) +
           static_cast<std::size_t>(cx);
  }

  Axis x_;
  Axis y_;
  std::vector<std::vector<std::uint32_t>> cells_;
};

}  // namespace sstsp::mac

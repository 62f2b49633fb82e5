#include "mac/cell_grid.h"

#include <algorithm>
#include <cmath>

namespace sstsp::mac {

CellGrid::Axis CellGrid::Axis::fit(double lo, double hi, double cell_m) {
  const int cells = static_cast<int>(std::floor((hi - lo) / cell_m)) + 1;
  return Axis{lo, cell_m, std::max(1, cells)};
}

int CellGrid::Axis::index(double v) const {
  // Clamped before the cast, so a far-away query point never overflows int.
  return static_cast<int>(std::clamp(std::floor((v - min_m) / cell_m), 0.0,
                                     static_cast<double>(cells - 1)));
}

void CellGrid::neighbours(const Position& p,
                          std::vector<std::uint32_t>& out) const {
  out.clear();
  const int cx = x_.index(p.x_m);
  const int cy = y_.index(p.y_m);
  for (int y = std::max(0, cy - 1); y <= std::min(y_.cells - 1, cy + 1); ++y) {
    for (int x = std::max(0, cx - 1); x <= std::min(x_.cells - 1, cx + 1);
         ++x) {
      const std::vector<std::uint32_t>& c = cells_[cell(x, y)];
      out.insert(out.end(), c.begin(), c.end());
    }
  }
  std::sort(out.begin(), out.end());
}

}  // namespace sstsp::mac

// mac::CellGrid against brute force: the 3x3 neighbour query must return a
// strictly ascending superset of the points within one cell side (the radio
// range) of the query point, wherever the query point lies — inside the
// fitted bounds, on a cell edge, or outside them (a remote sender querying
// a shard's grid).
#include "mac/cell_grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/rng.h"

namespace sstsp::mac {
namespace {

std::vector<std::uint32_t> query(const CellGrid& grid, const Position& q) {
  std::vector<std::uint32_t> out{42};  // the query must replace, not append
  grid.neighbours(q, out);
  return out;
}

/// Fails unless `got` is strictly ascending and holds every point within
/// `r` of `q`.
void expect_sorted_superset(const std::vector<Position>& pts, double r,
                            const Position& q,
                            const std::vector<std::uint32_t>& got) {
  EXPECT_TRUE(std::adjacent_find(got.begin(), got.end(),
                                 [](std::uint32_t a, std::uint32_t b) {
                                   return a >= b;
                                 }) == got.end())
      << "not strictly ascending at query (" << q.x_m << ", " << q.y_m << ")";
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    if (distance_m(q, pts[i]) > r) continue;
    EXPECT_TRUE(std::binary_search(got.begin(), got.end(), i))
        << "point " << i << " (" << pts[i].x_m << ", " << pts[i].y_m
        << ") missing for query (" << q.x_m << ", " << q.y_m << "), r " << r;
  }
}

void check_queries(const std::vector<Position>& pts, double r,
                   const std::vector<Position>& queries) {
  const CellGrid grid(pts, r);
  for (const Position& q : queries) {
    expect_sorted_superset(pts, r, q, query(grid, q));
  }
}

double uniform(std::uint64_t& mix, double lo, double hi) {
  const double u = static_cast<double>(sim::splitmix64(mix) >> 11) * 0x1p-53;
  return lo + (hi - lo) * u;
}

TEST(CellGrid, AxisFitsTheSpanAndClampsOutsideIt) {
  const CellGrid::Axis a = CellGrid::Axis::fit(0.0, 100.0, 10.0);
  EXPECT_EQ(a.cells, 11);
  EXPECT_EQ(a.index(0.0), 0);
  EXPECT_EQ(a.index(9.999), 0);
  EXPECT_EQ(a.index(10.0), 1);  // an edge belongs to the upper cell
  EXPECT_EQ(a.index(100.0), 10);
  EXPECT_EQ(a.index(-5.0), 0);
  EXPECT_EQ(a.index(1e9), 10);
  EXPECT_EQ(a.index(-1e300), 0);
  EXPECT_EQ(a.index(std::numeric_limits<double>::infinity()), 10);
  EXPECT_EQ(CellGrid::Axis::fit(3.0, 3.0, 10.0).cells, 1);
  EXPECT_EQ(CellGrid::Axis::fit(-7.5, 2.49, 10.0).cells, 1);
}

TEST(CellGrid, RandomPlacementsMatchBruteForce) {
  std::uint64_t mix = 2006;
  for (const double r : {7.0, 25.0, 120.0, 600.0}) {
    std::vector<Position> pts;
    for (int i = 0; i < 400; ++i) {
      pts.push_back({uniform(mix, -300.0, 500.0), uniform(mix, 0.0, 350.0)});
    }
    std::vector<Position> queries = pts;
    for (int i = 0; i < 400; ++i) {
      queries.push_back(
          {uniform(mix, -300.0 - r, 500.0 + r), uniform(mix, -r, 350.0 + r)});
    }
    // Partners at exactly the range, at random angles: the rounding of the
    // cell arithmetic must not lose a point at distance r.
    for (int i = 0; i < 400; ++i) {
      const Position& p = pts[static_cast<std::size_t>(i)];
      const double a = uniform(mix, 0.0, 6.283185307179586);
      queries.push_back({p.x_m + r * std::cos(a), p.y_m + r * std::sin(a)});
    }
    SCOPED_TRACE(r);
    check_queries(pts, r, queries);
  }
}

TEST(CellGrid, DuplicatePointsAreAllReturned) {
  const std::vector<Position> pts(5, Position{12.5, -3.0});
  const CellGrid grid(pts, 10.0);
  EXPECT_EQ(query(grid, {12.5, -3.0}),
            (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
  std::vector<Position> mixed = {{0, 0}, {30, 30}, {0, 0}, {30, 30}, {0, 0}};
  const CellGrid mixed_grid(mixed, 10.0);
  EXPECT_EQ(query(mixed_grid, {0, 0}), (std::vector<std::uint32_t>{0, 2, 4}));
  EXPECT_EQ(query(mixed_grid, {30, 30}), (std::vector<std::uint32_t>{1, 3}));
}

TEST(CellGrid, PointsOnCellEdgesMatchBruteForce) {
  // Every point of a lattice whose pitch is half the cell side sits on a
  // cell edge every other step; neighbours at exactly r share edges too.
  const double r = 10.0;
  std::vector<Position> pts;
  for (int x = 0; x <= 8; ++x) {
    for (int y = 0; y <= 8; ++y) pts.push_back({5.0 * x, 5.0 * y});
  }
  std::vector<Position> queries = pts;
  for (const Position& p : pts) {
    queries.push_back({p.x_m + r, p.y_m});
    queries.push_back({p.x_m, p.y_m - r});
    queries.push_back({p.x_m + r / std::sqrt(2.0), p.y_m + r / std::sqrt(2.0)});
  }
  check_queries(pts, r, queries);
}

TEST(CellGrid, SinglePointGridAnswersEveryQuery) {
  const std::vector<Position> pts = {{4.0, -9.0}};
  const CellGrid grid(pts, 25.0);
  for (const Position& q : {Position{4.0, -9.0}, Position{29.0, -9.0},
                            Position{-500.0, 800.0}}) {
    EXPECT_EQ(query(grid, q), (std::vector<std::uint32_t>{0}));
  }
  const CellGrid empty(std::vector<Position>{}, 25.0);
  EXPECT_TRUE(query(empty, {0.0, 0.0}).empty());
}

TEST(CellGrid, QueriesOutsideTheBoundsClampToTheNearestCell) {
  // A strip of points, as a shard fits its grid to its own stations only;
  // remote senders query from beyond either side.
  const double r = 20.0;
  std::vector<Position> pts;
  std::uint64_t mix = 16;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({uniform(mix, 100.0, 160.0), uniform(mix, 0.0, 400.0)});
  }
  // Just under r outside every side and corner: in-range points exist, so
  // the superset check has teeth.
  std::vector<Position> near;
  for (int i = 0; i < 200; ++i) {
    const double y = uniform(mix, -0.99 * r, 400.0 + 0.99 * r);
    near.push_back({uniform(mix, 100.0 - 0.99 * r, 100.0), y});
    near.push_back({uniform(mix, 160.0, 160.0 + 0.99 * r), y});
  }
  near.push_back({100.0 - r, 200.0});  // exactly r left of the bounds
  near.push_back({100.0 - 0.5 * r, -0.5 * r});
  check_queries(pts, r, near);

  // More than r outside (including far enough that the unclamped cell
  // index would not fit an int): nothing is in range, and the query
  // answers as for the nearest in-bounds position.
  const CellGrid grid(pts, r);
  for (const double dx : {1.5 * r, 7.0 * r, 1e300}) {
    SCOPED_TRACE(dx);
    EXPECT_EQ(query(grid, {100.0 - dx, 210.0}), query(grid, {100.0, 210.0}));
    EXPECT_EQ(query(grid, {160.0 + dx, 210.0}), query(grid, {160.0, 210.0}));
    EXPECT_EQ(query(grid, {130.0, 400.0 + dx}), query(grid, {130.0, 400.0}));
    EXPECT_EQ(query(grid, {100.0 - dx, -dx}), query(grid, {100.0, 0.0}));
  }
}

}  // namespace
}  // namespace sstsp::mac

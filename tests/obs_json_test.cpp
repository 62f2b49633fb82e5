// JSON number formatting: Writer::value(double) must print exactly what the
// original printf/scanf search printed — the fewest "%.{p}g" digits that
// parse back to the same double, "%.17g" otherwise, integers below 2^53 as
// integers and non-finite values as null.  The search is kept here as the
// oracle and compared byte for byte on seeded doubles and on the edges where
// the layout changes.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace sstsp::obs::json {
namespace {

// The reference formatter: a linear search over printf precisions, each
// candidate checked by reading it back with sscanf.
std::string reference(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  double back = 0.0;
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[32];
    std::snprintf(shorter, sizeof shorter, "%.*g", prec, v);
    std::sscanf(shorter, "%lf", &back);
    if (back == v) return shorter;
  }
  return buf;
}

std::string written(double v) {
  std::ostringstream os;
  Writer w(os);
  w.value(v);
  return os.str();
}

// Counts mismatches and reports the first few instead of one failure per
// value.
void expect_all_match(const std::vector<double>& values, const char* what) {
  int mismatches = 0;
  for (const double v : values) {
    const std::string want = reference(v);
    const std::string got = written(v);
    if (want != got && ++mismatches <= 5) {
      ADD_FAILURE() << what << ": " << std::hexfloat << v << " printed as "
                    << got << ", reference " << want;
    }
  }
  EXPECT_EQ(mismatches, 0) << what << " over " << values.size() << " values";
}

TEST(JsonNumber, MatchesReferenceOnUniformDoubles) {
  std::mt19937_64 rng(20060814);
  std::uniform_real_distribution<double> uniform(0.0, 100.0);
  std::vector<double> values;
  for (int i = 0; i < 40000; ++i) {
    const double v = uniform(rng);
    values.push_back(v);
    values.push_back(-v);
  }
  expect_all_match(values, "uniform [0, 100)");
}

TEST(JsonNumber, MatchesReferenceOnRandomBitPatterns) {
  std::mt19937_64 rng(802);
  std::vector<double> values;
  while (values.size() < 50000) {
    const std::uint64_t bits = rng();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    if (std::isfinite(v)) values.push_back(v);
  }
  expect_all_match(values, "random bit patterns");
}

TEST(JsonNumber, MatchesReferenceOnExponentSweep) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> mantissa(1.0, 2.0);
  std::uniform_int_distribution<int> exponent(-100, 100);
  std::vector<double> values;
  for (int i = 0; i < 40000; ++i) {
    const double v = std::ldexp(mantissa(rng), exponent(rng));
    values.push_back(v);
    values.push_back(-v);
  }
  expect_all_match(values, "ldexp sweep over 2^-100..2^100");
}

TEST(JsonNumber, MatchesReferenceOnSubnormals) {
  std::mt19937_64 rng(324);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t bits = rng() & ((std::uint64_t{1} << 52) - 1);
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    if (v != 0.0) values.push_back(v);
  }
  expect_all_match(values, "subnormals");
}

TEST(JsonNumber, MatchesReferenceOnPowersOfTwo) {
  // Below a power of two the doubles are twice as dense, so its rounding
  // interval is lopsided.  For 46 of them (2^-1017 is the first) the
  // shortest form has 16 digits and lies above the value, while "%.16g"
  // rounds below it and misses: the search has to go on to 17 digits.
  std::vector<double> values;
  for (int e = -1074; e <= 1023; ++e) {
    values.push_back(std::ldexp(1.0, e));
    values.push_back(-std::ldexp(1.0, e));
  }
  expect_all_match(values, "powers of two");
}

TEST(JsonNumber, MatchesReferenceOnNamedEdges) {
  const std::vector<double> edges = {
      5e-324,
      DBL_MIN,
      DBL_MAX,
      1e-5,  // %g switches to exponent form below 1e-4
      1e-4,
      9.007199254740991e15,  // last integer on the integral fast path
      9.007199254740993e15,  // rounds to 2^53: past the cutoff
      9.007199254740992e15,
      1e16,
      1e17,
      1e21,
      0.1 + 0.2,
      123456789012345678.0,
      0.1,
      0.5,
      1.0 / 3.0,
      2.0 / 3.0,
      1e100,
      1e-100,
      std::nextafter(1.0, 2.0),
      std::nextafter(1.0, 0.0),
      std::ldexp(1.0, -1022),
      std::ldexp(1.0, 60),
      std::ldexp(1.0, 60) * (1.0 + DBL_EPSILON),
  };
  std::vector<double> values;
  for (const double v : edges) {
    values.push_back(v);
    values.push_back(-v);
  }
  expect_all_match(values, "named edges");

  EXPECT_EQ(written(30.0), "30");
  EXPECT_EQ(written(-0.0), "0");
  EXPECT_EQ(written(0.1), "0.1");
  EXPECT_EQ(written(1e-5), "1e-05");
  EXPECT_EQ(written(1e21), "1e+21");
  EXPECT_EQ(written(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(written(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(written(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(written(-std::numeric_limits<double>::infinity()), "null");
}

}  // namespace
}  // namespace sstsp::obs::json

// Metrics registry: counters, gauges, log-bucketed histograms, snapshots,
// and the merge path parallel sweeps rely on (one registry per thread,
// combined afterwards).
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace sstsp::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Registry reg;
  Counter& c = reg.counter("events");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same counter.
  EXPECT_EQ(reg.counter("events").value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Registry reg;
  Gauge& g = reg.gauge("depth");
  g.set(3.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
}

TEST(Histogram, ExactStatsAreExact) {
  Histogram h;
  for (const double v : {4.0, -2.0, 10.0, 0.5}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 12.5);
  EXPECT_DOUBLE_EQ(h.min(), -2.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.125);
}

TEST(Histogram, EmptyIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

// Quantiles interpolate within a base-2 bucket, so the relative error is
// bounded by the bucket width: a factor of 2 either way.
TEST(Histogram, QuantilesWithinBucketTolerance) {
  Histogram h;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(0.0, 100.0);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    const double v = dist(rng);
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double p : {0.5, 0.9, 0.99}) {
    const double exact =
        values[static_cast<std::size_t>(p * (values.size() - 1))];
    const double est = h.quantile(p);
    EXPECT_GE(est, exact / 2.0) << "p = " << p;
    EXPECT_LE(est, exact * 2.0) << "p = " << p;
  }
  // Quantiles never exceed the observed magnitude extremes.
  EXPECT_LE(h.quantile(1.0), h.max());
}

TEST(Histogram, MergeEqualsRecordingEverythingInOne) {
  Histogram a;
  Histogram b;
  Histogram all;
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> dist(-50.0, 50.0);
  for (int i = 0; i < 5000; ++i) {
    const double v = dist(rng);
    ((i % 2 == 0) ? a : b).record(v);
    all.record(v);
  }
  a.merge_from(b);
  EXPECT_EQ(a.count(), all.count());
  // Sums differ only by floating-point addition order.
  EXPECT_NEAR(a.sum(), all.sum(), 1e-9 * std::fabs(all.sum()) + 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  EXPECT_EQ(a.buckets(), all.buckets());  // bucketed merge is exact
  EXPECT_DOUBLE_EQ(a.quantile(0.9), all.quantile(0.9));
}

// The sweep pattern: one registry per worker thread, no shared state while
// recording, merged into one registry afterwards.
TEST(Registry, MergeAcrossThreadPool) {
  constexpr unsigned kTasks = 8;
  constexpr int kPerTask = 1000;
  std::vector<Registry> parts(kTasks);

  {
    std::vector<std::jthread> workers;
    for (unsigned t = 0; t < kTasks; ++t) {
      workers.emplace_back([&parts, t] {
        Registry& reg = parts[t];
        Counter& c = reg.counter("events");
        Histogram& h = reg.histogram("err_us");
        for (int i = 0; i < kPerTask; ++i) {
          c.inc();
          h.record(static_cast<double>(t) + 1.0);
        }
        reg.gauge("last_depth").set(static_cast<double>(t));
      });
    }
  }  // the jthreads join here

  Registry total;
  for (const Registry& part : parts) total.merge_from(part);
  EXPECT_EQ(total.counter("events").value(), kTasks * kPerTask);
  EXPECT_EQ(total.histogram("err_us").count(), kTasks * kPerTask);
  EXPECT_DOUBLE_EQ(total.histogram("err_us").min(), 1.0);
  EXPECT_DOUBLE_EQ(total.histogram("err_us").max(), 8.0);
}

TEST(Registry, SnapshotIsSortedPlainData) {
  Registry reg;
  reg.counter("b").inc(2);
  reg.counter("a").inc(1);
  reg.gauge("g").set(-3.5);
  reg.histogram("h").record(7.0);

  const RegistrySnapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].first, "a");
  EXPECT_EQ(s.counters[1].first, "b");
  EXPECT_EQ(s.counters[1].second, 2u);
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(s.gauges[0].second, -3.5);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].second.count, 1u);
  EXPECT_FALSE(s.empty());
  EXPECT_TRUE(RegistrySnapshot{}.empty());
}

TEST(Registry, SnapshotJsonParses) {
  Registry reg;
  reg.counter("event.beacon-tx").inc(3);
  reg.histogram("sync.max_diff_us").record(4.25);

  std::ostringstream os;
  reg.snapshot().write_json(os);
  const auto doc = json::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  const json::Value* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  const json::Value* c = counters->find("event.beacon-tx");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->number, 3.0);
  const json::Value* h = doc->find("histograms");
  ASSERT_NE(h, nullptr);
  const json::Value* hist = h->find("sync.max_diff_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("max")->number, 4.25);
}

}  // namespace
}  // namespace sstsp::obs

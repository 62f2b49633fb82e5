// Clock-discipline unit tests (core/discipline.h): RLS convergence under
// the stressors it exists for (temperature ramp, random-walk frequency),
// innovation gating, holdover coasting, window-derived pruning, and the
// nested-config plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/discipline.h"
#include "obs/json.h"
#include "obs/ring.h"
#include "sim/rng.h"

namespace sstsp::core {
namespace {

constexpr double kBpUs = 100000.0;  // 0.1 s beacon period

/// Synthetic beacon stream: reference time advances one BP per sample; the
/// local clock integrates a per-step drift (ppm) supplied by `drift_ppm`,
/// plus an additive observation noise (us) from `noise_us`.
struct StreamGen {
  double ts{0.0};
  double t_local{0.0};

  template <typename DriftFn, typename NoiseFn>
  RefSample next(DriftFn&& drift_ppm, NoiseFn&& noise_us) {
    ts += kBpUs;
    t_local += kBpUs * (1.0 + drift_ppm(ts * 1e-6) * 1e-6);
    return RefSample{t_local + noise_us(), ts};
  }
};

SstspConfig config_for(const std::string& name) {
  SstspConfig cfg;
  cfg.discipline.name = name;
  return cfg;
}

/// Feeds `n` samples to a discipline and accumulates the absolute
/// next-beacon prediction error (|expected local arrival - true local
/// arrival|) from `warmup` onward.  The prediction target is the reference
/// time of the next sample, whose true local time the generator knows.
template <typename DriftFn, typename NoiseFn>
double prediction_error_us(ClockDiscipline& disc, int n, int warmup,
                           DriftFn&& drift_ppm, NoiseFn&& noise_us) {
  StreamGen gen;
  std::vector<RefSample> truth;
  truth.reserve(static_cast<std::size_t>(n) + 1);
  for (int i = 0; i <= n; ++i) {
    truth.push_back(gen.next(drift_ppm, noise_us));
  }
  double total = 0.0;
  int counted = 0;
  for (int i = 0; i < n; ++i) {
    (void)disc.add_sample(truth[static_cast<std::size_t>(i)], kBpUs);
    if (i < warmup || disc.size() < disc.min_samples()) continue;
    const auto& next = truth[static_cast<std::size_t>(i) + 1];
    const double t_now = truth[static_cast<std::size_t>(i)].t_local_us + 1.0;
    const ClockParams previous{1.0, 0.0};
    const DisciplineResult out =
        disc.propose(previous, t_now, next.ts_ref_us);
    if (out.expected_t_star_us <= 0.0) continue;
    total += std::fabs(out.expected_t_star_us - next.t_local_us);
    ++counted;
  }
  EXPECT_GT(counted, 0);
  return counted > 0 ? total / counted : 1e18;
}

TEST(Discipline, FactoryResolvesNames) {
  SstspConfig cfg;
  EXPECT_EQ(make_discipline(cfg)->name(), "paper");
  cfg.discipline.name = "paper";
  EXPECT_EQ(make_discipline(cfg)->name(), "paper");
  cfg.discipline.name = "rls";
  EXPECT_EQ(make_discipline(cfg)->name(), "rls");
  cfg.discipline.name = "holdover";
  EXPECT_EQ(make_discipline(cfg)->name(), "holdover");

  EXPECT_TRUE(discipline_known("paper"));
  EXPECT_TRUE(discipline_known("rls"));
  EXPECT_TRUE(discipline_known("holdover"));
  EXPECT_FALSE(discipline_known("kalman"));
  EXPECT_EQ(discipline_verdict_names().size(), kDisciplineVerdictCount);
}

TEST(Discipline, RlsConvergesUnderConstantDrift) {
  const SstspConfig cfg = config_for("rls");
  const auto disc = make_discipline(cfg);
  const double err = prediction_error_us(
      *disc, 12, 6, [](double) { return 50.0; }, [] { return 0.0; });
  // Noise-free constant drift: the affine fit should nail the next beacon.
  EXPECT_LT(err, 1.0);
}

TEST(Discipline, RlsBeatsPaperUnderTemperatureRamp) {
  // Drift ramps -30 ppm -> +18 ppm over 16 s; +/-2 us observation noise
  // models timestamp quantization + delivery jitter.
  auto ramp = [](double t_s) { return -30.0 + 3.0 * t_s; };
  sim::Rng rng_a(42);
  sim::Rng rng_b(42);
  auto noise_a = [&rng_a] { return rng_a.uniform(-2.0, 2.0); };
  auto noise_b = [&rng_b] { return rng_b.uniform(-2.0, 2.0); };

  const SstspConfig paper_cfg = config_for("paper");
  const auto paper = make_discipline(paper_cfg);
  const double paper_err = prediction_error_us(*paper, 160, 8, ramp, noise_a);

  const SstspConfig rls_cfg = config_for("rls");
  const auto rls = make_discipline(rls_cfg);
  const double rls_err = prediction_error_us(*rls, 160, 8, ramp, noise_b);

  // The window average attenuates the noise; the forgetting factor keeps
  // tracking the ramp.  Require a decisive (not marginal) win.
  EXPECT_LT(rls_err, 0.8 * paper_err)
      << "rls " << rls_err << " us vs paper " << paper_err << " us";
}

TEST(Discipline, RlsBeatsPaperUnderRandomWalkDrift) {
  // Both disciplines see the identical drift walk and noise sequence
  // (same-seeded generators, regenerated per run).
  auto make_walk = [](sim::Rng& rng, double& state) {
    return [&rng, &state](double) {
      state += rng.normal(0.0, 0.4);
      return state;
    };
  };

  sim::Rng rng_w1(7), rng_n1(43);
  double d1 = 20.0;
  const SstspConfig paper_cfg = config_for("paper");
  const auto paper = make_discipline(paper_cfg);
  auto noise1 = [&rng_n1] { return rng_n1.uniform(-2.0, 2.0); };
  const double paper_err =
      prediction_error_us(*paper, 160, 8, make_walk(rng_w1, d1), noise1);

  sim::Rng rng_w2(7), rng_n2(43);
  double d2 = 20.0;
  const SstspConfig rls_cfg = config_for("rls");
  const auto rls = make_discipline(rls_cfg);
  auto noise2 = [&rng_n2] { return rng_n2.uniform(-2.0, 2.0); };
  const double rls_err =
      prediction_error_us(*rls, 160, 8, make_walk(rng_w2, d2), noise2);

  EXPECT_LT(rls_err, 0.8 * paper_err)
      << "rls " << rls_err << " us vs paper " << paper_err << " us";
}

TEST(Discipline, RlsInnovationGateScreensOutliers) {
  SstspConfig cfg = config_for("rls");
  cfg.discipline.innovation_gate_us = 100.0;
  const auto disc = make_discipline(cfg);

  StreamGen gen;
  auto drift = [](double) { return 30.0; };
  auto clean = [] { return 0.0; };
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(disc->add_sample(gen.next(drift, clean), kBpUs), std::nullopt);
  }
  // A 5 ms reference-timestamp spike: way past the gate.
  RefSample outlier = gen.next(drift, clean);
  outlier.ts_ref_us += 5000.0;
  const auto verdict = disc->add_sample(outlier, kBpUs);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, DisciplineVerdict::kInnovationRejected);
  // The sample still enters history (the deque is shared bookkeeping);
  // only the estimator update was screened.
  EXPECT_EQ(disc->size(), 7u);

  // Clean samples keep flowing after the screen.
  EXPECT_EQ(disc->add_sample(gen.next(drift, clean), kBpUs), std::nullopt);
}

TEST(Discipline, RlsSurvivesEpochBreak) {
  const SstspConfig cfg = config_for("rls");
  const auto disc = make_discipline(cfg);
  StreamGen gen;
  auto drift = [](double) { return 40.0; };
  auto clean = [] { return 0.0; };
  RefSample last{};
  for (int i = 0; i < 8; ++i) {
    last = gen.next(drift, clean);
    (void)disc->add_sample(last, kBpUs);
  }
  // A partition: 40 BPs of silence, far past the (window + slack) horizon.
  gen.ts += 40.0 * kBpUs;
  gen.t_local += 40.0 * kBpUs * (1.0 + 40.0 * 1e-6);
  for (int i = 0; i < 4; ++i) {
    last = gen.next(drift, clean);
    (void)disc->add_sample(last, kBpUs);
  }
  const DisciplineResult out = disc->propose(
      ClockParams{1.0, 0.0}, last.t_local_us + 1.0, last.ts_ref_us + kBpUs);
  ASSERT_TRUE(out.params.has_value()) << to_string(out.verdict);
  EXPECT_TRUE(std::isfinite(out.params->k));
  // Post-break fit still predicts the next beacon to within a few us.
  const double true_next = last.t_local_us + kBpUs * (1.0 + 40.0 * 1e-6);
  EXPECT_NEAR(out.expected_t_star_us, true_next, 5.0);
}

TEST(Discipline, HoldoverCoastsThroughBeaconDrought) {
  SstspConfig cfg = config_for("holdover");
  const auto disc = make_discipline(cfg);
  EXPECT_EQ(disc->min_samples(), 1u);

  StreamGen gen;
  auto drift = [](double) { return 60.0; };
  auto clean = [] { return 0.0; };
  RefSample a = gen.next(drift, clean);
  RefSample b = gen.next(drift, clean);
  (void)disc->add_sample(a, kBpUs);
  (void)disc->add_sample(b, kBpUs);
  // Normal 2-sample solve: learns the rate.
  const DisciplineResult solved = disc->propose(
      ClockParams{1.0, 0.0}, b.t_local_us + 1.0, b.ts_ref_us + 3.0 * kBpUs);
  ASSERT_TRUE(solved.params.has_value());
  EXPECT_EQ(solved.verdict, DisciplineVerdict::kApplied);

  // Drought: the next sample arrives 10 BPs later; with window 1 the age
  // horizon is (1 + 4) BPs, so history collapses to the fresh sample.
  gen.ts += 9.0 * kBpUs;
  gen.t_local += 9.0 * kBpUs * (1.0 + 60.0 * 1e-6);
  const RefSample fresh = gen.next(drift, clean);
  (void)disc->add_sample(fresh, kBpUs);
  ASSERT_EQ(disc->size(), 1u);

  const DisciplineResult coast =
      disc->propose(ClockParams{1.0, 0.0}, fresh.t_local_us + 1.0,
                    fresh.ts_ref_us + 3.0 * kBpUs);
  ASSERT_TRUE(coast.params.has_value()) << to_string(coast.verdict);
  EXPECT_EQ(coast.verdict, DisciplineVerdict::kHoldoverCoast);
  // Coasting on the learned rate lands within a few us of the true target
  // instant (constant drift, so the remembered rate is exact).
  const double true_t_star =
      fresh.t_local_us + 3.0 * kBpUs * (1.0 + 60.0 * 1e-6);
  EXPECT_NEAR(coast.expected_t_star_us, true_t_star, 5.0);
}

TEST(Discipline, HoldoverRefusesStaleRate) {
  SstspConfig cfg = config_for("holdover");
  cfg.discipline.holdover_max_age_bps = 4;
  const auto disc = make_discipline(cfg);

  StreamGen gen;
  auto drift = [](double) { return 60.0; };
  auto clean = [] { return 0.0; };
  const RefSample a = gen.next(drift, clean);
  const RefSample b = gen.next(drift, clean);
  (void)disc->add_sample(a, kBpUs);
  (void)disc->add_sample(b, kBpUs);
  (void)disc->propose(ClockParams{1.0, 0.0}, b.t_local_us + 1.0,
                      b.ts_ref_us + 3.0 * kBpUs);

  // 10 BPs of silence exceeds holdover-max-age 4: refuse to coast.
  gen.ts += 9.0 * kBpUs;
  gen.t_local += 9.0 * kBpUs * (1.0 + 60.0 * 1e-6);
  const RefSample fresh = gen.next(drift, clean);
  (void)disc->add_sample(fresh, kBpUs);
  ASSERT_EQ(disc->size(), 1u);
  const DisciplineResult out =
      disc->propose(ClockParams{1.0, 0.0}, fresh.t_local_us + 1.0,
                    fresh.ts_ref_us + 3.0 * kBpUs);
  EXPECT_FALSE(out.params.has_value());
  EXPECT_EQ(out.verdict, DisciplineVerdict::kInsufficientHistory);
}

TEST(Discipline, HistoryWindowDerivesPruning) {
  // The satellite fix: the retention cap and age horizon come from the
  // discipline's declared window, not a hardcoded span+4.
  SstspConfig rls_cfg = config_for("rls");
  rls_cfg.discipline.window_bps = 6;
  const auto rls = make_discipline(rls_cfg);
  StreamGen gen;
  auto drift = [](double) { return 10.0; };
  auto clean = [] { return 0.0; };
  for (int i = 0; i < 20; ++i) {
    (void)rls->add_sample(gen.next(drift, clean), kBpUs);
  }
  EXPECT_EQ(rls->history_window_bps(), 6);
  EXPECT_EQ(rls->size(), 7u);  // window + 1

  SstspConfig paper_cfg;  // default span 1
  const auto paper = make_discipline(paper_cfg);
  StreamGen gen2;
  for (int i = 0; i < 20; ++i) {
    (void)paper->add_sample(gen2.next(drift, clean), kBpUs);
  }
  EXPECT_EQ(paper->history_window_bps(), 1);
  EXPECT_EQ(paper->size(), 2u);
}

TEST(Discipline, ResetDropsHistoryAndState) {
  const SstspConfig cfg = config_for("rls");
  const auto disc = make_discipline(cfg);
  StreamGen gen;
  auto drift = [](double) { return 10.0; };
  auto clean = [] { return 0.0; };
  for (int i = 0; i < 5; ++i) {
    (void)disc->add_sample(gen.next(drift, clean), kBpUs);
  }
  EXPECT_EQ(disc->size(), 5u);
  disc->reset();
  EXPECT_EQ(disc->size(), 0u);
  const DisciplineResult out =
      disc->propose(ClockParams{1.0, 0.0}, 1.0, kBpUs);
  EXPECT_EQ(out.verdict, DisciplineVerdict::kInsufficientHistory);
}

TEST(Discipline, VerdictStringsAndRejectionClass) {
  EXPECT_STREQ(to_string(DisciplineVerdict::kApplied), "applied");
  EXPECT_STREQ(to_string(DisciplineVerdict::kHoldoverCoast),
               "holdover_coast");
  // Only the paper solver's three reject reasons count as legacy
  // solver_rejections; screening/coasting verdicts do not.
  EXPECT_TRUE(verdict_is_rejection(DisciplineVerdict::kNonIncreasingSamples));
  EXPECT_TRUE(verdict_is_rejection(DisciplineVerdict::kTargetNotAhead));
  EXPECT_TRUE(verdict_is_rejection(DisciplineVerdict::kSlopeOutOfRange));
  EXPECT_FALSE(verdict_is_rejection(DisciplineVerdict::kApplied));
  EXPECT_FALSE(verdict_is_rejection(DisciplineVerdict::kInsufficientHistory));
  EXPECT_FALSE(verdict_is_rejection(DisciplineVerdict::kInnovationRejected));
  EXPECT_FALSE(verdict_is_rejection(DisciplineVerdict::kHoldoverCoast));
}

TEST(Discipline, ApplyJsonStringAndObject) {
  SstspConfig cfg;
  std::string error;

  const auto name_only = obs::json::parse(R"("rls")");
  ASSERT_TRUE(name_only.has_value());
  ASSERT_TRUE(apply_discipline_json(*name_only, &cfg, &error)) << error;
  EXPECT_EQ(cfg.discipline.name, "rls");

  const auto full = obs::json::parse(
      R"({"name":"rls","window":24,"forgetting":0.95,"innovation-gate":150,
          "holdover-max-age":16,"span":8,"k-min":0.9,"k-max":1.1})");
  ASSERT_TRUE(full.has_value());
  ASSERT_TRUE(apply_discipline_json(*full, &cfg, &error)) << error;
  EXPECT_EQ(cfg.discipline.window_bps, 24);
  EXPECT_DOUBLE_EQ(cfg.discipline.forgetting, 0.95);
  EXPECT_DOUBLE_EQ(cfg.discipline.innovation_gate_us, 150.0);
  EXPECT_EQ(cfg.discipline.holdover_max_age_bps, 16);
  EXPECT_EQ(cfg.solver_span_bps, 8);
  EXPECT_DOUBLE_EQ(cfg.k_min, 0.9);
  EXPECT_DOUBLE_EQ(cfg.k_max, 1.1);
}

TEST(Discipline, ApplyJsonRejectsUnknownNestedKey) {
  SstspConfig cfg;
  std::string error;
  const auto bad = obs::json::parse(R"({"name":"rls","frobnicate":1})");
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(apply_discipline_json(*bad, &cfg, &error));
  EXPECT_NE(error.find("discipline.frobnicate"), std::string::npos) << error;

  const auto bad_name = obs::json::parse(R"("kalman")");
  ASSERT_TRUE(bad_name.has_value());
  EXPECT_FALSE(apply_discipline_json(*bad_name, &cfg, &error));
  EXPECT_NE(error.find("kalman"), std::string::npos);

  const auto inverted = obs::json::parse(R"({"k-min":1.1,"k-max":0.9})");
  ASSERT_TRUE(inverted.has_value());
  SstspConfig cfg2;
  EXPECT_FALSE(apply_discipline_json(*inverted, &cfg2, &error));
  EXPECT_NE(error.find("k-min"), std::string::npos);
}

TEST(SampleRing, MatchesABoundedDequeUnderPushPopAndClear) {
  // Capacities below, at and above the ring's first storage step (8), so
  // storage also grows while the live elements wrap around it.
  for (const std::size_t cap : {1u, 2u, 3u, 8u, 9u, 17u, 40u}) {
    obs::Ring<int> ring(cap);
    std::deque<int> model;
    sim::Rng rng(cap);
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t op = rng.uniform_int(0, 99);
      if (op < 60) {
        ring.push_back(step);
        model.push_back(step);
        if (model.size() > cap) model.pop_front();
      } else if (op < 99) {
        if (!model.empty()) {
          ring.pop_front();
          model.pop_front();
        }
      } else {
        ring.clear();
        model.clear();
      }
      ASSERT_EQ(ring.size(), model.size()) << "cap " << cap;
      ASSERT_EQ(ring.full(), model.size() == cap);
      std::size_t i = 0;
      for (const int v : ring) ASSERT_EQ(v, model[i++]) << "cap " << cap;
      if (!model.empty()) {
        ASSERT_EQ(ring.front(), model.front());
        ASSERT_EQ(ring.back(), model.back());
      }
    }
  }
}

/// The per-sender history as a deque, as add_sample kept it before the
/// ring: append, trim to W+1, then age out what lies more than
/// (W + kEpochGapSlackBps) beacon periods behind the newest.
struct DequeHistory {
  std::size_t capacity;
  double max_age_us;
  std::deque<RefSample> samples;

  /// Returns whether the age-out dropped a previous clock epoch.
  bool add(const RefSample& s) {
    samples.push_back(s);
    while (samples.size() > capacity) samples.pop_front();
    bool epoch_break = false;
    while (samples.size() > 1 &&
           samples.back().t_local_us - samples.front().t_local_us >
               max_age_us) {
      samples.pop_front();
      epoch_break = true;
    }
    return epoch_break;
  }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_result(const DisciplineResult& a, const DisciplineResult& b) {
  if (a.verdict != b.verdict || a.params.has_value() != b.params.has_value() ||
      !same_bits(a.expected_t_star_us, b.expected_t_star_us)) {
    return false;
  }
  return !a.params || (same_bits(a.params->k, b.params->k) &&
                       same_bits(a.params->b, b.params->b));
}

/// The holdover discipline's proposal, recomputed from the deque history
/// and the rate memory the model keeps alongside it.
struct HoldoverModel {
  bool has_rate{false};
  double rate{1.0};
  double anchor_t_us{0.0};

  DisciplineResult propose(const std::deque<RefSample>& h,
                           const ClockParams& previous, double t_now_us,
                           double target_us, const SstspConfig& cfg) {
    if (h.size() >= 2) {
      DisciplineResult out = solve_adjustment(previous, t_now_us, h.back(),
                                              h.front(), target_us, cfg);
      if (out.params) {
        rate = (h.back().t_local_us - h.front().t_local_us) /
               (h.back().ts_ref_us - h.front().ts_ref_us);
        anchor_t_us = h.back().t_local_us;
        has_rate = true;
      }
      return out;
    }
    DisciplineResult out;
    const RefSample& s = h.back();
    const double max_age_us =
        static_cast<double>(std::max(1, cfg.discipline.holdover_max_age_bps)) *
        kBpUs;
    if (!has_rate || s.t_local_us - anchor_t_us > max_age_us) {
      out.verdict = DisciplineVerdict::kInsufficientHistory;
      return out;
    }
    const double t_star = s.t_local_us + rate * (target_us - s.ts_ref_us);
    out.expected_t_star_us = t_star;
    if (t_star <= t_now_us) {
      out.verdict = DisciplineVerdict::kTargetNotAhead;
      return out;
    }
    const double c_now = previous.eval(t_now_us);
    const double k = (target_us - c_now) / (t_star - t_now_us);
    if (k < cfg.k_min || k > cfg.k_max) {
      out.verdict = DisciplineVerdict::kSlopeOutOfRange;
      return out;
    }
    out.params = ClockParams{k, c_now - k * t_now_us};
    out.verdict = DisciplineVerdict::kHoldoverCoast;
    return out;
  }
};

TEST(Discipline, SampleRingMatchesTheDequeHistory) {
  for (const std::string name : {"paper", "rls", "holdover"}) {
    for (const int window : {1, 2, 8, 16}) {
      SstspConfig cfg = config_for(name);
      cfg.solver_span_bps = window;
      cfg.discipline.window_bps = std::max(2, window);  // RLS's minimum
      const auto disc = make_discipline(cfg);
      const int w = disc->history_window_bps();
      DequeHistory model{static_cast<std::size_t>(w) + 1,
                         (w + kEpochGapSlackBps) * kBpUs,
                         {}};
      HoldoverModel holdover;
      sim::Rng rng(static_cast<std::uint64_t>(w) * 7919 + name.size());
      double ts = 0.0;
      double t_local = 0.0;
      int epoch_breaks = 0;
      int compared = 0;
      for (int step = 0; step < 3000; ++step) {
        // Mostly one BP apart; some short gaps; some droughts past the
        // age-out horizon, which end a clock epoch.
        const double u = rng.uniform();
        double gap_bps = 1.0;
        if (u < 0.03) {
          gap_bps = w + kEpochGapSlackBps +
                    static_cast<double>(rng.uniform_int(1, 12));
        } else if (u < 0.2) {
          gap_bps = static_cast<double>(
              rng.uniform_int(2, static_cast<std::uint64_t>(w) + 4));
        }
        ts += gap_bps * kBpUs;
        t_local += gap_bps * kBpUs * (1.0 + 35e-6) + rng.uniform(-3.0, 3.0);
        const RefSample sample{t_local, ts};
        (void)disc->add_sample(sample, kBpUs);
        const bool epoch_break = model.add(sample);
        epoch_breaks += epoch_break ? 1 : 0;

        ASSERT_EQ(disc->size(), model.samples.size())
            << name << " window " << w << " step " << step;
        std::size_t i = 0;
        for (const RefSample& r : disc->samples()) {
          ASSERT_TRUE(same_bits(r.t_local_us, model.samples[i].t_local_us) &&
                      same_bits(r.ts_ref_us, model.samples[i].ts_ref_us))
              << name << " window " << w << " step " << step << " at " << i;
          ++i;
        }
        if (disc->size() < disc->min_samples()) continue;

        const ClockParams previous{1.0 + rng.uniform(-1e-5, 1e-5),
                                   rng.uniform(-50.0, 50.0)};
        const double t_now = sample.t_local_us + rng.uniform(1.0, 500.0);
        const double target = sample.ts_ref_us + 3.0 * kBpUs;
        const DisciplineResult got = disc->propose(previous, t_now, target);
        DisciplineResult want;
        if (name == "paper") {
          want = solve_adjustment(previous, t_now, model.samples.back(),
                                  model.samples.front(), target, cfg);
        } else if (name == "holdover") {
          want = holdover.propose(model.samples, previous, t_now, target, cfg);
        } else if (epoch_break) {
          // RLS refits from the survivors, oldest first, when an epoch
          // ends: exactly the state of a fresh RLS fed those survivors.
          const auto fresh = make_discipline(cfg);
          for (const RefSample& r : model.samples) {
            (void)fresh->add_sample(r, kBpUs);
          }
          want = fresh->propose(previous, t_now, target);
        } else {
          continue;
        }
        ASSERT_TRUE(same_result(got, want))
            << name << " window " << w << " step " << step << ": "
            << to_string(got.verdict) << " vs " << to_string(want.verdict);
        ++compared;
      }
      EXPECT_GT(epoch_breaks, 40) << name << " window " << w;
      EXPECT_GT(compared, 40) << name << " window " << w;
    }
  }
}

}  // namespace
}  // namespace sstsp::core

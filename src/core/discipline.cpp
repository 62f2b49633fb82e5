#include "core/discipline.h"

#include <algorithm>
#include <cmath>

namespace sstsp::core {

namespace {

// ---------------------------------------------------------------------------
// "paper" — the §3.3 span solver (the bit-identical default).

class PaperSpanDiscipline final : public ClockDiscipline {
 public:
  explicit PaperSpanDiscipline(const SstspConfig& cfg) : cfg_(cfg) {}

  [[nodiscard]] std::string_view name() const override { return "paper"; }
  [[nodiscard]] int history_window_bps() const override {
    return std::max(1, cfg_.solver_span_bps);
  }

  [[nodiscard]] DisciplineResult propose(const ClockParams& previous,
                                         double t_now_us,
                                         double target_us) override {
    return solve_adjustment(previous, t_now_us, samples_.back(),
                            samples_.front(), target_us, cfg_);
  }

 private:
  const SstspConfig& cfg_;
};

// ---------------------------------------------------------------------------
// "rls" — recursive least squares with forgetting + innovation gating
// (arXiv:1810.05837's Newton adaptive tracker, specialized to the clock
// model).
//
// Model, anchored at the newest sample (rolling anchor):
//
//   y(u) = c + rho*u + alpha*u^2/2
//
//   y  = (ts - ts0) - (t - t0)   residual vs the nominal 1:1 rate, us
//   u  = (t - t0) * 1e-6         local time since the anchor, s
//   c  = offset (us), rho = relative drift (us/s),
//   alpha = drift rate (us/s^2) — the term that keeps the fit from lagging
//   a temperature ramp (an affine fit trails quadratic truth by ~alpha*tau^2
//   where tau is the forgetting memory).
//
// The anchor shifts to every new sample: the state is propagated through the
// polynomial transition T = [[1,du,du^2/2],[0,1,du],[0,0,1]] and the
// covariance through T P T', then a scalar measurement update (regressor
// [1,0,0]) absorbs the new residual.  Anchoring at a fixed first sample
// instead looks simpler but winds up the covariance: once the sample clock
// u dwarfs the forgetting memory, the regressors [1, u, u^2/2] are locally
// collinear, the coefficients wander to huge mutually-cancelling values and
// extrapolation explodes.  The rolling form keeps u within one beacon
// period of zero, so conditioning is independent of run length.
//
// The expected local instant of the convergence target solves
// ts_hat(t*) = target by Newton iteration on u (near-linear, so 2-3 steps
// converge to machine precision).  The (k, b) mapping from (t*, target) is
// the same continuity construction as the paper solver — only the rate
// estimate underneath differs.

class RlsDiscipline final : public ClockDiscipline {
 public:
  explicit RlsDiscipline(const SstspConfig& cfg) : cfg_(cfg) { prime(); }

  [[nodiscard]] std::string_view name() const override { return "rls"; }
  [[nodiscard]] int history_window_bps() const override {
    return std::max(2, cfg_.discipline.window_bps);
  }

  [[nodiscard]] DisciplineResult propose(const ClockParams& previous,
                                         double t_now_us,
                                         double target_us) override {
    DisciplineResult out;
    if (count_ < 2) {
      out.verdict = DisciplineVerdict::kInsufficientHistory;
      return out;
    }
    // Newton: g(u) = 1e6*u + c + rho*u + alpha*u^2/2 - (target - ts0) = 0.
    const double want = target_us - ts0_;
    double u = (t_now_us - t0_) * 1e-6;
    bool bad_slope = false;
    for (int it = 0; it < 3; ++it) {
      const double g = 1e6 * u + th_c_ + th_rho_ * u + 0.5 * th_alpha_ * u * u;
      const double gp = 1e6 + th_rho_ + th_alpha_ * u;  // d(ts)/d(u)
      if (gp <= 0.0) {
        bad_slope = true;
        break;
      }
      u -= (g - want) / gp;
    }
    if (bad_slope) {
      out.verdict = DisciplineVerdict::kNonIncreasingSamples;
      return out;
    }
    const double t_star = t0_ + u * 1e6;
    out.expected_t_star_us = t_star;
    if (t_star <= t_now_us) {
      out.verdict = DisciplineVerdict::kTargetNotAhead;
      return out;
    }
    const double c_now = previous.eval(t_now_us);
    const double k = (target_us - c_now) / (t_star - t_now_us);
    if (k < cfg_.k_min || k > cfg_.k_max) {
      out.verdict = DisciplineVerdict::kSlopeOutOfRange;
      return out;
    }
    out.params = ClockParams{k, c_now - k * t_now_us};
    return out;
  }

 protected:
  std::optional<DisciplineVerdict> on_sample(const RefSample& s) override {
    if (rebuilt_) {  // on_epoch_break already ingested this sample
      rebuilt_ = false;
      return std::nullopt;
    }
    return ingest(s);
  }

  void on_epoch_break() override {
    // History now starts a new clock epoch: refit from the survivors only.
    prime();
    for (const auto& s : samples_) (void)ingest(s);
    rebuilt_ = true;
  }

  void on_reset() override { prime(); }

 private:
  /// Samples the estimator must absorb before the innovation gate arms
  /// (early residuals legitimately carry the whole initial offset).
  static constexpr int kGateMinSamples = 4;

  void prime() {
    count_ = 0;
    th_c_ = th_rho_ = th_alpha_ = 0.0;
    // Diagonal prior: offset sigma ~1e4 us (the coarse guard), drift sigma
    // ~1e3 us/s (5x the 802.11 relative-rate bound), drift-rate sigma
    // ~1e2 us/s^2 (far above any credible thermal ramp).
    p_[0][0] = 1e8;
    p_[1][1] = 1e6;
    p_[2][2] = 1e4;
    p_[0][1] = p_[0][2] = p_[1][2] = 0.0;
    p_[1][0] = p_[2][0] = p_[2][1] = 0.0;
  }

  std::optional<DisciplineVerdict> ingest(const RefSample& s) {
    if (count_ == 0) {
      t0_ = s.t_local_us;
      ts0_ = s.ts_ref_us;
    } else {
      // Shift the expansion point to this sample's (trusted) local time.
      const double dt = s.t_local_us - t0_;
      const double du = dt * 1e-6;
      const double half = 0.5 * du * du;
      th_c_ += th_rho_ * du + th_alpha_ * half;
      th_rho_ += th_alpha_ * du;
      double tp[3][3];  // T * P
      for (int j = 0; j < 3; ++j) {
        tp[0][j] = p_[0][j] + du * p_[1][j] + half * p_[2][j];
        tp[1][j] = p_[1][j] + du * p_[2][j];
        tp[2][j] = p_[2][j];
      }
      for (int i = 0; i < 3; ++i) {  // (T*P) * T'
        p_[i][0] = tp[i][0] + du * tp[i][1] + half * tp[i][2];
        p_[i][1] = tp[i][1] + du * tp[i][2];
        p_[i][2] = tp[i][2];
      }
      ts0_ += dt;
      t0_ = s.t_local_us;
    }
    const double e = (s.ts_ref_us - ts0_) - th_c_;  // innovation at u = 0
    const double gate = cfg_.discipline.innovation_gate_us;
    if (count_ >= kGateMinSamples && gate > 0.0 && std::fabs(e) > gate) {
      return DisciplineVerdict::kInnovationRejected;
    }
    const double lambda = std::clamp(cfg_.discipline.forgetting, 1e-3, 1.0);
    const double denom = lambda + p_[0][0];
    const double gain[3] = {p_[0][0] / denom, p_[1][0] / denom,
                            p_[2][0] / denom};
    th_c_ += gain[0] * e;
    th_rho_ += gain[1] * e;
    th_alpha_ += gain[2] * e;
    for (int i = 0; i < 3; ++i) {
      const double phi_p = p_[0][i];  // (phi' P)[i] before the update
      for (int j = 0; j < 3; ++j) {
        p_[j][i] = (p_[j][i] - gain[j] * phi_p) / lambda;
      }
    }
    ++count_;
    return std::nullopt;
  }

  const SstspConfig& cfg_;
  int count_{0};
  bool rebuilt_{false};
  double t0_{0.0}, ts0_{0.0};
  // offset (us), relative drift (us/s), drift rate (us/s^2)
  double th_c_{0.0}, th_rho_{0.0}, th_alpha_{0.0};
  double p_[3][3]{};
};

// ---------------------------------------------------------------------------
// "holdover" — the paper solver plus drift-rate memory.  When a beacon
// drought ages the history out (one fresh sample left), it re-anchors on
// that sample and coasts on the last fitted hw-per-reference rate instead
// of waiting a further beacon period for a second point.

class HoldoverDiscipline final : public ClockDiscipline {
 public:
  explicit HoldoverDiscipline(const SstspConfig& cfg) : cfg_(cfg) {}

  [[nodiscard]] std::string_view name() const override { return "holdover"; }
  [[nodiscard]] int history_window_bps() const override {
    return std::max(1, cfg_.solver_span_bps);
  }
  [[nodiscard]] std::size_t min_samples() const override { return 1; }

  [[nodiscard]] DisciplineResult propose(const ClockParams& previous,
                                         double t_now_us,
                                         double target_us) override {
    if (samples_.size() >= 2) {
      DisciplineResult out =
          solve_adjustment(previous, t_now_us, samples_.back(),
                           samples_.front(), target_us, cfg_);
      if (out.params) {
        const RefSample& a = samples_.back();
        const RefSample& b = samples_.front();
        rate_ = (a.t_local_us - b.t_local_us) / (a.ts_ref_us - b.ts_ref_us);
        rate_anchor_t_us_ = a.t_local_us;
        has_rate_ = true;
      }
      return out;
    }

    DisciplineResult out;
    const RefSample& s = samples_.back();
    const double max_age_us =
        static_cast<double>(std::max(1, cfg_.discipline.holdover_max_age_bps)) *
        last_bp_us_;
    if (!has_rate_ || last_bp_us_ <= 0.0 ||
        s.t_local_us - rate_anchor_t_us_ > max_age_us) {
      out.verdict = DisciplineVerdict::kInsufficientHistory;
      return out;
    }
    const double t_star = s.t_local_us + rate_ * (target_us - s.ts_ref_us);
    out.expected_t_star_us = t_star;
    if (t_star <= t_now_us) {
      out.verdict = DisciplineVerdict::kTargetNotAhead;
      return out;
    }
    const double c_now = previous.eval(t_now_us);
    const double k = (target_us - c_now) / (t_star - t_now_us);
    if (k < cfg_.k_min || k > cfg_.k_max) {
      out.verdict = DisciplineVerdict::kSlopeOutOfRange;
      return out;
    }
    out.params = ClockParams{k, c_now - k * t_now_us};
    out.verdict = DisciplineVerdict::kHoldoverCoast;
    return out;
  }

 protected:
  std::optional<DisciplineVerdict> on_sample(const RefSample&) override {
    // Rate memory survives epoch breaks on purpose — a drought is exactly
    // when the remembered rate earns its keep.
    return std::nullopt;
  }

 private:
  const SstspConfig& cfg_;
  bool has_rate_{false};
  double rate_{1.0};  // hw us per reference us, from the last good solve
  double rate_anchor_t_us_{0.0};
};

}  // namespace

// ---------------------------------------------------------------------------
// Base-class history management.

std::optional<DisciplineVerdict> ClockDiscipline::add_sample(
    const RefSample& sample, double bp_us) {
  last_bp_us_ = bp_us;
  const int window = std::max(1, history_window_bps());
  if (samples_.capacity() == 0) {
    samples_ = obs::Ring<RefSample>(static_cast<std::size_t>(window) + 1);
  }
  samples_.push_back(sample);  // a full ring drops its oldest sample
  const double max_age_us =
      (static_cast<double>(window) + kEpochGapSlackBps) * bp_us;
  bool epoch_break = false;
  while (samples_.size() > 1 &&
         samples_.back().t_local_us - samples_.front().t_local_us >
             max_age_us) {
    samples_.pop_front();
    epoch_break = true;
  }
  if (epoch_break) on_epoch_break();
  return on_sample(sample);
}

void ClockDiscipline::reset() {
  samples_.clear();
  on_reset();
}

// ---------------------------------------------------------------------------
// Factory + config plumbing.

std::unique_ptr<ClockDiscipline> make_discipline(const SstspConfig& cfg) {
  const std::string_view name = cfg.discipline.effective_name();
  if (name == "rls") return std::make_unique<RlsDiscipline>(cfg);
  if (name == "holdover") return std::make_unique<HoldoverDiscipline>(cfg);
  return std::make_unique<PaperSpanDiscipline>(cfg);
}

bool discipline_known(std::string_view name) {
  const auto& names = discipline_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

const std::vector<std::string_view>& discipline_names() {
  static const std::vector<std::string_view> names{"paper", "rls",
                                                   "holdover"};
  return names;
}

const std::vector<std::string>& discipline_verdict_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    v.reserve(kDisciplineVerdictCount);
    for (std::size_t i = 0; i < kDisciplineVerdictCount; ++i) {
      v.emplace_back(to_string(static_cast<DisciplineVerdict>(i)));
    }
    return v;
  }();
  return names;
}

bool apply_discipline_json(const obs::json::Value& value, SstspConfig* cfg,
                           std::string* error) {
  if (!value.is_object()) {
    if (value.is_string() && discipline_known(value.string)) {
      cfg->discipline.name = value.string;
      return true;
    }
    if (error != nullptr) {
      *error = obs::json::error_at(
          value, "discipline",
          value.is_string() ? "unknown discipline '" + value.string +
                                  "' (have: paper, rls, holdover)"
                            : "expected a name string or an object");
    }
    return false;
  }
  obs::json::Reader in(value, "discipline", error);
  in.string("name", &cfg->discipline.name, discipline_names())
      .integer("span", &cfg->solver_span_bps, 1, 1000000)
      .number("k-min", &cfg->k_min, 0.0, 10.0)
      .number("k-max", &cfg->k_max, 0.0, 10.0)
      .integer("window", &cfg->discipline.window_bps, 2, 1000000)
      .number("forgetting", &cfg->discipline.forgetting, 1e-3, 1.0)
      .number("innovation-gate", &cfg->discipline.innovation_gate_us, 0.0, 1e9)
      .integer("holdover-max-age", &cfg->discipline.holdover_max_age_bps, 1,
               1000000);
  if (in.done() && cfg->k_min > cfg->k_max) {
    in.fail(value, "discipline", "k-min must not exceed k-max");
  }
  return in.ok();
}

}  // namespace sstsp::core

// Phase-sampling profiler: low-overhead, always-on-capable.
//
// Where the scoped Profiler charges exact exclusive time per span edge, the
// sampler observes the run at a fixed interval and aggregates what it sees
// into the metrics registry — cheap enough to leave on in production-style
// runs.  The sharded kernel runs one per shard, on that shard's queue.
//
// Two modes:
//   * Sim (virtual-time tick): Simulator::step() calls on_dispatch() for
//     every event — one double compare when no sample is due.  When the
//     virtual clock crosses the next interval boundary the sampler records
//     event-queue depth, events-per-interval, and (when a Profiler is
//     attached) per-phase self-time deltas into registry histograms.  The
//     tick schedule is pure virtual time, so enabling the sampler adds NO
//     simulator events and NO RNG draws: seeded runs stay byte-identical
//     on every other output.
//   * Live (ITIMER_PROF / SIGPROF): a classic statistical profiler.  The
//     signal handler reads the Profiler's atomic current phase and bumps a
//     per-phase atomic hit counter — nothing else, so it is async-signal-
//     safe.  ITIMER_PROF counts process CPU time, so a reactor blocked in
//     ppoll() accrues no hits; idle time is covered by the reactor's own
//     wait-vs-work accounting (net::Reactor::wait_ns/work_ns), published
//     alongside.  publish_live() folds the handler's atomics into registry
//     counters from the reactor thread.
//
// Metrics written (all under Options::prefix, default "sampler"):
//   <p>.samples                  counter   sim-mode samples taken
//   <p>.queue_depth              histogram pending events at each sample
//   <p>.events_per_sample        histogram events dispatched per interval
//   <p>.phase_self_us.<phase>    histogram per-interval self time (µs)
//   <p>.hits.<phase> / <p>.hits.idle  counter  live-mode SIGPROF hits
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/profiler.h"

namespace sstsp::obs {

class PhaseSampler {
 public:
  struct Options {
    /// Sampling period: virtual seconds in sim mode, CPU seconds (itimer)
    /// in live mode.  Default ~1 kHz.
    double interval_s{0.001};
    /// Metric-name prefix.
    std::string prefix{"sampler"};
  };

  PhaseSampler(const Options& options, Registry& registry);
  ~PhaseSampler();

  PhaseSampler(const PhaseSampler&) = delete;
  PhaseSampler& operator=(const PhaseSampler&) = delete;

  /// Optional: with a profiler attached, sim samples record per-phase
  /// self-time deltas and live samples attribute hits to phases.
  void attach_profiler(const Profiler* profiler) { profiler_ = profiler; }

  /// Sim-mode hook, called by Simulator::step() for every event.  Cost when
  /// no sample is due: an increment and a double compare.
  void on_dispatch(double now_s, std::uint64_t queue_depth) {
    ++events_;
    if (now_s < next_s_) return;
    sample(now_s, queue_depth);
  }

  /// Installs the SIGPROF handler and arms ITIMER_PROF.  At most one live
  /// sampler per process; false + *error when another is already armed (or
  /// the syscalls fail).
  [[nodiscard]] bool start_live(std::string* error);
  /// Disarms the timer and restores the previous handler.  Idempotent;
  /// also run by the destructor.
  void stop_live();
  /// Folds the handler's atomic hit counts into the registry counters.
  /// Call from the owning (reactor) thread, e.g. on each telemetry tick
  /// and once before snapshotting.
  void publish_live();

  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  [[nodiscard]] bool live() const { return live_; }
  [[nodiscard]] const Options& options() const { return opt_; }

 private:
  static void sigprof_handler(int);
  void sample(double now_s, std::uint64_t queue_depth);

  Options opt_;
  const Profiler* profiler_{nullptr};

  // Sim mode.
  double next_s_;
  std::uint64_t events_{0};
  std::uint64_t prev_events_{0};
  std::uint64_t samples_{0};
  std::array<std::uint64_t, kPhaseCount> prev_phase_ns_{};

  // Registry handles, resolved once at construction.
  Counter* samples_total_;
  Histogram* queue_depth_hist_;
  Histogram* events_per_sample_hist_;
  std::array<Histogram*, kPhaseCount> phase_self_hist_{};
  std::array<Counter*, kPhaseCount + 1> hit_counters_{};  // +1: idle

  // Live mode.  hits_ is written by the signal handler (relaxed atomics
  // only), drained by publish_live() on the reactor thread.
  bool live_{false};
  std::array<std::atomic<std::uint64_t>, kPhaseCount + 1> hits_{};
  std::array<std::uint64_t, kPhaseCount + 1> published_{};
};

}  // namespace sstsp::obs

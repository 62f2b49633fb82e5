#include "sim/shard_exec.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <exception>
#include <thread>

namespace sstsp::sim {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Central barrier: an arrival count plus a generation.  The last arrival
/// runs the serial step and then bumps the generation; the others spin
/// briefly, then park on it.  Every thread's work before arriving happens
/// before the serial step, which happens before every thread's return.
/// All orders are seq_cst: notify_all skips the wake-up when it sees no
/// parked thread, so a thread parking meanwhile must see the new
/// generation, which a release store does not ensure.
class Barrier {
 public:
  explicit Barrier(int threads) : threads_(threads) {}

  template <typename Serial>
  void arrive_and_wait(const Serial& serial) {
    const std::uint32_t gen = generation_;
    if (++arrived_ == threads_) {
      serial();
      arrived_ = 0;
      generation_ = gen + 1;
      generation_.notify_all();
      return;
    }
    for (int spin = 0; spin < 4096; ++spin) {
      if (generation_ != gen) return;
    }
    while (generation_ == gen) generation_.wait(gen);
  }

 private:
  const int threads_;
  std::atomic<int> arrived_{0};
  std::atomic<std::uint32_t> generation_{0};
};

}  // namespace

double ShardWallStats::imbalance() const {
  if (busy_ns.empty()) return 1.0;
  std::uint64_t total = 0;
  std::uint64_t peak = 0;
  for (const std::uint64_t b : busy_ns) {
    total += b;
    peak = std::max(peak, b);
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(busy_ns.size());
  return static_cast<double>(peak) / mean;
}

std::uint64_t ShardWallStats::barrier_wait_ns(std::size_t shard) const {
  const auto stride = static_cast<std::size_t>(threads);
  std::uint64_t busy = 0;
  for (std::size_t s = shard % stride; s < busy_ns.size(); s += stride) {
    busy += busy_ns[s];
  }
  return phase_wall_ns > busy ? phase_wall_ns - busy : 0;
}

ShardExecutor::ShardExecutor(const Options& opt, std::uint64_t seed)
    : lookahead_(opt.lookahead), threads_(std::min(opt.threads, opt.shards)) {
  assert(opt.shards >= 1);
  assert(opt.threads >= 1);
  assert(lookahead_ > SimTime::zero());
  shards_.reserve(static_cast<std::size_t>(opt.shards));
  for (int s = 0; s < opt.shards; ++s) {
    shards_.push_back(std::make_unique<Simulator>(seed));
  }
  control_ = std::make_unique<Simulator>(seed);
}

void ShardExecutor::run(SimTime horizon, const ExchangeFn& exchange,
                        const SettleFn& settle, const CommitFn& commit) {
  // Events scheduled exactly at the horizon must still fire (run_until is
  // inclusive), so the open upper bound of the last window is horizon + 1.
  const SimTime cap = horizon + SimTime{1};
  assert(exchange && settle && commit);

  // Written by the serial steps only and read by every thread after the
  // barrier that publishes them; errors[t] is written by thread t.
  SimTime end;
  bool control_due = false;
  bool stop = false;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads_));
  std::uint64_t phase_t0 = collect_wall_ ? now_ns() : 0;

  const auto plan = [&] {
    SimTime t_min = SimTime::never();
    for (const auto& sh : shards_) {
      t_min = std::min(t_min, sh->next_event_time());
    }
    const SimTime next_control = control_->next_event_time();
    if (t_min > horizon && next_control > horizon) {
      stop = true;
      return;
    }
    end = cap;
    if (t_min < SimTime::never() && t_min + lookahead_ < end) {
      end = t_min + lookahead_;
    }
    if (next_control < end) end = next_control;
    control_due = next_control == end && next_control <= horizon;
  };

  // Thread t's part of a parallel phase: the shards it owns.
  const auto phase = [&](int t, const auto& fn) {
    try {
      for (int s = t; s < shard_count(); s += threads_) {
        const std::uint64_t t0 = collect_wall_ ? now_ns() : 0;
        fn(s);
        if (collect_wall_) {
          wall_stats_.busy_ns[static_cast<std::size_t>(s)] += now_ns() - t0;
        }
      }
    } catch (...) {
      errors[static_cast<std::size_t>(t)] = std::current_exception();
    }
  };

  // The barrier after a phase.  Its last arrival, thread t, closes the
  // phase's wall time and runs the serial `step` unless a thread has
  // failed.  Returns false once the run stops.
  Barrier barrier(threads_);
  const auto sync = [&](int t, const auto& step) {
    barrier.arrive_and_wait([&] {
      if (collect_wall_) wall_stats_.phase_wall_ns += now_ns() - phase_t0;
      for (const std::exception_ptr& e : errors) stop = stop || e != nullptr;
      if (stop) return;
      try {
        step();
      } catch (...) {
        errors[static_cast<std::size_t>(t)] = std::current_exception();
        stop = true;
      }
      if (collect_wall_) phase_t0 = now_ns();
    });
    return !stop;
  };

  const auto window_loop = [&](int t) {
    while (!stop) {
      phase(t, [&](int s) {
        Simulator& sim = *shards_[static_cast<std::size_t>(s)];
        while (sim.next_event_time() < end) sim.step();
      });
      if (!sync(t, [&] { exchange(end); })) return;
      phase(t, [&](int s) { settle(s, end); });
      sync(t, [&] {
        commit(end);
        // Control events due exactly at the window edge run with every
        // shard clock lined up, so their callbacks read a consistent now().
        if (control_due) {
          for (const auto& sh : shards_) sh->advance_to(end);
          control_->run_until(end);
        }
        ++windows_;
        plan();
      });
    }
  };

  plan();
  {
    // Workers start once every thread exists, so a failed spawn stops the
    // run before any of them reaches the barrier.
    std::atomic<bool> go{false};
    std::vector<std::jthread> workers;
    try {
      for (int t = 1; t < threads_ && !stop; ++t) {
        workers.emplace_back([&, t] {
          go.wait(false);
          window_loop(t);
        });
      }
    } catch (...) {
      errors[0] = std::current_exception();
      stop = true;
    }
    go = true;
    go.notify_all();
    window_loop(0);
  }  // joins every worker
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::uint64_t ShardExecutor::total_events() const {
  std::uint64_t total = control_->events_processed();
  for (const auto& sh : shards_) total += sh->events_processed();
  return total;
}

void ShardExecutor::set_collect_wall_stats(bool on) {
  collect_wall_ = on;
  if (on && wall_stats_.busy_ns.empty()) {
    wall_stats_.busy_ns.assign(shards_.size(), 0);
    wall_stats_.threads = threads_;
  }
}

}  // namespace sstsp::sim

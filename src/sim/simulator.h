// Discrete-event simulation driver.
//
// Owns the master clock and the event queue; everything else in the library
// (channel, stations, attackers, metric probes) schedules callbacks here.
// The simulator is strictly single-threaded per instance — parallelism in
// this project lives one level up: run::run_sweep runs independent
// scenarios, one Simulator each, on worker threads (no shared mutable
// state), and sim::ShardExecutor advances one Simulator per shard of a
// single run in lockstep windows (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "obs/profiler.h"
#include "obs/sampler.h"
#include "sim/delivery_batch.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time_types.h"

namespace sstsp::obs {
class Instruments;
}  // namespace sstsp::obs

namespace sstsp::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : root_rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `at`; clamps scheduling into the past
  /// to `now` (fires next, preserving causality).  `fn` is any void()
  /// callable that fits EventQueue::Callback; it is constructed straight
  /// into the queue's slot.
  template <class F>
  EventId at(SimTime when, F&& fn) {
    if (when < now_) when = now_;
    return queue_.schedule(when, std::forward<F>(fn));
  }

  /// Schedules `fn` after a relative delay from now.
  template <class F>
  EventId after(SimTime delay, F&& fn) {
    return at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules every entry of `batch` as if by one at(entry.at, ...) call
  /// per entry, in entry order, with the past clamped to now: same
  /// sequence numbers, same dispatch order, one event each in
  /// events_processed() and events_pending() (delivery_batch.h).
  void schedule_batch(std::unique_ptr<DeliveryBatch> batch) {
    queue_.schedule_batch(now_, std::move(batch));
  }

  /// Schedules `owner.on_tick()` at `when`, with the past clamped to
  /// now: a station's per-beacon-period timer.  It takes the sequence
  /// number and dispatch rank of the at() call it stands for, counts as
  /// one event, and cancel() takes its id; but it waits in a tick run,
  /// not in a heap entry of its own (event_queue.h).
  EventId tick_at(SimTime when, TickOwner& owner) {
    if (when < now_) when = now_;
    return queue_.schedule_tick(when, owner);
  }

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs events until the queue drains or the horizon is passed.  Events
  /// scheduled exactly at the horizon still fire.
  void run_until(SimTime horizon);

  /// Runs a single event if one is pending before or at `horizon`.
  /// Returns false when nothing fired.
  bool step(SimTime horizon = SimTime::never());

  /// Moves the clock forward to `t` without dispatching anything; no-op when
  /// t <= now.  Used by the sharded kernel (sim::ShardExecutor) to line all
  /// shard clocks up on a window barrier before control-timeline events run,
  /// so callbacks that read now() observe the barrier instant and not the
  /// shard's last-dispatched event time.  Precondition: no pending event is
  /// earlier than `t` (the window scheduler guarantees this).
  void advance_to(SimTime t) {
    if (t > now_) now_ = t;
  }

  /// Time of the earliest pending event, SimTime::never() when the queue is
  /// empty.  Used by the live-stack reactor (net::Reactor) to compute how
  /// long it may sleep in poll() before the next timer is due.  Non-const
  /// because the queue compacts cancelled heads as a side effect.
  [[nodiscard]] SimTime next_event_time() { return queue_.next_time(); }

  [[nodiscard]] std::size_t events_processed() const { return processed_; }
  [[nodiscard]] std::size_t events_pending() const { return queue_.size(); }

  /// A stream derived from the scenario's root RNG; consumers draw from
  /// substreams, never from the root (see sim::Rng::substream).
  [[nodiscard]] Rng substream(std::string_view label,
                              std::uint64_t index) const {
    return root_rng_.substream(label, index);
  }

  /// Observability hooks (both may be nullptr, the default): the profiler
  /// wraps every dispatched callback in an event-dispatch span; the
  /// instruments record the queue depth seen at each dispatch.
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }
  [[nodiscard]] obs::Profiler* profiler() const { return profiler_; }
  void set_instruments(obs::Instruments* instruments) {
    instruments_ = instruments;
  }

  /// Phase-sampler hook (may be nullptr, the default): ticked once per
  /// dispatched event with the virtual time and queue depth; the sampler
  /// itself decides when a tick becomes a sample (obs/sampler.h).
  void set_phase_sampler(obs::PhaseSampler* sampler) { sampler_ = sampler; }

 private:
  EventQueue queue_;
  SimTime now_{SimTime::zero()};
  Rng root_rng_;
  std::size_t processed_{0};
  obs::Profiler* profiler_{nullptr};
  obs::Instruments* instruments_{nullptr};
  obs::PhaseSampler* sampler_{nullptr};
};

}  // namespace sstsp::sim

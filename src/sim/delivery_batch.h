// One transmission's receptions, scheduled as one event-queue entry.
//
// A broadcast frame reaches every station in range, each at its own
// delivery instant.  Scheduling each reception as its own event would cost
// one heap push and pop per receiver.  A DeliveryBatch carries them all:
// Simulator::schedule_batch reserves the consecutive sequence numbers that
// one Simulator::at call per entry, in entry order, would have taken, sorts
// the entries by (time, sequence) with the queue's shared run sort
// (run_sort.h), and keeps only the earliest in the heap.  When it fires,
// the queue re-keys the batch to its next entry in place.  So the global
// (time, sequence) dispatch order is the same, event for event, as with
// one at() per entry; every entry still counts as one event in
// events_processed(), events_pending() and next_event_time().  Station
// timers travel the same way in tick runs (event_queue.h).
//
// Entries cannot be cancelled; a subclass decides, when an entry fires,
// whether it still applies (a channel checks that the receiver listens).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/run_sort.h"
#include "sim/time_types.h"

namespace sstsp::sim {

class DeliveryBatch {
 public:
  struct Entry {
    SimTime at;               ///< delivery instant (before clamping to now)
    std::uint32_t receiver;   ///< the subclass's receiver index
    std::uint32_t copy;       ///< which version of the payload (subclass's)
  };

  virtual ~DeliveryBatch() = default;
  DeliveryBatch(const DeliveryBatch&) = delete;
  DeliveryBatch& operator=(const DeliveryBatch&) = delete;

  /// Appends an entry.  Entries that fire at the same instant fire in the
  /// order they were added.
  void add(SimTime at, std::uint32_t receiver, std::uint32_t copy = 0) {
    entries_.push_back(Entry{at, receiver, copy});
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 protected:
  explicit DeliveryBatch(std::size_t expected) { entries_.reserve(expected); }

  /// Runs one entry at its instant, as an event: it may schedule, cancel
  /// and start new batches.
  virtual void deliver(const Entry& entry) = 0;

 private:
  friend class EventQueue;

  /// Fixes the firing order: entry i fires at max(at, floor) with sequence
  /// number first_seq + i.  `order` is an empty buffer that becomes the
  /// firing order; `scratch` is the queue's sort scratch.  Called once, by
  /// EventQueue::schedule_batch, which takes `order` back when the batch
  /// is done.
  void arm(SimTime floor, std::uint64_t first_seq,
           std::vector<std::uint32_t> order,
           std::vector<std::uint32_t>& scratch);

  [[nodiscard]] SimTime fire_time(std::size_t i) const {
    return entries_[i].at < floor_ ? floor_ : entries_[i].at;
  }

  std::vector<Entry> entries_;  ///< in the order added
  FiringOrder order_;           ///< entry indices in firing order
  SimTime floor_;
  std::uint64_t first_seq_{0};
};

}  // namespace sstsp::sim

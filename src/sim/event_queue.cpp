#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/run_sort.h"

namespace sstsp::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].cancelled = false;
    slots_[slot].in_use = true;
    return slot;
  }
  Slot& fresh = slots_.emplace_back();
  fresh.in_use = true;
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  ++slots_[slot].generation;  // invalidate every outstanding id for the slot
  slots_[slot].in_use = false;
  slots_[slot].cancelled = false;
  free_slots_.push_back(slot);
}

std::uint32_t EventQueue::acquire_tick() {
  if (!free_ticks_.empty()) {
    const std::uint32_t tick = free_ticks_.back();
    free_ticks_.pop_back();
    ticks_[tick].in_use = true;
    return tick;
  }
  ticks_.emplace_back().in_use = true;
  return static_cast<std::uint32_t>(ticks_.size() - 1);
}

void EventQueue::release_tick(std::uint32_t tick) {
  ++ticks_[tick].generation;  // invalidate every outstanding id for it
  ticks_[tick].in_use = false;
  ticks_[tick].cancelled = false;
  free_ticks_.push_back(tick);
}

void EventQueue::push_key(Key key) {
  std::size_t hole = heap_.size();
  heap_.push_back(key);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!before(key, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
}

EventQueue::Key EventQueue::pop_top() {
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) replace_top(last);
  return top;
}

void EventQueue::replace_top(Key key) {
  // Sift `key` down from the root: move the least child up while it
  // orders before `key`.
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = hole * kArity + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t least = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[least])) least = c;
    }
    if (!before(heap_[least], key)) break;
    heap_[hole] = heap_[least];
    hole = least;
  }
  heap_[hole] = key;
}

EventQueue::Key EventQueue::batch_key(std::uint32_t index) const {
  const DeliveryBatch& batch = *batches_[index];
  const std::uint32_t head = batch.order_.head();
  return Key{batch.fire_time(head), batch.first_seq_ + head,
             index | kBatchBit};
}

EventQueue::Key EventQueue::run_key(std::uint32_t index) const {
  const Tick& tick = ticks_[runs_[index].head()];
  return Key{tick.at, tick.seq, index | kRunBit};
}

std::vector<std::uint32_t> EventQueue::spare_order() {
  if (spare_orders_.empty()) return {};
  std::vector<std::uint32_t> order = std::move(spare_orders_.back());
  spare_orders_.pop_back();
  return order;
}

template <class NextKey>
bool EventQueue::advance_head(FiringOrder& order, NextKey next_key) {
  if (++order.next < order.indices.size()) {
    replace_top(next_key());
    return false;
  }
  pop_top();
  order.indices.clear();  // keeps its capacity for the next one
  order.next = 0;
  spare_orders_.push_back(std::move(order.indices));
  return true;
}

void EventQueue::schedule_batch(SimTime floor,
                                std::unique_ptr<DeliveryBatch> batch) {
  if (batch->empty()) return;
  batch->arm(floor, next_seq_, spare_order(), sort_scratch_);
  next_seq_ += batch->size();
  live_ += batch->size();
  std::uint32_t index;
  if (free_batches_.empty()) {
    index = static_cast<std::uint32_t>(batches_.size());
    batches_.push_back(std::move(batch));
  } else {
    index = free_batches_.back();
    free_batches_.pop_back();
    batches_[index] = std::move(batch);
  }
  push_key(batch_key(index));
}

EventId EventQueue::schedule_tick(SimTime at, TickOwner& owner) {
  const std::uint32_t index = acquire_tick();
  Tick& tick = ticks_[index];
  tick.at = at;
  tick.seq = next_seq_++;
  tick.owner = &owner;
  // Sequence numbers rise along the list, so only a strictly earlier time
  // makes a new minimum.
  if (pending_.empty() || at < pending_min_.time) {
    pending_min_ = Key{at, tick.seq, kPendingMin};
    push_key(pending_min_);
  }
  pending_.push_back(index);
  ++live_;
  return make_id(index | kTickIdBit, tick.generation);
}

namespace {
/// cancel() for a Slot or a Tick: both carry a generation and a tombstone.
template <class Entry>
bool tombstone(std::vector<Entry>& entries, std::uint32_t index,
               std::uint32_t generation) {
  if (index >= entries.size()) return false;
  Entry& e = entries[index];
  if (!e.in_use || e.generation != generation || e.cancelled) {
    return false;  // fired, cancelled, or never existed
  }
  e.cancelled = true;
  return true;
}
}  // namespace

bool EventQueue::cancel(EventId id) {
  if (id == 0) return false;
  const auto low = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  const std::uint32_t index = (low & ~kTickIdBit) - 1;
  const bool done = (low & kTickIdBit) != 0
                        ? tombstone(ticks_, index, generation)
                        : tombstone(slots_, index, generation);
  if (done) --live_;
  return done;
}

void EventQueue::advance_run(std::uint32_t index) {
  if (advance_head(runs_[index], [this, index] { return run_key(index); })) {
    free_runs_.push_back(index);
  }
}

void EventQueue::arm_pending() {
  // Drop the cancelled ticks and measure the span of the rest.
  SimTime lo = SimTime::never();
  SimTime hi = SimTime::zero();
  std::size_t kept = 0;
  for (const std::uint32_t t : pending_) {
    if (ticks_[t].cancelled) {
      release_tick(t);
      continue;
    }
    lo = std::min(lo, ticks_[t].at);
    hi = std::max(hi, ticks_[t].at);
    pending_[kept++] = t;
  }
  pending_.resize(kept);
  if (kept == 0) return;

  std::uint32_t index;
  if (free_runs_.empty()) {
    index = static_cast<std::uint32_t>(runs_.size());
    runs_.emplace_back();
  } else {
    index = free_runs_.back();
    free_runs_.pop_back();
  }
  FiringOrder& run = runs_[index];
  run.indices = std::move(pending_);
  pending_ = spare_order();
  sort_run(run.indices, sort_scratch_,
           static_cast<std::uint64_t>((hi - lo).ps),
           [this, lo](std::uint32_t t) {
             return static_cast<std::uint64_t>((ticks_[t].at - lo).ps);
           });
  push_key(run_key(index));
}

void EventQueue::settle_head() {
  while (!heap_.empty()) {
    const Key& head = heap_.front();
    switch (head.slot & kKindMask) {
      case kBatchBit:
        return;  // batch entries cannot be cancelled
      case kRunBit: {
        const std::uint32_t index = head.slot & kIndexMask;
        const std::uint32_t tick = runs_[index].head();
        if (!ticks_[tick].cancelled) return;
        release_tick(tick);
        advance_run(index);
        break;
      }
      case kPendingMin: {
        // The current minimum's tick may have been cancelled since; then
        // the list arms early, which is harmless.  A run's head is live.
        const bool current = !pending_.empty() && head.seq == pending_min_.seq;
        pop_top();
        if (current) arm_pending();
        break;
      }
      default: {
        const std::uint32_t slot = head.slot;
        if (!slots_[slot].cancelled) return;
        pop_top();
        // Destroy the callback only once the queue is consistent again: its
        // captures' destructors may schedule or cancel.
        Callback dead = std::move(slots_[slot].fn);
        release_slot(slot);
        break;
      }
    }
  }
}

SimTime EventQueue::next_time() {
  settle_head();
  return heap_.empty() ? SimTime::never() : heap_.front().time;
}

EventQueue::Fired EventQueue::pop_due(SimTime horizon) {
  settle_head();
  if (heap_.empty() || heap_.front().time > horizon) return Fired{};
  const Key key = heap_.front();
  --live_;
  switch (key.slot & kKindMask) {
    case kBatchBit:
      return take_batch_entry(key);
    case kRunBit:
      return take_tick(key);
    default:
      return take_callback(key);
  }
}

EventQueue::Fired EventQueue::take_callback(Key key) {
  pop_top();
  Slot& s = slots_[key.slot];
  Fired fired{key.time, make_id(key.slot, s.generation), std::move(s.fn)};
  release_slot(key.slot);
  return fired;
}

EventQueue::Fired EventQueue::take_batch_entry(Key key) {
  // Re-key the batch to its next entry before this one runs, so the queue
  // is consistent when the entry's handler schedules.
  const std::uint32_t index = key.slot & kIndexMask;
  DeliveryBatch& batch = *batches_[index];
  Fired fired{key.time, 0, {}, &batch, batch.entries_[batch.order_.head()]};
  if (advance_head(batch.order_, [this, index] { return batch_key(index); })) {
    fired.last = std::move(batches_[index]);
    free_batches_.push_back(index);
  }
  return fired;
}

EventQueue::Fired EventQueue::take_tick(Key key) {
  const std::uint32_t index = key.slot & kIndexMask;
  const std::uint32_t t = runs_[index].head();
  const Tick& tick = ticks_[t];
  Fired fired{key.time, make_id(t | kTickIdBit, tick.generation), {}};
  fired.owner = tick.owner;
  release_tick(t);
  advance_run(index);
  return fired;
}

EventQueue::Fired EventQueue::pop() {
  assert(!empty() && "pop() on empty EventQueue");
  return pop_due(SimTime::never());
}

}  // namespace sstsp::sim

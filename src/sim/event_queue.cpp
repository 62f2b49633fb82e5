#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

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
  const std::size_t head = batch.head();
  return Key{batch.fire_time(head), batch.first_seq_ + head,
             index | kBatchBit};
}

void EventQueue::schedule_batch(SimTime floor,
                                std::unique_ptr<DeliveryBatch> batch) {
  if (batch->empty()) return;
  batch->arm(floor, next_seq_);
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

bool EventQueue::cancel(EventId id) {
  if (id == 0) return false;
  const auto slot = static_cast<std::uint32_t>((id & 0xFFFFFFFFu) - 1);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.in_use || s.generation != generation || s.cancelled) {
    return false;  // fired, cancelled, or never existed
  }
  s.cancelled = true;
  --live_;
  return true;
}

void EventQueue::drop_cancelled_head() {
  while (!heap_.empty() && (heap_.front().slot & kBatchBit) == 0 &&
         slots_[heap_.front().slot].cancelled) {
    const std::uint32_t slot = pop_top().slot;
    // Destroy the callback only once the queue is consistent again: its
    // captures' destructors may schedule or cancel.
    Callback dead = std::move(slots_[slot].fn);
    release_slot(slot);
  }
}

SimTime EventQueue::next_time() {
  drop_cancelled_head();
  return heap_.empty() ? SimTime::never() : heap_.front().time;
}

EventQueue::Fired EventQueue::pop_due(SimTime horizon) {
  drop_cancelled_head();
  if (heap_.empty() || heap_.front().time > horizon) return Fired{};
  const Key key = heap_.front();
  --live_;
  if ((key.slot & kBatchBit) != 0) return take_batch_entry(key);
  return take_callback(key);
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
  const std::uint32_t index = key.slot & ~kBatchBit;
  DeliveryBatch& batch = *batches_[index];
  Fired fired{key.time, 0, {}, &batch, batch.entries_[batch.head()]};
  ++batch.next_;
  if (!batch.done()) {
    replace_top(batch_key(index));
  } else {
    pop_top();
    fired.last = std::move(batches_[index]);
    free_batches_.push_back(index);
  }
  return fired;
}

EventQueue::Fired EventQueue::pop() {
  assert(!empty() && "pop() on empty EventQueue");
  return pop_due(SimTime::never());
}

}  // namespace sstsp::sim

// Priority event queue for the discrete-event kernel.
//
// Events are ordered by (time, sequence number).  The sequence number gives
// FIFO ordering among simultaneous events, which keeps runs deterministic.
//
// Keys and callbacks live apart.  The heap is a 4-ary min-heap of small
// trivially-copyable keys {time, seq, slot}; a sift moves 24-byte keys and
// never touches a callback.  The callback lives in its slot of a slot vector,
// stored inline (EventQueue::Callback), so scheduling an event allocates
// nothing once the heap and slot vectors have grown to the run's peak depth.
//
// A heap key can also stand for a whole sim::DeliveryBatch (a transmission's
// receptions): the key carries the batch's next entry, and firing that
// entry re-keys the batch to the one after it in place (a sift down from
// the root, not a pop and a push).  A broadcast to n receivers thus costs
// one heap entry, not n, in the same (time, seq) order (delivery_batch.h).
//
// Cancellation is lazy, with no hash tables on the per-event path: the
// EventId handed back to callers packs (slot index, generation).  cancel()
// flips a tombstone bit in the slot (O(1)); a tombstoned key is discarded
// when it reaches the head (pop_due()/next_time() compact cancelled heads
// away), and its callback, with everything it captured, is destroyed then.
// So a pop stays amortized O(log n) and next_time() never degrades to a
// linear scan.  Slot generations are bumped on release, so a stale EventId
// (already fired or cancelled) can never alias a newer event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/delivery_batch.h"
#include "sim/time_types.h"

namespace sstsp::sim {

/// Opaque handle identifying a scheduled event; 0 is never issued.
using EventId = std::uint64_t;

/// Move-only `void()` callable held in fixed inline storage; it never
/// allocates.  A closure larger than kCapacity bytes does not compile:
/// capture a handle (shared_ptr, index, `this`) instead of a large value.
class InlineCallback {
 public:
  /// Fits the largest closures the library schedules (the fault transport's
  /// and sstsp_node's, up to 48 bytes) and keeps EventQueue's slot to one
  /// 64-byte cache line.  Receptions do not come through here: they travel
  /// in a sim::DeliveryBatch.
  static constexpr std::size_t kCapacity = 48;

  InlineCallback() noexcept = default;

  /// Replaces the held callable with `fn`, constructed in place.
  template <class F, class D = std::remove_cvref_t<F>>
    requires std::is_invocable_v<D&>
  void emplace(F&& fn) {
    static_assert(sizeof(D) <= kCapacity,
                  "closure exceeds InlineCallback::kCapacity: capture a "
                  "handle or an index instead of a large value");
    static_assert(alignof(D) <= kAlign, "closure is over-aligned");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "closure must be nothrow move-constructible");
    reset();
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
    ops_ = &kOps<D>;
  }

  InlineCallback(InlineCallback&& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(storage_, other.storage_);
    ops_ = std::exchange(other.ops_, nullptr);
  }
  InlineCallback& operator=(InlineCallback&&) = delete;
  ~InlineCallback() { reset(); }

  /// Precondition: holds a callable.
  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

 private:
  static constexpr std::size_t kAlign = alignof(void*);

  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs *src into dst, then destroys *src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };
  template <class D>
  static constexpr Ops kOps{
      [](void* self) { (*static_cast<D*>(self))(); },
      [](void* dst, void* src) noexcept {
        D& from = *static_cast<D*>(src);
        ::new (dst) D(std::move(from));
        from.~D();
      },
      [](void* self) noexcept { static_cast<D*>(self)->~D(); }};

  /// Destroys the held callable (and what it captured), leaving this empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(kAlign) std::byte storage_[kCapacity];
  const Ops* ops_{nullptr};
};

class EventQueue {
 public:
  using Callback = InlineCallback;

  /// Schedules `fn` to fire at `at`.  Returns a handle usable with cancel().
  /// The callable is constructed straight into its slot.
  template <class F>
  EventId schedule(SimTime at, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    slots_[slot].fn.emplace(std::forward<F>(fn));
    push_key(Key{at, next_seq_++, slot});
    ++live_;
    return make_id(slot, slots_[slot].generation);
  }

  /// Schedules every entry of `batch` as if by one schedule(max(at, floor),
  /// ...) call per entry in entry order: the entries take the next
  /// size() sequence numbers.  Batch entries cannot be cancelled.
  void schedule_batch(SimTime floor, std::unique_ptr<DeliveryBatch> batch);

  /// Cancels a pending event.  Returns false if the event already fired,
  /// was already cancelled, or never existed.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest pending event; SimTime::never() when empty.
  /// Compacts cancelled entries off the heap head as a side effect (which
  /// is why it is not const); amortized O(log n) per cancelled event.
  [[nodiscard]] SimTime next_time();

  /// The earliest pending event, taken off the queue; calling it runs it.
  /// Empty (false) when nothing was due.
  struct Fired {
    SimTime time;
    EventId id{0};  ///< 0 for a batch entry
    Callback fn;    ///< the event's callable; empty for a batch entry
    DeliveryBatch* batch{nullptr};
    DeliveryBatch::Entry entry{};
    /// Keeps the batch alive while its last entry runs.
    std::unique_ptr<DeliveryBatch> last{};

    [[nodiscard]] explicit operator bool() const {
      return batch != nullptr || static_cast<bool>(fn);
    }
    void operator()() {
      if (batch != nullptr) {
        batch->deliver(entry);
      } else {
        fn();
      }
    }
  };

  /// Takes the earliest pending event off the queue if it is due at or
  /// before `horizon`; otherwise returns an empty Fired.  Checks the head
  /// once: the queue is consistent again before the event runs.
  Fired pop_due(SimTime horizon);

  /// Pops the earliest pending event.  Precondition: !empty().
  Fired pop();

 private:
  static constexpr std::size_t kArity = 4;

  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<Key>);

  [[nodiscard]] static bool before(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// Marks a key's `slot` as an index into batches_.
  static constexpr std::uint32_t kBatchBit = std::uint32_t{1} << 31;

  /// One slot per in-heap event, holding its callback.  `generation`
  /// advances every time the slot is released (fired or cancelled entry
  /// popped), invalidating old ids; `cancelled` is the tombstone the heap
  /// head check reads.
  struct Slot {
    Callback fn;
    std::uint32_t generation{0};
    bool cancelled{false};
    bool in_use{false};
  };
  static_assert(sizeof(Slot) <= 64, "a slot fills one cache line at most");

  [[nodiscard]] static EventId make_id(std::uint32_t slot,
                                       std::uint32_t generation) {
    // +1 keeps 0 reserved for "no event" even for slot 0 / generation 0.
    return (static_cast<std::uint64_t>(generation) << 32) |
           (static_cast<std::uint64_t>(slot) + 1);
  }

  /// Heap primitives: push_key sifts a new key up from the end; pop_top
  /// removes and returns the minimum key; replace_top puts `key` in the
  /// minimum's place.  Precondition for the last two: !heap_.empty().
  void push_key(Key key);
  Key pop_top();
  void replace_top(Key key);

  /// The key of batch `index`'s next entry.
  [[nodiscard]] Key batch_key(std::uint32_t index) const;

  /// pop_due's two ways to take the head `key` off (one named result each,
  /// so the returned Fired is built in place).
  Fired take_callback(Key key);
  Fired take_batch_entry(Key key);

  void drop_cancelled_head();
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::unique_ptr<DeliveryBatch>> batches_;
  std::vector<std::uint32_t> free_batches_;
  std::uint64_t next_seq_{0};
  std::size_t live_{0};
};

}  // namespace sstsp::sim

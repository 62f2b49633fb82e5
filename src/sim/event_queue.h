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
// A heap key can also stand for many entries that fire in a known order:
//
//   * a sim::DeliveryBatch (a transmission's receptions, delivery_batch.h);
//   * a tick run: station timers (schedule_tick; a TickOwner's per-beacon-
//     period tick), each a 32-byte Tick record with no callback.  A tick
//     takes its sequence number when scheduled and waits, unsorted, in the
//     pending list, whose earliest (time, seq) stands in the heap as one
//     marker key.  When that marker reaches the head (pop_due, next_time),
//     the list is sorted into a run and keyed into the heap as one entry.
//     Until then the list keeps filling, so one beacon period's ticks
//     usually arm as one run.
//
// Either kind keeps its entries as a FiringOrder (run_sort.h), sorted into
// the (time, seq) order that one heap key per entry would give.  Its key
// carries its next entry, and firing that entry re-keys it to the one
// after it in place (a sift down from the root, not a pop and a push;
// advance_head, shared by both kinds).  Each entry counts as one event in
// size(); so the dispatch order, event for event, is the one schedule()
// per entry gives.  The two kinds keep apart where they differ: a batch
// owns its entries, which cannot be cancelled and whose sequence numbers
// are consecutive, while ticks are records of the queue's own that carry
// their sequence numbers and tombstones.
//
// Cancellation is lazy, with no hash tables on the per-event path: the
// EventId handed back to callers packs (slot index, generation), with a
// flag bit for ticks.  cancel() flips a tombstone bit in the slot or tick
// (O(1)); a tombstoned key or run entry is discarded when it reaches the
// head (pop_due()/next_time() compact cancelled heads away), a tombstoned
// pending tick when its list is sorted, and a callback, with everything it
// captured, is destroyed then.  So a pop stays amortized O(log n) and
// next_time() never degrades to a linear scan.  Slot and tick generations
// are bumped on release, so a stale EventId (already fired or cancelled)
// can never alias a newer event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/delivery_batch.h"
#include "sim/run_sort.h"
#include "sim/time_types.h"

namespace sstsp::sim {

/// Opaque handle identifying a scheduled event; 0 is never issued.
using EventId = std::uint64_t;

/// Owner of a station timer scheduled with EventQueue::schedule_tick (or
/// Simulator::tick_at); the owner must outlive the tick or cancel it.  A
/// tick carries nothing but its owner: what it stands for (an interval
/// index, say) lives in the owner, which has one tick scheduled at a time.
class TickOwner {
 public:
  /// Runs at the tick's instant.
  virtual void on_tick() = 0;

 protected:
  ~TickOwner() = default;
};

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

  /// Schedules `owner.on_tick()` at `at` with the next sequence number,
  /// like schedule(), but as an entry of a tick run (above) instead of a
  /// heap key and slot of its own.  cancel() takes the id.
  EventId schedule_tick(SimTime at, TickOwner& owner);

  /// Cancels a pending event.  Returns false if the event already fired,
  /// was already cancelled, or never existed.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest pending event; SimTime::never() when empty.
  /// Compacts cancelled entries off the heap head and arms a due pending
  /// tick list as side effects (which is why it is not const); amortized
  /// O(log n) per cancelled event.
  [[nodiscard]] SimTime next_time();

  /// The earliest pending event, taken off the queue; calling it runs it.
  /// Empty (false) when nothing was due.
  struct Fired {
    SimTime time;
    EventId id{0};  ///< 0 for a batch entry
    Callback fn;    ///< the event's callable; empty for a batch entry or tick
    DeliveryBatch* batch{nullptr};
    DeliveryBatch::Entry entry{};
    /// Keeps the batch alive while its last entry runs.
    std::unique_ptr<DeliveryBatch> last{};
    TickOwner* owner{nullptr};  ///< set for a tick

    [[nodiscard]] explicit operator bool() const {
      return batch != nullptr || owner != nullptr || static_cast<bool>(fn);
    }
    void operator()() {
      if (batch != nullptr) {
        batch->deliver(entry);
      } else if (owner != nullptr) {
        owner->on_tick();
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

  /// A key's `slot` carries its kind in the top two bits: a callback
  /// slot, an index into batches_ or runs_, or the pending list's minimum
  /// (pending_min_).
  static constexpr std::uint32_t kKindMask = std::uint32_t{3} << 30;
  static constexpr std::uint32_t kBatchBit = std::uint32_t{2} << 30;
  static constexpr std::uint32_t kRunBit = std::uint32_t{1} << 30;
  static constexpr std::uint32_t kPendingMin = kKindMask;
  static constexpr std::uint32_t kIndexMask = ~kKindMask;
  /// Marks an EventId's low word as a tick's.
  static constexpr std::uint32_t kTickIdBit = std::uint32_t{1} << 31;

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

  /// One scheduled tick, pending or in a run; its generation and tombstone
  /// work as a Slot's.
  struct Tick {
    SimTime at;
    std::uint64_t seq{0};
    TickOwner* owner{nullptr};
    std::uint32_t generation{0};
    bool cancelled{false};
    bool in_use{false};
  };
  static_assert(sizeof(Tick) <= 32, "a tick costs half a slot at most");

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

  /// The key of batch `index`'s or run `index`'s next entry.
  [[nodiscard]] Key batch_key(std::uint32_t index) const;
  [[nodiscard]] Key run_key(std::uint32_t index) const;

  /// pop_due's three ways to take the head `key` off (one named result
  /// each, so the returned Fired is built in place).
  Fired take_callback(Key key);
  Fired take_batch_entry(Key key);
  Fired take_tick(Key key);

  /// Moves the batch or run at the heap head, whose firing order is
  /// `order`, past the entry just taken: re-keys it to its next entry
  /// (next_key()), or pops it when that entry was its last, returning the
  /// order's buffer to spare_orders_ and true.
  template <class NextKey>
  bool advance_head(FiringOrder& order, NextKey next_key);

  /// Moves run `index`, at the heap head, past its next tick and frees it
  /// when that was its last.
  void advance_run(std::uint32_t index);

  /// An empty index buffer, with the capacity of a retired order if any.
  std::vector<std::uint32_t> spare_order();

  /// Sorts the pending ticks, less the cancelled ones, into a run and
  /// keys it into the heap.
  void arm_pending();

  /// Readies the heap head for reading: drops cancelled heads and stale
  /// pending-minimum keys, and arms the pending list when its current
  /// minimum key comes up.
  void settle_head();
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  std::uint32_t acquire_tick();
  void release_tick(std::uint32_t tick);

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::unique_ptr<DeliveryBatch>> batches_;
  std::vector<std::uint32_t> free_batches_;
  /// Index buffers of retired batches and runs, for the next ones.
  std::vector<std::vector<std::uint32_t>> spare_orders_;
  std::vector<Tick> ticks_;
  std::vector<std::uint32_t> free_ticks_;
  /// Ticks not yet in a run, in scheduling (so sequence) order, and the
  /// earliest (time, seq) ever added to the list since it was last armed.
  /// The heap holds that minimum as a kPendingMin key; an earlier tick
  /// pushes a new one, and a superseded key is dropped when it comes up.
  std::vector<std::uint32_t> pending_;
  Key pending_min_{};
  /// Armed runs: tick indices (into ticks_) in firing order.
  std::vector<FiringOrder> runs_;
  std::vector<std::uint32_t> free_runs_;
  /// sort_run's working space, shared by batches and runs.
  std::vector<std::uint32_t> sort_scratch_;
  std::uint64_t next_seq_{0};
  std::size_t live_{0};
};

}  // namespace sstsp::sim

// Open-addressing hash map from 64-bit keys, for per-event observer lookups
// (the invariant monitor's chain tips, the beacon lifecycle's open spans).
//
// Linear probing over a power-of-two table kept at most half full, with
// backward-shift erase, so a lookup is one multiply and a short scan of
// adjacent slots and no operation allocates except a doubling.  The table
// is allocated on the first insert.  It has no iteration, so no output can
// depend on its (unspecified) order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sstsp::obs {

template <typename V>
class FlatMap {
 public:
  [[nodiscard]] V* find(std::uint64_t key) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = next(i)) {
      Slot& s = slots_[i];
      if (!s.full) return nullptr;
      if (s.key == key) return &s.value;
    }
  }

  /// Inserts {key, value} unless `key` is present; returns the mapped value
  /// and whether it was inserted (std::map::try_emplace semantics).
  std::pair<V*, bool> try_emplace(std::uint64_t key, V value) {
    if (2 * size_ >= slots_.size()) grow();
    std::size_t i = home(key);
    for (; slots_[i].full; i = next(i)) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
    slots_[i] = Slot{key, std::move(value), true};
    ++size_;
    return {&slots_[i].value, true};
  }

  void insert_or_assign(std::uint64_t key, V value) {
    auto [slot, inserted] = try_emplace(key, value);
    if (!inserted) *slot = std::move(value);
  }

  /// Removes `key` if present.
  void erase(std::uint64_t key) {
    if (size_ == 0) return;
    std::size_t hole = home(key);
    for (;; hole = next(hole)) {
      if (!slots_[hole].full) return;
      if (slots_[hole].key == key) break;
    }
    // Backward shift: pull each later entry of the probe run into the hole
    // unless its home lies cyclically in (hole, j] — where it must stay.
    for (std::size_t j = next(hole); slots_[j].full; j = next(j)) {
      const std::size_t h = home(slots_[j].key);
      const bool stays =
          hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (stays) continue;
      slots_[hole] = std::move(slots_[j]);
      hole = j;
    }
    slots_[hole].full = false;
    --size_;
  }

 private:
  struct Slot {
    std::uint64_t key{0};
    V value{};
    bool full{false};
  };

  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    // Fibonacci hashing: the top bits of the product mix every key bit, so
    // packed id pairs and sequential ids spread evenly.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t size = old.empty() ? 16 : 2 * old.size();
    slots_.assign(size, Slot{});
    shift_ = 64;
    for (std::size_t s = size; s > 1; s >>= 1) --shift_;
    size_ = 0;
    for (Slot& s : old) {
      if (s.full) try_emplace(s.key, std::move(s.value));
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_{0};
  unsigned shift_{64};
};

}  // namespace sstsp::obs

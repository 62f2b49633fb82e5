// The firing order behind the event queue's multi-entry keys, and the
// stable sort that makes it.
//
// A sim::DeliveryBatch (a transmission's receptions) and a tick run (a
// batch of station timers, event_queue.h) each hold entries that were
// given increasing sequence numbers in the order they were added.  So
// their (time, sequence) firing order is a stable sort of the entries by
// firing time, which sort_run computes over entry indices into a
// FiringOrder; the queue keys the order's next entry into its heap.
//
// Above kSmallRun entries it is an LSD radix sort, one byte of the time's
// offset from the run's earliest instant per pass: stable, and it compares
// nothing.  One pass over the run counts every byte position at once, and
// a byte that every entry shares is skipped.  A run of kSmallRun entries
// or fewer is insertion-sorted instead, which costs one step per entry
// and per inversion: a radix sort's fixed cost (256 buckets per pass, up
// to five passes for a beacon period's span) would outweigh the run
// itself.  The choice depends on the run's size only.
//
// The caller owns the scratch buffer, so a warmed-up queue sorts without
// allocating.  The sorted indices always end in `order`'s own storage.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sstsp::sim {

/// Largest run that is insertion-sorted.  Where the two sorts cross
/// depends on how far the input is from sorted (x86-64, gcc -O2, one
/// core): on keys in random order insertion sort is ahead up to 48 entries
/// and radix 3-13 % ahead at 64; with a quarter of random order's
/// inversions they cross near 96.  The runs and batches of 33-64 entries
/// that the benchmark workloads sort carry about 0.4 of random order's
/// inversions, so 64 sits between the two crossovers.
inline constexpr std::size_t kSmallRun = 64;

/// A multi-entry key's entries, as indices in firing order, and the next
/// one to fire.
struct FiringOrder {
  std::vector<std::uint32_t> indices;
  std::size_t next{0};

  /// The next entry to fire; `next` < indices.size().
  [[nodiscard]] std::uint32_t head() const { return indices[next]; }
};

/// Stably sorts the indices in `order` by key(index), a time offset in
/// [0, span] picoseconds.  `scratch` is working space; its contents are
/// overwritten.
template <class KeyFn>
void sort_run(std::vector<std::uint32_t>& order,
              std::vector<std::uint32_t>& scratch, std::uint64_t span,
              KeyFn key) {
  const std::size_t n = order.size();
  if (n <= kSmallRun) {
    // Keys sit beside their indices, so a shift moves 16 bytes and reads
    // no entry.
    std::array<std::pair<std::uint64_t, std::uint32_t>, kSmallRun> run;
    for (std::size_t i = 0; i < n; ++i) {
      const std::pair<std::uint64_t, std::uint32_t> moving{key(order[i]),
                                                            order[i]};
      std::size_t hole = i;
      for (; hole > 0 && run[hole - 1].first > moving.first; --hole) {
        run[hole] = run[hole - 1];
      }
      run[hole] = moving;
    }
    for (std::size_t i = 0; i < n; ++i) order[i] = run[i].second;
    return;
  }
  unsigned digits = 0;
  while (digits < 8 && (span >> (8 * digits)) != 0) ++digits;
  if (digits == 0) return;  // every entry fires at one instant

  std::array<std::array<std::uint32_t, 256>, 8> count;
  for (unsigned d = 0; d < digits; ++d) count[d].fill(0);
  for (const std::uint32_t i : order) {
    const std::uint64_t k = key(i);
    for (unsigned d = 0; d < digits; ++d) ++count[d][(k >> (8 * d)) & 0xFF];
  }
  scratch.resize(n);
  std::vector<std::uint32_t>* from = &order;
  std::vector<std::uint32_t>* to = &scratch;
  for (unsigned d = 0; d < digits; ++d) {
    const unsigned shift = 8 * d;
    if (count[d][(key(order[0]) >> shift) & 0xFF] == n) continue;
    std::uint32_t start = 0;
    for (std::uint32_t& c : count[d]) {
      const std::uint32_t here = c;
      c = start;
      start += here;
    }
    for (const std::uint32_t i : *from) {
      (*to)[count[d][(key(i) >> shift) & 0xFF]++] = i;
    }
    std::swap(from, to);
  }
  if (from != &order) order.assign(scratch.begin(), scratch.end());
}

}  // namespace sstsp::sim

#include "sim/delivery_batch.h"

#include <algorithm>
#include <array>
#include <numeric>

namespace sstsp::sim {

void DeliveryBatch::arm(SimTime floor, std::uint64_t first_seq) {
  floor_ = floor;
  first_seq_ = first_seq;
  next_ = 0;
  const std::size_t n = entries_.size();
  // Entry i takes sequence number first_seq + i, so (time, sequence) order
  // is a stable sort of the entries by firing time.  An LSD radix sort, one
  // byte of the offset from `floor` per pass, is stable and compares
  // nothing: a fan-out's instants lie a few microseconds out (three
  // passes), an injected delay of seconds adds a few more.
  std::vector<std::uint64_t> offset(n);
  std::uint64_t span = 0;
  for (std::size_t i = 0; i < n; ++i) {
    offset[i] = static_cast<std::uint64_t>((fire_time(i) - floor).ps);
    span = std::max(span, offset[i]);
  }
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), std::uint32_t{0});
  std::vector<std::uint32_t> sorted(n);
  for (unsigned shift = 0; shift < 64 && (span >> shift) != 0; shift += 8) {
    std::array<std::uint32_t, 257> start{};
    for (const std::uint32_t i : order_) {
      ++start[((offset[i] >> shift) & 0xFF) + 1];
    }
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (const std::uint32_t i : order_) {
      sorted[start[(offset[i] >> shift) & 0xFF]++] = i;
    }
    order_.swap(sorted);
  }
}

}  // namespace sstsp::sim

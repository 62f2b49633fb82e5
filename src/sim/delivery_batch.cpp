#include "sim/delivery_batch.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "sim/run_sort.h"

namespace sstsp::sim {

void DeliveryBatch::arm(SimTime floor, std::uint64_t first_seq,
                        std::vector<std::uint32_t> order,
                        std::vector<std::uint32_t>& scratch) {
  floor_ = floor;
  first_seq_ = first_seq;
  // Entry i takes sequence number first_seq + i, so (time, sequence) order
  // is a stable sort of the entries by firing time: a fan-out's instants
  // lie a few microseconds out, an injected delay of seconds adds bytes.
  const auto offset = [this, floor](std::uint32_t i) {
    return static_cast<std::uint64_t>((fire_time(i) - floor).ps);
  };
  order_.indices = std::move(order);
  order_.indices.resize(entries_.size());
  order_.next = 0;
  std::iota(order_.indices.begin(), order_.indices.end(), std::uint32_t{0});
  std::uint64_t span = 0;
  for (const std::uint32_t i : order_.indices) {
    span = std::max(span, offset(i));
  }
  sort_run(order_.indices, scratch, span, offset);
}

}  // namespace sstsp::sim

#include "mac/frame.h"

namespace sstsp::mac {

std::array<std::uint8_t, 13> serialize_unsecured_beacon(
    std::int64_t timestamp_us, NodeId sender, std::uint8_t level) {
  std::array<std::uint8_t, 13> bytes{};
  const auto ts = static_cast<std::uint64_t>(timestamp_us);
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(ts >> (8 * i));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[8 + i] = static_cast<std::uint8_t>(sender >> (8 * i));
  }
  bytes[12] = level;
  return bytes;
}

}  // namespace sstsp::mac

#include "net/loopback.h"

namespace sstsp::net {

LoopbackHub::LoopbackHub(sim::Simulator& sim, LoopbackConfig config)
    : sim_(sim), config_(config), rng_(sim.substream("loopback", 0)) {}

LoopbackHub::~LoopbackHub() = default;

LoopbackTransport& LoopbackHub::create_endpoint() {
  endpoints_.push_back(std::unique_ptr<LoopbackTransport>(
      new LoopbackTransport(*this, endpoints_.size())));
  return *endpoints_.back();
}

void LoopbackHub::broadcast(
    std::size_t from,
    std::shared_ptr<const std::vector<std::uint8_t>> bytes) {
  const std::int64_t lo = config_.latency_min.ps;
  const std::int64_t hi = config_.latency_max.ps;
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    if (i == from) continue;
    // Draws happen in ascending endpoint order at send time (not delivery
    // time), so the RNG consumption — and therefore the whole run — is
    // independent of how deliveries interleave.
    const std::int64_t jitter =
        (hi > lo) ? static_cast<std::int64_t>(rng_.uniform_int(
                        0, static_cast<std::uint64_t>(hi - lo)))
                  : 0;
    LoopbackTransport* receiver = endpoints_[i].get();
    sim_.after(sim::SimTime{lo + jitter},
               [receiver, bytes] { receiver->deliver(*bytes); });
  }
}

bool LoopbackTransport::send(std::span<const std::uint8_t> datagram,
                             const TxMeta& /*meta*/) {
  // Virtual-time sends happen exactly at their scheduled instant; the
  // encoded tx lateness of zero is already correct.
  ++stats_.datagrams_sent;
  stats_.bytes_sent += datagram.size();
  hub_.broadcast(index_, std::make_shared<const std::vector<std::uint8_t>>(
                             datagram.begin(), datagram.end()));
  return true;
}

void LoopbackTransport::deliver(const std::vector<std::uint8_t>& bytes) {
  ++stats_.datagrams_received;
  stats_.bytes_received += bytes.size();
  // Virtual-time delivery runs exactly at its scheduled instant: no
  // receive-side lateness to report.
  if (rx_handler_) rx_handler_(bytes, RxMeta{});
}

std::string LoopbackTransport::describe() const {
  return "loopback:" + std::to_string(index_) + "/" +
         std::to_string(hub_.endpoint_count());
}

}  // namespace sstsp::net

// In-process, virtual-time loopback transport.
//
// A LoopbackHub connects N LoopbackTransport endpoints through the owning
// Simulator's event queue: send() schedules one delivery event per other
// attached endpoint at now + latency, where the latency is drawn uniformly
// from [latency_min, latency_max] out of a dedicated RNG substream — so a
// seeded run is bit-reproducible (the determinism contract exercised in
// tests/net_swarm_test.cpp) while still exercising the protocol against
// asymmetric, jittered delivery like a real datagram service would.
//
// The payload is shared between all deliveries of one send via a
// shared_ptr<const vector> (the same zero-copy fan-out idiom as the
// simulated broadcast channel's frame delivery).  The hub itself is
// lossless: datagram loss comes from a fault plan's drop directive, which
// fault::FaultyTransport applies to every swarm endpoint.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/transport.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace sstsp::net {

struct LoopbackConfig {
  /// One-way delivery latency bounds (uniform).  The defaults approximate
  /// a quiet localhost UDP hop: ~40 us of kernel + scheduler cost with a
  /// few us of jitter.  The *expected* part is compensated on receive
  /// (NodeConfig::wire_latency_us, auto-set to the midpoint by net::Swarm);
  /// only the jitter half-width ends up as measurement noise in the
  /// adjusted-clock solve, so widening the band directly stresses the
  /// protocol's epsilon tolerance.  Keep min > 0 so delivery is never
  /// same-instant with the send.
  sim::SimTime latency_min = sim::SimTime::from_us(35);
  sim::SimTime latency_max = sim::SimTime::from_us(45);
};

class LoopbackTransport;

class LoopbackHub {
 public:
  LoopbackHub(sim::Simulator& sim, LoopbackConfig config);
  ~LoopbackHub();

  LoopbackHub(const LoopbackHub&) = delete;
  LoopbackHub& operator=(const LoopbackHub&) = delete;

  /// Creates a new endpoint attached to this hub.  Endpoints are owned by
  /// the hub (stable addresses for the lifetime of the hub).
  [[nodiscard]] LoopbackTransport& create_endpoint();

  [[nodiscard]] std::size_t endpoint_count() const {
    return endpoints_.size();
  }
  [[nodiscard]] const LoopbackConfig& config() const { return config_; }

 private:
  friend class LoopbackTransport;

  /// Fans `bytes` out to every endpoint except `from`, one delivery event
  /// per receiver at now + uniform latency.
  void broadcast(std::size_t from,
                 std::shared_ptr<const std::vector<std::uint8_t>> bytes);

  sim::Simulator& sim_;
  LoopbackConfig config_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<LoopbackTransport>> endpoints_;
};

class LoopbackTransport final : public Transport {
 public:
  bool send(std::span<const std::uint8_t> datagram,
            const TxMeta& meta) override;
  using Transport::send;
  void set_rx_handler(RxHandler handler) override {
    rx_handler_ = std::move(handler);
  }
  [[nodiscard]] const TransportStats& stats() const override {
    return stats_;
  }
  [[nodiscard]] std::string describe() const override;

 private:
  friend class LoopbackHub;
  LoopbackTransport(LoopbackHub& hub, std::size_t index)
      : hub_(hub), index_(index) {}

  /// Delivery-event entry point (scheduled by the hub).
  void deliver(const std::vector<std::uint8_t>& bytes);

  LoopbackHub& hub_;
  std::size_t index_;
  RxHandler rx_handler_;
  TransportStats stats_;
};

}  // namespace sstsp::net

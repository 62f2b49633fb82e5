// Transport abstraction for the live SSTSP stack.
//
// A Transport moves opaque datagrams (net::codec envelopes) between nodes.
// It replaces the simulator's broadcast channel at the process boundary:
// where the channel models the 802.11 broadcast medium (carrier sense,
// collisions, propagation), a transport is a plain best-effort datagram
// service — the IBSS broadcast domain collapses to "send reaches every
// peer".  What that abstraction deliberately does NOT model is documented in DESIGN.md
// ("Live stack": no carrier sense across the wire, no collisions, no
// half-duplex suppression beyond dropping one's own multicast echo).
//
// Two implementations:
//   * UdpTransport (udp.h)      — non-blocking UDP unicast fan-out or
//                                 multicast over a poll reactor; wall clock.
//   * LoopbackTransport (loopback.h) — in-process hub driven by virtual
//                                 time on a shared Simulator; deterministic,
//                                 for tests and seeded reproduction runs.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "sim/time_types.h"

namespace sstsp::net {

struct TransportStats {
  std::uint64_t datagrams_sent{0};
  std::uint64_t bytes_sent{0};
  std::uint64_t send_errors{0};  ///< per-peer send failures (EAGAIN, ...)
  std::uint64_t datagrams_received{0};
  std::uint64_t bytes_received{0};
  std::uint64_t recv_errors{0};

  TransportStats& operator+=(const TransportStats& o) {
    datagrams_sent += o.datagrams_sent;
    bytes_sent += o.bytes_sent;
    send_errors += o.send_errors;
    datagrams_received += o.datagrams_received;
    bytes_received += o.bytes_received;
    recv_errors += o.recv_errors;
    return *this;
  }
};

/// Aggregate live-stack accounting for one run; carried by RunResult::net
/// so the run JSON reports the wire the same way it reports the channel.
struct NetRunStats {
  TransportStats transport;
  std::uint64_t frames_sent{0};      ///< frames encoded onto the wire
  std::uint64_t frames_received{0};  ///< decoded + handed to the protocol
  std::uint64_t self_frames_dropped{0};  ///< own multicast echoes discarded
  std::uint64_t decode_errors{0};        ///< malformed datagrams rejected
  /// Frames whose dispatch ran so far behind schedule (host stall) that
  /// the beacon would certainly fail the receivers' µTESLA timing check;
  /// dropped at the sender like a missed TBTT window (see
  /// net::kMaxTxLatenessUs).
  std::uint64_t stale_frames_dropped{0};

  NetRunStats& operator+=(const NetRunStats& o) {
    transport += o.transport;
    frames_sent += o.frames_sent;
    frames_received += o.frames_received;
    self_frames_dropped += o.self_frames_dropped;
    decode_errors += o.decode_errors;
    stale_frames_dropped += o.stale_frames_dropped;
    return *this;
  }
};

/// Per-datagram send metadata.
struct TxMeta {
  /// When set, the simulator instant the datagram's content says it leaves
  /// the sender (the wire-tap delivery time).  A wall-paced transport uses
  /// it to re-stamp the envelope's tx-lateness field (codec offset
  /// kTxLatenessOffset) immediately before every per-peer send, so each
  /// receiver learns exactly how far behind schedule its copy physically
  /// departed.  Virtual-time transports deliver on schedule and ignore it.
  bool has_schedule{false};
  sim::SimTime scheduled{};
};

/// Per-datagram receive metadata.
struct RxMeta {
  /// How long the datagram sat between its arrival stamp and the handler
  /// running, in ns.  UdpTransport measures it against the kernel's
  /// SO_TIMESTAMPNS receive timestamp, so scheduler wake-up and dispatch
  /// latency can be subtracted back out of the arrival estimate; a
  /// virtual-time transport delivers exactly on schedule and reports 0.
  std::int64_t rx_lateness_ns{0};
};

class Transport {
 public:
  /// Receive callback: one complete datagram, valid only for the duration
  /// of the call.  Invoked from the transport's delivery context (a reactor
  /// dispatch event or a loopback hub delivery event), i.e. always with the
  /// owning Simulator's now() at the delivery instant.
  using RxHandler =
      std::function<void(std::span<const std::uint8_t>, const RxMeta&)>;

  virtual ~Transport() = default;

  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Broadcasts one datagram to every peer.  Returns false when no copy
  /// could be handed to the OS/hub at all (partial failure counts in
  /// stats().send_errors but still returns true).
  virtual bool send(std::span<const std::uint8_t> datagram,
                    const TxMeta& meta) = 0;
  bool send(std::span<const std::uint8_t> datagram) {
    return send(datagram, TxMeta{});
  }

  virtual void set_rx_handler(RxHandler handler) = 0;

  [[nodiscard]] virtual const TransportStats& stats() const = 0;

  /// Human-readable endpoint description ("udp:127.0.0.1:45400 (4 peers)").
  [[nodiscard]] virtual std::string describe() const = 0;
};

}  // namespace sstsp::net

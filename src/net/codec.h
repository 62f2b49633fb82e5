// Datagram wire codec for the live SSTSP stack.
//
// The simulator moves frames as structured values; mac/wire.h defines the
// on-air octet layout the paper's size accounting refers to.  This module
// adds the *transport* framing a deployment needs when beacons ride a
// datagram service (UDP emulation, a packet radio, a capture file) instead
// of a physical 802.11 PHY:
//
//   offset  size  field
//   0       4     magic "SSWP" (0x53 0x53 0x57 0x50)
//   4       1     codec version (kCodecVersion; decoders reject others)
//   5       1     flags (reserved, must be zero)
//   6       2     payload length, little-endian u16
//   8       8     lifecycle trace ID, little-endian u64
//   16      8     tx dispatch lateness in ns, little-endian u64
//   24      N     payload: the mac::wire on-air encoding of one frame
//
// The trace ID and tx lateness are *emulation metadata*, not on-air
// fields.  The trace ID carries the sender-assigned beacon lifecycle ID
// (see mac::Frame::trace_id) across the process boundary so the PR-2
// causal tracing correlates a live tx with its per-receiver rx/verify/
// adjust events exactly as in simulation.  The tx lateness is how long
// after the beacon's scheduled transmit instant the hosting process was
// actually dispatched to put it on the wire: real 802.11 hardware
// timestamps the beacon at the antenna when the slot arrives, but a
// user-space emulation is at the mercy of the OS scheduler, so the sender
// measures its own dispatch lateness and the receiver folds it into the
// nominal-delay compensation (see NodeRuntime::on_datagram) — restoring
// the hardware-timestamping assumption the paper's guard-time analysis is
// built on.  A real deployment would drop all 16 bytes.
//
// Decoding is strict and bounds-checked: every malformed shape (truncated
// header, bad magic/version/flags, length prefix larger than the datagram
// or the payload cap, trailing garbage, payload mac/wire rejects) maps to a
// distinct DecodeError and never reads out of bounds — exercised against a
// malformed-input corpus under ASan/UBSan in tests/net_codec_test.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "mac/frame.h"

namespace sstsp::net {

inline constexpr std::uint8_t kCodecVersion = 1;
inline constexpr std::size_t kEnvelopeHeaderBytes = 24;
/// Envelope offset of the tx-lateness field, for transports that re-stamp
/// it immediately before each per-peer send (see patch_tx_lateness).
inline constexpr std::size_t kTxLatenessOffset = 16;

/// Hard cap on the payload a decoder will accept.  Beacons are <= 96 bytes
/// (mac::kSstspWireBytes); the cap leaves headroom for future frame types
/// while keeping an oversized length prefix an immediate, allocation-free
/// rejection.
inline constexpr std::size_t kMaxPayloadBytes = 512;

enum class DecodeError : std::uint8_t {
  kNone,            ///< decoded successfully
  kTruncated,       ///< shorter than the 24-byte envelope header
  kBadMagic,        ///< first four bytes are not "SSWP"
  kBadVersion,      ///< version byte != kCodecVersion
  kBadFlags,        ///< reserved flags byte non-zero
  kOversizedLength, ///< length prefix exceeds kMaxPayloadBytes
  kLengthMismatch,  ///< length prefix != bytes actually present
  kBadPayload,      ///< mac::wire decode rejected the payload
};

[[nodiscard]] std::string_view to_string(DecodeError error);

struct DecodeOutcome {
  /// Present iff error == kNone; Frame::trace_id carries the envelope's
  /// lifecycle ID.
  std::optional<mac::Frame> frame;
  /// Sender-reported dispatch lateness (envelope offset 16); valid iff ok().
  std::uint64_t tx_lateness_ns{0};
  DecodeError error{DecodeError::kNone};

  [[nodiscard]] bool ok() const { return error == DecodeError::kNone; }
};

/// Encodes one frame into a self-contained datagram (envelope + mac::wire
/// payload).  The envelope trace ID is taken from frame.trace_id;
/// `tx_lateness_ns` is how far behind its scheduled transmit instant the
/// sender was actually dispatched (0 for virtual-time transports, where
/// events run exactly on schedule).
[[nodiscard]] std::vector<std::uint8_t> encode_datagram(
    const mac::Frame& frame, std::uint64_t tx_lateness_ns = 0);

/// Strict inverse of encode_datagram; see DecodeError for every rejection
/// class.  Never reads past bytes.size().
[[nodiscard]] DecodeOutcome decode_datagram(
    std::span<const std::uint8_t> bytes);

/// Rewrites the envelope's tx-lateness field in place.  Sequential per-peer
/// sendto() calls are microseconds apart, so a wall-paced transport
/// re-stamps the field right before each one — a stamp taken once at encode
/// time goes stale by the syscall cost times the peer's position in the
/// fan-out order, which shows up as a per-pair clock bias.  No-op on a
/// buffer shorter than the envelope header.
void patch_tx_lateness(std::span<std::uint8_t> datagram,
                       std::uint64_t tx_lateness_ns);

}  // namespace sstsp::net

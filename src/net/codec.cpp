#include "net/codec.h"

#include <algorithm>

#include "mac/wire.h"

namespace sstsp::net {

namespace {

constexpr std::uint8_t kMagic[4] = {0x53, 0x53, 0x57, 0x50};  // "SSWP"

void put_u16le(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u64le(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

[[nodiscard]] std::uint16_t get_u16le(std::span<const std::uint8_t> in,
                                      std::size_t at) {
  return static_cast<std::uint16_t>(in[at] |
                                    (static_cast<std::uint16_t>(in[at + 1])
                                     << 8));
}

[[nodiscard]] std::uint64_t get_u64le(std::span<const std::uint8_t> in,
                                      std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | in[at + static_cast<std::size_t>(i)];
  }
  return v;
}

}  // namespace

std::string_view to_string(DecodeError error) {
  switch (error) {
    case DecodeError::kNone: return "none";
    case DecodeError::kTruncated: return "truncated";
    case DecodeError::kBadMagic: return "bad-magic";
    case DecodeError::kBadVersion: return "bad-version";
    case DecodeError::kBadFlags: return "bad-flags";
    case DecodeError::kOversizedLength: return "oversized-length";
    case DecodeError::kLengthMismatch: return "length-mismatch";
    case DecodeError::kBadPayload: return "bad-payload";
  }
  return "?";
}

std::vector<std::uint8_t> encode_datagram(const mac::Frame& frame,
                                          std::uint64_t tx_lateness_ns) {
  const std::vector<std::uint8_t> payload = mac::encode_frame(frame);
  std::vector<std::uint8_t> out(kEnvelopeHeaderBytes + payload.size());
  std::copy(std::begin(kMagic), std::end(kMagic), out.begin());
  out[4] = kCodecVersion;
  out[5] = 0x00;  // flags, reserved
  put_u16le(&out[6], static_cast<std::uint16_t>(payload.size()));
  put_u64le(&out[8], frame.trace_id);
  put_u64le(&out[16], tx_lateness_ns);
  std::copy(payload.begin(), payload.end(),
            out.begin() + kEnvelopeHeaderBytes);
  return out;
}

void patch_tx_lateness(std::span<std::uint8_t> datagram,
                       std::uint64_t tx_lateness_ns) {
  if (datagram.size() < kEnvelopeHeaderBytes) return;
  put_u64le(datagram.data() + kTxLatenessOffset, tx_lateness_ns);
}

DecodeOutcome decode_datagram(std::span<const std::uint8_t> bytes) {
  DecodeOutcome outcome;
  if (bytes.size() < kEnvelopeHeaderBytes) {
    outcome.error = DecodeError::kTruncated;
    return outcome;
  }
  for (std::size_t i = 0; i < 4; ++i) {
    if (bytes[i] != kMagic[i]) {
      outcome.error = DecodeError::kBadMagic;
      return outcome;
    }
  }
  if (bytes[4] != kCodecVersion) {
    outcome.error = DecodeError::kBadVersion;
    return outcome;
  }
  if (bytes[5] != 0x00) {
    outcome.error = DecodeError::kBadFlags;
    return outcome;
  }
  const std::size_t declared = get_u16le(bytes, 6);
  if (declared > kMaxPayloadBytes) {
    outcome.error = DecodeError::kOversizedLength;
    return outcome;
  }
  // Strict framing: the length prefix must account for every byte present.
  // A datagram service preserves message boundaries, so both a short *and*
  // a long datagram indicate corruption or a speaking-past-the-spec peer.
  if (declared != bytes.size() - kEnvelopeHeaderBytes) {
    outcome.error = DecodeError::kLengthMismatch;
    return outcome;
  }
  auto frame = mac::decode_frame(bytes.subspan(kEnvelopeHeaderBytes));
  if (!frame) {
    outcome.error = DecodeError::kBadPayload;
    return outcome;
  }
  frame->trace_id = get_u64le(bytes, 8);
  outcome.tx_lateness_ns = get_u64le(bytes, 16);
  outcome.frame = std::move(*frame);
  return outcome;
}

}  // namespace sstsp::net

// Beacon frame representations.
//
// Frames travel through the simulated channel as structured values; the
// byte-level encodings below exist so that (a) the µTESLA MAC is computed
// over a concrete octet string exactly as a deployment would, and (b) frame
// sizes can be accounted against the paper's 56-byte / 92-byte figures.
#pragma once

#include <array>
#include <cstdint>
#include <variant>

#include "crypto/sha256.h"
#include "mac/phy_params.h"

namespace sstsp::mac {

/// Plain TSF beacon: the timestamp is the sender's TSF register latched at
/// the start of transmission (whole microseconds, as per the standard).
struct TsfBeaconBody {
  std::int64_t timestamp_us{0};
};

/// Secured SSTSP beacon: <B, j, HMAC_{K_j}(B, j), K_{j-1}>  (paper §3.3).
/// B consists of the adjusted-clock timestamp, the sender identity, and —
/// for the multi-hop extension — the sender's relay level (0 for the
/// reference; single-hop SSTSP always emits level 0).
struct SstspBeaconBody {
  std::int64_t timestamp_us{0};        ///< adjusted clock at tx start
  std::int64_t interval{0};            ///< j
  std::uint8_t level{0};               ///< hop distance from the reference
  crypto::Digest128 mac{};             ///< HMAC_{K_j}(B, j), truncated
  crypto::Digest disclosed_key{};      ///< K_{j-1} = v_{n-j+1}
};

struct Frame {
  NodeId sender{kNoNode};
  std::variant<TsfBeaconBody, SstspBeaconBody> body;
  std::uint32_t air_bytes{0};  ///< on-air size, for traffic accounting
  /// Broadcast-domain tag (the BSSID stand-in for multi-domain scenarios):
  /// receivers drop frames from foreign domains before protocol processing,
  /// exactly as a NIC filters on BSSID.  The PHY is shared — cross-domain
  /// frames still occupy the medium and collide.  0 is the default single
  /// domain; the cluster layer uses cluster indices and `0x80 | cluster`
  /// for the gateway bridge plane (see cluster/cluster_config.h).
  std::uint8_t domain{0};
  /// Causal lifecycle ID, assigned by the channel at transmission start
  /// (its per-transmission counter) and carried to every receiver.  Not an
  /// on-air field: it is simulation bookkeeping that lets observability
  /// correlate a beacon's tx with its per-receiver rx/verify/adjust events.
  std::uint64_t trace_id{0};

  [[nodiscard]] bool is_tsf() const {
    return std::holds_alternative<TsfBeaconBody>(body);
  }
  [[nodiscard]] bool is_sstsp() const {
    return std::holds_alternative<SstspBeaconBody>(body);
  }
  [[nodiscard]] const TsfBeaconBody& tsf() const {
    return std::get<TsfBeaconBody>(body);
  }
  [[nodiscard]] const SstspBeaconBody& sstsp() const {
    return std::get<SstspBeaconBody>(body);
  }
};

/// Serializes the unsecured beacon content B = (timestamp, sender, level) —
/// the exact octets the µTESLA MAC covers: LE64 timestamp, LE32 sender,
/// level.  Shared by signer and verifier.
[[nodiscard]] std::array<std::uint8_t, 13> serialize_unsecured_beacon(
    std::int64_t timestamp_us, NodeId sender, std::uint8_t level = 0);

}  // namespace sstsp::mac

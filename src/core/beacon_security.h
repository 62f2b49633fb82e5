// Secure beacon construction and the receiver-side verification pipeline.
//
// Sender (reference or contender), interval j:
//     <B, j, HMAC_{K_j}(B, j), K_{j-1}>      with K_j = v_{n-j}
//
// Receiver, on a beacon claiming interval j from sender s (paper §3.3):
//   1. interval check      — local adjusted time must lie inside interval j
//                            (µTESLA security condition);
//   2. disclosed-key check — K_{j-1} must hash forward to s's last
//                            authenticated element / published anchor;
//   3. deferred MAC check  — the *stored* beacon of interval j-1 is
//                            authenticated with the now-disclosed K_{j-1};
//   4. guard-time check    — |timestamp estimate - local adjusted clock|
//                            must be below delta (applied at arrival).
//
// This module owns steps 2-3 plus the per-sender buffering; the protocol
// (core/sstsp.h) owns 1 and 4 because they need the local clock.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "core/key_directory.h"
#include "crypto/mutesla.h"
#include "mac/frame.h"

namespace sstsp::core {

/// Outcome of feeding one received beacon through the µTESLA pipeline.
struct PipelineResult {
  bool key_valid{false};  ///< step 2 passed (or j == 1: nothing disclosed)
  bool mac_failed{false};  ///< a stored beacon failed its deferred MAC check
  /// Step 3: the previously stored beacon that just became authenticated,
  /// if any.  Contains the values the clock adjustment needs.
  struct Authenticated {
    std::int64_t interval{0};
    double arrival_hw_us{0};
    double ts_est_us{0};
    std::uint8_t level{0};
    /// Lifecycle ID of the (previous-interval) transmission that just
    /// became authenticated — the causal subject of any resulting
    /// adjustment, one interval after its time on air.
    std::uint64_t trace_id{0};
  };
  std::optional<Authenticated> authenticated;
};

/// Per-sender µTESLA receiver state: verifier cache plus the short beacon
/// buffer (the paper notes nodes buffer the beacons of the last 2 BPs).
/// Both are held inline, so a heard sender's pipeline owns no heap memory;
/// the schedule and result cache every sender of a node shares come with
/// each call (crypto::VerifyContext).
class SenderPipeline {
 public:
  explicit SenderPipeline(const crypto::Digest& anchor) : verifier_(anchor) {}

  /// Processes the secured fields of a beacon received from this sender.
  /// `arrival_hw_us` / `ts_est_us` are recorded so the beacon can be turned
  /// into an adjustment sample once authenticated one interval later;
  /// `trace_id` rides along for the same deferred hand-back.
  PipelineResult ingest(const crypto::VerifyContext& ctx,
                        const mac::SstspBeaconBody& body, mac::NodeId sender,
                        double arrival_hw_us, double ts_est_us,
                        std::uint64_t trace_id = 0);

  [[nodiscard]] const crypto::MuTeslaVerifier& verifier() const {
    return verifier_;
  }

  /// Key-freshness check without frame buffering: does `key` verify as the
  /// not-yet-seen chain element for interval j?  Used by the recovery
  /// extension to attribute guard failures — only the chain owner can
  /// produce a fresh disclosure, so a replayed/spoofed frame (stale or
  /// invalid key) can never be pinned on the identity it claims.  On
  /// success the verifier cache advances (the key is authentic material).
  [[nodiscard]] bool verify_key_fresh(const crypto::VerifyContext& ctx,
                                      std::int64_t j,
                                      const crypto::Digest& key) {
    const std::int64_t before = verifier_.verified_interval();
    return verifier_.verify_key(ctx, j, key) &&
           verifier_.verified_interval() > before;
  }

 private:
  struct StoredBeacon {
    std::int64_t interval;
    std::int64_t timestamp_us;
    std::uint8_t level;
    crypto::Digest128 mac;
    double arrival_hw_us;
    double ts_est_us;
    std::uint64_t trace_id;
  };

  /// Drops the `count` oldest buffered beacons.
  void drop_oldest(std::size_t count);

  static constexpr std::size_t kBufferSlots = 2;  // the last 2 intervals

  crypto::MuTeslaVerifier verifier_;
  std::array<StoredBeacon, kBufferSlots> buffer_{};  // oldest first
  std::size_t buffered_{0};                          // live slots
};

/// The secured fields of an interval-j beacon over timestamp/sender/level,
/// signed with `signer`'s chain.
[[nodiscard]] mac::SstspBeaconBody sign_beacon(
    const crypto::MuTeslaSigner& signer, std::int64_t j,
    std::int64_t timestamp_us, mac::NodeId sender, std::uint8_t level = 0);

/// Signer wrapper: lazily builds the chain walker the first time the node
/// actually transmits (most nodes never become reference, and the walker
/// costs n - j hash invocations to bootstrap when the first signed interval
/// is j: keys of later intervals sit lower on the chain, so the walk stops
/// at K_j).  The walker lives out of line so the stations that never sign
/// carry one pointer, not its storage.
class BeaconSigner {
 public:
  BeaconSigner(crypto::ChainParams chain, crypto::MuTeslaSchedule schedule)
      : chain_(chain), schedule_(schedule) {}

  /// Fills the secured fields for interval j over timestamp/sender/level.
  [[nodiscard]] mac::SstspBeaconBody sign(std::int64_t j,
                                          std::int64_t timestamp_us,
                                          mac::NodeId sender,
                                          std::uint8_t level = 0);

 private:
  crypto::ChainParams chain_;
  crypto::MuTeslaSchedule schedule_;
  std::unique_ptr<crypto::MuTeslaSigner> signer_;  // built on first sign()
};

}  // namespace sstsp::core

// µTESLA (Perrig et al., SPINS 2001) as used by SSTSP §3.3.
//
// The schedule is interval-indexed: interval j spans
// [T0 + j*BP - BP/2, T0 + j*BP + BP/2] in synchronized ("adjusted") time, and
// a beacon emitted in interval j is keyed with K_j = v_{n-j} while disclosing
// K_{j-1} = v_{n-j+1}.  A receiver may only accept the interval-j beacon
// while K_j is still undisclosed, i.e. while its own (loosely synchronized)
// clock is inside interval j — the "security condition" enforced by
// MuTeslaSchedule::interval_check.
//
// The signer/verifier pair below is transport-agnostic: it deals in byte
// spans and interval indices; frame assembly lives in core/beacon_security.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "crypto/hash_chain.h"
#include "crypto/hmac.h"
#include "crypto/verify_cache.h"

namespace sstsp::crypto {

/// Interval bookkeeping shared by signer and verifier.
struct MuTeslaSchedule {
  double t0_us{0.0};        ///< adjusted-time origin of the chain
  double interval_us{1e5};  ///< one beacon period
  std::size_t n{0};         ///< chain length; valid intervals are [1, n]

  /// Interval index whose nominal emission time is closest to `time_us`
  /// (interval j's beacon is expected at T0 + j*interval).
  [[nodiscard]] std::int64_t interval_of(double time_us) const {
    return static_cast<std::int64_t>((time_us - t0_us) / interval_us + 0.5);
  }

  /// Nominal emission time of interval j's beacon.
  [[nodiscard]] double emission_time(std::int64_t j) const {
    return t0_us + static_cast<double>(j) * interval_us;
  }

  /// Security condition: a beacon claiming interval j, observed at local
  /// adjusted time `local_us`, is acceptable iff the local clock is still
  /// inside interval j (with `slack_us` tolerance for residual sync error
  /// and propagation).  Outside that window the key may already be public.
  [[nodiscard]] bool interval_check(std::int64_t j, double local_us,
                                    double slack_us) const {
    if (j < 1 || static_cast<std::size_t>(j) > n) return false;
    const double center = emission_time(j);
    const double half = interval_us / 2.0;
    return local_us >= center - half - slack_us &&
           local_us <= center + half + slack_us;
  }
};

/// Produces keys and MACs for a node's own chain.  Reads the chain through
/// a CheckpointedChain with ceil(sqrt(n)) spacing, so signing consecutive
/// intervals costs about one hash per key; like that chain, a signer is
/// owned and used by a single station.
class MuTeslaSigner {
 public:
  /// A signer that starts signing at `first_interval` (0: unknown) stops
  /// its bootstrap walk at K_{first_interval}'s position n - first_interval,
  /// since later intervals only read lower positions.  An earlier interval,
  /// and the anchor, are still read exactly, at the cost of a longer walk.
  MuTeslaSigner(const ChainParams& chain, MuTeslaSchedule schedule,
                std::int64_t first_interval = 0);

  [[nodiscard]] const MuTeslaSchedule& schedule() const { return schedule_; }
  [[nodiscard]] Digest anchor() const { return chain_.anchor(); }

  /// K_j = v_{n-j}; requires 1 <= j <= n.
  [[nodiscard]] Digest key_for_interval(std::int64_t j) const;

  /// Key disclosed inside the interval-j beacon: K_{j-1} = H(K_j) (for
  /// j == 1 the disclosed element is the anchor v_n itself, which carries no
  /// authentication value but keeps the frame layout uniform).
  [[nodiscard]] Digest disclosed_key(std::int64_t j) const;

  /// MAC over the beacon body for interval j.
  [[nodiscard]] Digest128 mac(std::int64_t j,
                              std::span<const std::uint8_t> body) const;

  /// Both chain-derived fields of the interval-j beacon from one key read.
  struct Signature {
    Digest128 mac;
    Digest disclosed_key;
  };
  [[nodiscard]] Signature sign(std::int64_t j,
                               std::span<const std::uint8_t> body) const;

 private:
  CheckpointedChain chain_;
  MuTeslaSchedule schedule_;
};

/// What every verifier of one receiving node shares: the µTESLA schedule it
/// verifies against and, when non-null, the network's memo of pure hash/MAC
/// results (crypto/verify_cache.h; results are identical with or without
/// it).  Passed per call, so a node's per-sender verifiers do not each hold
/// a copy.
struct VerifyContext {
  MuTeslaSchedule schedule;
  VerifyCache* cache{nullptr};
};

/// Verifies disclosed keys against a published anchor, caching the most
/// recent authenticated element so steady-state verification costs one hash
/// per beacon (the optimization §3.3 calls out).  Holds that element, its
/// interval and the modeled hash count, nothing else.
class MuTeslaVerifier {
 public:
  explicit MuTeslaVerifier(const Digest& anchor) : verified_(anchor) {}

  /// Checks that `key` is the chain element for interval j (position n-j,
  /// 1 <= j <= ctx.schedule.n), by hashing it forward to the last
  /// authenticated element.  On success the cache advances.  Returns false
  /// for stale intervals (j older than an already-verified disclosure) and
  /// for mismatching keys.
  [[nodiscard]] bool verify_key(const VerifyContext& ctx, std::int64_t j,
                                const Digest& key);

  /// MAC check of an interval-j beacon body against an already-verified key.
  [[nodiscard]] static bool verify_mac(const Digest& key, std::int64_t j,
                                       std::span<const std::uint8_t> body,
                                       const Digest128& mac);

  /// Same check through `cache` (verify_mac when it is null).
  [[nodiscard]] static bool check_mac(VerifyCache* cache, const Digest& key,
                                      std::int64_t j,
                                      std::span<const std::uint8_t> body,
                                      const Digest128& mac);

  /// Hash invocations a station makes for the walks so far, whether or not
  /// the simulator's result cache spared them.
  [[nodiscard]] std::uint64_t hash_ops() const { return hash_ops_; }
  /// Interval of the newest verified element (0 means "anchor only").
  [[nodiscard]] std::int64_t verified_interval() const {
    return verified_j_;
  }

 private:
  Digest verified_;
  std::int64_t verified_j_{0};  // K_0 = v_n, the anchor
  std::uint64_t hash_ops_{0};
};

/// Canonical MAC input for beacon interval j: body || LE64(j).  Shared by
/// signer and verifier so there is exactly one encoding.  Held inline, so
/// building it per sign and per check allocates nothing.
class MacInput {
 public:
  /// Longest body accepted.  Beacon bodies are 13 bytes
  /// (mac::serialize_unsecured_beacon); VerifyCache caches inputs up to 48.
  static constexpr std::size_t kMaxBody = 56;

  /// Throws std::length_error when body.size() > kMaxBody.
  MacInput(std::int64_t j, std::span<const std::uint8_t> body);

  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {bytes_.data(), size_};
  }
  [[nodiscard]] std::size_t size() const { return size_; }

  friend bool operator==(const MacInput& a, const MacInput& b) {
    return std::ranges::equal(a.bytes(), b.bytes());
  }

 private:
  std::array<std::uint8_t, kMaxBody + 8> bytes_{};
  std::size_t size_;
};

[[nodiscard]] inline MacInput mac_input(std::int64_t j,
                                        std::span<const std::uint8_t> body) {
  return MacInput(j, body);
}

}  // namespace sstsp::crypto

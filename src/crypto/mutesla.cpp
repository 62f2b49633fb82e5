#include "crypto/mutesla.h"

#include <cassert>
#include <stdexcept>

namespace sstsp::crypto {

MacInput::MacInput(std::int64_t j, std::span<const std::uint8_t> body)
    : size_(body.size() + 8) {
  if (body.size() > kMaxBody) {
    throw std::length_error("mac_input: body exceeds MacInput::kMaxBody");
  }
  std::copy(body.begin(), body.end(), bytes_.begin());
  const auto uj = static_cast<std::uint64_t>(j);
  for (std::size_t i = 0; i < 8; ++i) {
    bytes_[body.size() + i] = static_cast<std::uint8_t>(uj >> (8 * i));
  }
}

namespace {

Digest128 keyed_mac(const Digest& key, std::int64_t j,
                    std::span<const std::uint8_t> body) {
  return hmac_sha256_128(std::span<const std::uint8_t>(key.data(), key.size()),
                         mac_input(j, body).bytes());
}

}  // namespace

MuTeslaSigner::MuTeslaSigner(const ChainParams& chain,
                             MuTeslaSchedule schedule,
                             std::int64_t first_interval)
    : chain_(chain, CheckpointedChain::sqrt_spacing(chain.length),
             first_interval >= 1 &&
                     static_cast<std::size_t>(first_interval) <= chain.length
                 ? chain.length - static_cast<std::size_t>(first_interval)
                 : chain.length),
      schedule_(schedule) {
  assert(schedule_.n == chain.length);
}

Digest MuTeslaSigner::key_for_interval(std::int64_t j) const {
  assert(j >= 1 && static_cast<std::size_t>(j) <= schedule_.n);
  return chain_.element(schedule_.n - static_cast<std::size_t>(j));
}

Digest MuTeslaSigner::disclosed_key(std::int64_t j) const {
  // v_{n-j+1} = H(v_{n-j}): one hash from K_j instead of a second chain
  // access (which could fall in the next segment up and evict this one).
  return hash_once(key_for_interval(j));
}

Digest128 MuTeslaSigner::mac(std::int64_t j,
                             std::span<const std::uint8_t> body) const {
  return keyed_mac(key_for_interval(j), j, body);
}

MuTeslaSigner::Signature MuTeslaSigner::sign(
    std::int64_t j, std::span<const std::uint8_t> body) const {
  const Digest key = key_for_interval(j);
  return Signature{keyed_mac(key, j, body), hash_once(key)};
}

bool MuTeslaVerifier::verify_key(const VerifyContext& ctx, std::int64_t j,
                                 const Digest& key) {
  if (j < 1 || static_cast<std::size_t>(j) > ctx.schedule.n) return false;
  if (j <= verified_j_) {
    // Stale or already-known disclosure.  The newest interval is accepted
    // again only if the key matches what we already authenticated
    // (idempotent re-check).
    return j == verified_j_ && digest_equal(key, verified_);
  }
  // K_j sits j - verified_j_ positions below the last authenticated element.
  const auto distance = static_cast<std::size_t>(j - verified_j_);
  // The modeled cost is charged regardless of the simulator-side cache: a
  // real station walks the chain; only our wall-clock is being saved.
  hash_ops_ += distance;
  const bool match =
      ctx.cache != nullptr
          ? ctx.cache->chain_walk_matches(key, distance, verified_)
          : digest_equal(hash_times(key, distance), verified_);
  if (!match) return false;
  verified_j_ = j;
  verified_ = key;
  return true;
}

bool MuTeslaVerifier::verify_mac(const Digest& key, std::int64_t j,
                                 std::span<const std::uint8_t> body,
                                 const Digest128& mac) {
  return digest_equal(keyed_mac(key, j, body), mac);
}

bool MuTeslaVerifier::check_mac(VerifyCache* cache, const Digest& key,
                                std::int64_t j,
                                std::span<const std::uint8_t> body,
                                const Digest128& mac) {
  if (cache == nullptr) return verify_mac(key, j, body, mac);
  return cache->mac_matches(key, mac_input(j, body).bytes(), mac);
}

}  // namespace sstsp::crypto

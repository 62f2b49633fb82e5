#include "core/beacon_security.h"

#include <algorithm>

#include "crypto/hash_chain.h"

namespace sstsp::core {

PipelineResult SenderPipeline::ingest(const crypto::VerifyContext& ctx,
                                      const mac::SstspBeaconBody& body,
                                      mac::NodeId sender, double arrival_hw_us,
                                      double ts_est_us,
                                      std::uint64_t trace_id) {
  PipelineResult result;
  const std::int64_t j = body.interval;

  if (j == 1) {
    // The first interval's beacon discloses v_n (the anchor itself), which
    // authenticates nothing; accept the frame into the buffer so interval 2
    // can authenticate it.
    result.key_valid = true;
  } else {
    result.key_valid = verifier_.verify_key(ctx, j - 1, body.disclosed_key);
    if (!result.key_valid) return result;  // suspect frame: do not buffer

    // Step 3: authenticate the newest stored beacon K_{j-1} can vouch for.
    // A lost interval does not orphan its predecessor: the chain element
    // for an older stored interval i is derivable from the fresh
    // disclosure as H^{(j-1)-i}(K_{j-1}), so a buffered beacon survives
    // the loss of the very next disclosure (µTESLA's loss tolerance).
    // The walk is capped at the buffer horizon: a beacon that sat
    // unauthenticated for longer carries a timestamp from a long-gone
    // clock epoch (e.g. a one-off contention frame of a node that rarely
    // transmits), and feeding it to the solver as a "fresh" sample swings
    // the slope by orders of magnitude.  Too-old entries are purged.
    constexpr std::int64_t kMaxAuthWalk = 2;
    std::size_t stale = 0;
    while (stale < buffered_ &&
           buffer_[stale].interval + kMaxAuthWalk < j - 1) {
      ++stale;
    }
    drop_oldest(stale);
    for (std::size_t i = buffered_; i-- > 0;) {
      const StoredBeacon& stored = buffer_[i];
      if (stored.interval >= j) continue;
      const auto distance =
          static_cast<std::size_t>((j - 1) - stored.interval);
      const crypto::Digest key =
          distance == 0 ? body.disclosed_key
                        : crypto::hash_times(body.disclosed_key, distance);
      const auto bytes = mac::serialize_unsecured_beacon(
          stored.timestamp_us, sender, stored.level);
      if (crypto::MuTeslaVerifier::check_mac(
              ctx.cache, key, stored.interval,
              std::span<const std::uint8_t>(bytes.data(), bytes.size()),
              stored.mac)) {
        result.authenticated = PipelineResult::Authenticated{
            stored.interval, stored.arrival_hw_us, stored.ts_est_us,
            stored.level, stored.trace_id};
      } else {
        result.mac_failed = true;
      }
      // Consume the checked beacon and everything older: an entry must
      // never authenticate twice (it would feed the solver a duplicate
      // sample), and anything older is a strictly staler sample anyway.
      drop_oldest(i + 1);
      break;
    }
  }

  // Buffer this beacon for authentication next interval; keep 2 intervals.
  if (buffered_ == kBufferSlots) drop_oldest(1);
  buffer_[buffered_++] = StoredBeacon{j, body.timestamp_us, body.level,
                                      body.mac, arrival_hw_us, ts_est_us,
                                      trace_id};
  return result;
}

void SenderPipeline::drop_oldest(std::size_t count) {
  if (count == 0) return;  // std::copy must not write into its own source
  std::copy(buffer_.begin() + count, buffer_.begin() + buffered_,
            buffer_.begin());
  buffered_ -= count;
}

mac::SstspBeaconBody sign_beacon(const crypto::MuTeslaSigner& signer,
                                 std::int64_t j, std::int64_t timestamp_us,
                                 mac::NodeId sender, std::uint8_t level) {
  mac::SstspBeaconBody body;
  body.timestamp_us = timestamp_us;
  body.interval = j;
  body.level = level;
  const auto bytes =
      mac::serialize_unsecured_beacon(timestamp_us, sender, level);
  const crypto::MuTeslaSigner::Signature sig = signer.sign(
      j, std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  body.mac = sig.mac;
  body.disclosed_key = sig.disclosed_key;
  return body;
}

mac::SstspBeaconBody BeaconSigner::sign(std::int64_t j,
                                        std::int64_t timestamp_us,
                                        mac::NodeId sender,
                                        std::uint8_t level) {
  if (!signer_) {
    signer_ = std::make_unique<crypto::MuTeslaSigner>(chain_, schedule_, j);
  }
  return sign_beacon(*signer_, j, timestamp_us, sender, level);
}

}  // namespace sstsp::core

// Trusted anchor directory.
//
// The paper assumes each node's final hash-chain element h^n(s_i) is
// distributed authentically (by public-key signature, symmetric-key scheme
// [11], or imprinting [12]) before the protocol runs; the distribution
// mechanism itself is explicitly out of scope.  We model it as a shared
// directory populated at network formation — see DESIGN.md "Substitutions".
//
// Every chain of a deployment derives from one seed: node i's is
// crypto::derive_seed(chain_seed, i) over chain_length elements.  So an
// entry stores no chain, only its node id and, once computed, its anchor:
// the n-hash anchor derivation runs the first time someone looks the node
// up (only nodes that ever transmit get looked up).  Entries sit in one
// vector in ascending id order, 40 bytes each.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <optional>
#include <vector>

#include "crypto/hash_chain.h"
#include "crypto/verify_cache.h"
#include "mac/phy_params.h"

namespace sstsp::core {

class KeyDirectory {
 public:
  KeyDirectory(std::uint64_t chain_seed, std::size_t chain_length)
      : chain_seed_(chain_seed), chain_length_(chain_length) {}

  /// Room for `count` entries, for a host that knows how many it registers.
  void reserve(std::size_t count) { entries_.reserve(count); }

  /// Registers a node's chain.  Idempotent per node id.
  void register_node(mac::NodeId id) {
    const std::size_t i = slot(id);
    if (!holds(i, id)) {
      entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(i),
                      Entry{id});
    }
  }

  [[nodiscard]] bool known(mac::NodeId id) const { return holds(slot(id), id); }

  /// The published anchor h^n(s_id); nullopt for unknown nodes.
  [[nodiscard]] std::optional<crypto::Digest> anchor_of(mac::NodeId id) {
    const std::size_t i = slot(id);
    if (!holds(i, id)) return std::nullopt;
    Entry& entry = entries_[i];
    if (!entry.anchor_known) {
      entry.anchor = chain(id).anchor();
      entry.anchor_known = true;
    }
    return entry.anchor;
  }

  /// Chain parameters (used by the owning node to build its signer).
  [[nodiscard]] std::optional<crypto::ChainParams> chain_of(
      mac::NodeId id) const {
    if (!known(id)) return std::nullopt;
    return chain(id);
  }

  /// Network-shared memo for pure µTESLA verification results.  One cache
  /// per directory (= per run::Network); run_sweep workers each build their
  /// own network, so this is never shared across threads.
  [[nodiscard]] crypto::VerifyCache& verify_cache() { return verify_cache_; }

 private:
  struct Entry {
    mac::NodeId id;
    bool anchor_known{false};
    crypto::Digest anchor{};
  };

  [[nodiscard]] crypto::ChainParams chain(mac::NodeId id) const {
    return crypto::ChainParams{crypto::derive_seed(chain_seed_, id),
                               chain_length_};
  }
  /// Index of `id`'s entry, or of where it would go.
  [[nodiscard]] std::size_t slot(mac::NodeId id) const {
    return static_cast<std::size_t>(
        std::ranges::lower_bound(entries_, id, {}, &Entry::id) -
        entries_.begin());
  }
  [[nodiscard]] bool holds(std::size_t i, mac::NodeId id) const {
    return i < entries_.size() && entries_[i].id == id;
  }

  std::uint64_t chain_seed_;
  std::size_t chain_length_;
  std::vector<Entry> entries_;  // ascending id
  crypto::VerifyCache verify_cache_;
};

}  // namespace sstsp::core

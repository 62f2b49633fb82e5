// One-way hash chains and traversal/storage strategies.
//
// Chain convention used throughout the library:
//
//     v_0 = seed,   v_i = H(v_{i-1}),   anchor = v_n
//
// µTESLA key for beacon interval j (1 <= j <= n) is K_j = v_{n-j}; the key of
// interval j-1, v_{n-j+1}, is disclosed inside the interval-j beacon, which
// is why keys are consumed at *descending* chain positions.  Verifying a
// disclosed key means hashing it forward until it meets a previously
// authenticated element (ultimately the anchor): H^{j-1}(K_{j-1}) = v_n.
//
// §3.4 of the paper discusses the storage/recomputation trade-off and cites
// Jakobsson's fractal traversal [6].  We provide all three strategies behind
// one interface so the trade-off itself is testable and benchmarkable
// (bench/abl_overhead.cpp):
//
//   FullStorageTraversal — O(n) digests stored, O(1) hashes per step
//   RecomputeTraversal   — O(1) digests stored, O(n) hashes per step
//   FractalTraversal     — O(log n) digests stored, O(log n) amortized step
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/sha256.h"

namespace sstsp::crypto {

/// H applied once to a digest.
[[nodiscard]] Digest hash_once(const Digest& in);

/// H applied `times` times (times == 0 returns the input).
[[nodiscard]] Digest hash_times(Digest value, std::size_t times);

/// Derives a chain seed from an integer node identity and a scenario seed;
/// deterministic so simulations are reproducible.
[[nodiscard]] Digest derive_seed(std::uint64_t scenario_seed,
                                 std::uint64_t node_id);

/// Immutable chain description: seed and length n.
struct ChainParams {
  Digest seed{};
  std::size_t length{0};

  /// anchor = H^n(seed).
  [[nodiscard]] Digest anchor() const { return hash_times(seed, length); }
  /// v_i = H^i(seed); requires i <= length.
  [[nodiscard]] Digest element(std::size_t i) const {
    return hash_times(seed, i);
  }
};

/// Sequential producer of v_{n-1}, v_{n-2}, ..., v_0 — the order in which a
/// µTESLA signer consumes its keys.
class ChainTraversal {
 public:
  virtual ~ChainTraversal() = default;

  /// Chain position (index i of v_i) that the next call to next() returns;
  /// starts at n-1 and decreases to 0.
  [[nodiscard]] virtual std::size_t position() const = 0;
  [[nodiscard]] bool exhausted() const { return position() == kDone; }

  /// Returns the element at position() and advances.  Precondition:
  /// !exhausted().
  virtual Digest next() = 0;

  /// Number of digests currently resident (storage footprint metric).
  [[nodiscard]] virtual std::size_t stored_digests() const = 0;
  /// Cumulative hash invocations since construction (work metric).
  [[nodiscard]] virtual std::uint64_t hash_ops() const = 0;

 protected:
  static constexpr std::size_t kDone = static_cast<std::size_t>(-1);
};

/// Precomputes the whole chain; the classical memory-heavy option.
class FullStorageTraversal final : public ChainTraversal {
 public:
  explicit FullStorageTraversal(const ChainParams& params);

  [[nodiscard]] std::size_t position() const override { return pos_; }
  Digest next() override;
  [[nodiscard]] std::size_t stored_digests() const override {
    return elements_.size();
  }
  [[nodiscard]] std::uint64_t hash_ops() const override { return hash_ops_; }

 private:
  std::vector<Digest> elements_;  // v_0 .. v_{n-1}
  std::size_t pos_;
  std::uint64_t hash_ops_{0};
};

/// Stores only the seed; recomputes each element from scratch.
class RecomputeTraversal final : public ChainTraversal {
 public:
  explicit RecomputeTraversal(const ChainParams& params)
      : params_(params), pos_(params.length == 0 ? kDone : params.length - 1) {}

  [[nodiscard]] std::size_t position() const override { return pos_; }
  Digest next() override;
  [[nodiscard]] std::size_t stored_digests() const override { return 1; }
  [[nodiscard]] std::uint64_t hash_ops() const override { return hash_ops_; }

 private:
  ChainParams params_;
  std::size_t pos_;
  std::uint64_t hash_ops_{0};
};

/// Fractal (Jakobsson-style) traversal: a logarithmic stack of checkpoints
/// whose gaps halve as the walk descends.  stored_digests() is bounded by
/// ceil(log2 n) + 1 and the amortized hash cost per step is O(log n); both
/// bounds are asserted by tests/crypto_chain_test.cpp.
class FractalTraversal final : public ChainTraversal {
 public:
  explicit FractalTraversal(const ChainParams& params);

  [[nodiscard]] std::size_t position() const override { return pos_; }
  Digest next() override;
  [[nodiscard]] std::size_t stored_digests() const override {
    return checkpoints_.size();
  }
  [[nodiscard]] std::uint64_t hash_ops() const override { return hash_ops_; }

 private:
  struct Checkpoint {
    std::size_t pos;
    Digest value;
  };

  /// Walks the checkpoint stack forward until the top sits at pos_.
  void materialize();

  std::vector<Checkpoint> checkpoints_;  // ascending positions; top <= pos_
  std::size_t pos_;
  std::uint64_t hash_ops_{0};
};

/// Random-access chain reader with equidistant checkpoints — what the
/// in-simulator µTESLA signer uses (a reference node may assume the role at
/// an arbitrary interval).  Costs n hashes once and stores ceil(n/spacing)
/// checkpoints.  From the second access on it keeps one decoded segment (the
/// `spacing` elements following one checkpoint), refilled on a miss: a
/// random access costs at most spacing - 1 hashes, and a walk over
/// consecutive positions about one hash per element.  The default spacing
/// is ceil(sqrt(n)), which balances checkpoint and segment storage.
///
/// A reader that knows it will only read low positions can stop the walk
/// early: built with a `top` below n it costs `top` hashes and keeps the
/// checkpoints up to `top` plus v_top.  Every position stays readable
/// exactly: one above the walk (the anchor included) costs a walk on from
/// v_top.
///
/// Not thread-safe: element() updates the segment behind a const interface.
/// Each chain belongs to one station, so to one simulator shard, and is only
/// ever read from that shard's thread.
class CheckpointedChain {
 public:
  explicit CheckpointedChain(const ChainParams& params);
  /// Walks positions [0, min(top, n)] only; see the class comment.
  CheckpointedChain(const ChainParams& params, std::size_t spacing,
                    std::size_t top = static_cast<std::size_t>(-1));

  /// ceil(sqrt(n)), at least 1.
  [[nodiscard]] static std::size_t sqrt_spacing(std::size_t n);

  [[nodiscard]] const ChainParams& params() const { return params_; }
  /// v_n.
  [[nodiscard]] Digest anchor() const { return element(params_.length); }
  [[nodiscard]] std::size_t spacing() const { return spacing_; }

  /// v_i for any i in [0, n].
  [[nodiscard]] Digest element(std::size_t i) const;

  /// Checkpoints plus v_top (the anchor, unless the walk stopped early): the
  /// storage kept for the chain's lifetime.
  [[nodiscard]] std::size_t stored_digests() const {
    return checkpoints_.size() + 1;
  }
  /// Digests held by the decoded segment (0 before the second access).
  [[nodiscard]] std::size_t segment_digests() const { return segment_.size(); }
  [[nodiscard]] std::uint64_t hash_ops() const { return hash_ops_; }

 private:
  static constexpr std::size_t kNoSegment = static_cast<std::size_t>(-1);

  ChainParams params_;
  std::size_t spacing_;
  std::size_t top_;                  // highest position walked
  std::vector<Digest> checkpoints_;  // v_0, v_spacing, ... <= top_, < n
  Digest tip_{};                     // v_top_; the anchor v_n if top_ == n
  /// v_{k*spacing} .. v_{k*spacing + size - 1} for k = segment_index_.
  mutable std::vector<Digest> segment_;
  mutable std::size_t segment_index_{kNoSegment};
  mutable bool accessed_{false};
  mutable std::uint64_t hash_ops_{0};
};

}  // namespace sstsp::crypto

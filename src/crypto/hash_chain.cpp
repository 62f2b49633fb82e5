#include "crypto/hash_chain.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace sstsp::crypto {

Digest hash_once(const Digest& in) {
  return Sha256::hash(std::span<const std::uint8_t>(in.data(), in.size()));
}

Digest hash_times(Digest value, std::size_t times) {
  for (std::size_t i = 0; i < times; ++i) value = hash_once(value);
  return value;
}

Digest derive_seed(std::uint64_t scenario_seed, std::uint64_t node_id) {
  std::array<std::uint8_t, 24> material{};
  std::memcpy(material.data(), "seed:", 5);
  for (int i = 0; i < 8; ++i) {
    material[8 + i] = static_cast<std::uint8_t>(scenario_seed >> (8 * i));
    material[16 + i] = static_cast<std::uint8_t>(node_id >> (8 * i));
  }
  return Sha256::hash(
      std::span<const std::uint8_t>(material.data(), material.size()));
}

// ---------------------------------------------------------------- full

FullStorageTraversal::FullStorageTraversal(const ChainParams& params)
    : pos_(params.length == 0 ? kDone : params.length - 1) {
  elements_.reserve(params.length);
  Digest v = params.seed;
  if (params.length > 0) elements_.push_back(v);  // v_0
  for (std::size_t i = 1; i < params.length; ++i) {
    v = hash_once(v);
    ++hash_ops_;
    elements_.push_back(v);
  }
}

Digest FullStorageTraversal::next() {
  assert(!exhausted());
  const Digest out = elements_[pos_];
  pos_ = (pos_ == 0) ? kDone : pos_ - 1;
  return out;
}

// ----------------------------------------------------------- recompute

Digest RecomputeTraversal::next() {
  assert(!exhausted());
  const Digest out = hash_times(params_.seed, pos_);
  hash_ops_ += pos_;
  pos_ = (pos_ == 0) ? kDone : pos_ - 1;
  return out;
}

// -------------------------------------------------------------- fractal

FractalTraversal::FractalTraversal(const ChainParams& params)
    : pos_(params.length == 0 ? kDone : params.length - 1) {
  if (params.length > 0) {
    checkpoints_.push_back(Checkpoint{0, params.seed});
  }
}

void FractalTraversal::materialize() {
  // Invariant: checkpoints_ is non-empty, positions strictly ascend, and
  // every checkpoint position is <= pos_.  Walk from the top checkpoint to
  // pos_, dropping a new checkpoint at the midpoint of each remaining gap so
  // the stack depth stays logarithmic in the original gap.
  while (checkpoints_.back().pos < pos_) {
    const Checkpoint& top = checkpoints_.back();
    const std::size_t gap = pos_ - top.pos;
    const std::size_t jump = (gap + 1) / 2;  // at least 1
    Digest v = top.value;
    for (std::size_t i = 0; i < jump; ++i) {
      v = hash_once(v);
      ++hash_ops_;
    }
    checkpoints_.push_back(Checkpoint{top.pos + jump, v});
  }
}

Digest FractalTraversal::next() {
  assert(!exhausted());
  materialize();
  const Digest out = checkpoints_.back().value;
  pos_ = (pos_ == 0) ? kDone : pos_ - 1;
  // Checkpoints above the new position are spent.
  while (!checkpoints_.empty() && checkpoints_.back().pos > pos_ &&
         pos_ != kDone) {
    checkpoints_.pop_back();
  }
  if (pos_ == kDone) checkpoints_.clear();
  return out;
}

// -------------------------------------------------------- checkpointed

CheckpointedChain::CheckpointedChain(const ChainParams& params)
    : CheckpointedChain(params, sqrt_spacing(params.length)) {}

CheckpointedChain::CheckpointedChain(const ChainParams& params,
                                     std::size_t spacing, std::size_t top)
    : params_(params),
      spacing_(spacing == 0 ? 1 : spacing),
      top_(std::min(top, params.length)) {
  const std::size_t n = params_.length;
  checkpoints_.reserve(n == 0 ? 1 : std::min(top_, n - 1) / spacing_ + 1);
  Digest v = params_.seed;
  checkpoints_.push_back(v);  // v_0
  for (std::size_t i = 1; i <= top_; ++i) {
    v = hash_once(v);
    ++hash_ops_;
    if (i % spacing_ == 0 && i < n) checkpoints_.push_back(v);
  }
  tip_ = v;
}

std::size_t CheckpointedChain::sqrt_spacing(std::size_t n) {
  auto s = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
  while (s * s < n) ++s;
  while (s > 1 && (s - 1) * (s - 1) >= n) --s;
  return s == 0 ? 1 : s;
}

Digest CheckpointedChain::element(std::size_t i) const {
  assert(i <= params_.length);
  if (i >= top_) {
    // At or above the walk's end (the anchor, or a position a walk stopped
    // early never reached): walk on from v_top.
    hash_ops_ += i - top_;
    return hash_times(tip_, i - top_);
  }
  const std::size_t idx = i / spacing_;
  const std::size_t base = idx * spacing_;
  if (!accessed_) {
    // The first access reads straight from the checkpoint and leaves the
    // segment unallocated: most signers sign once (they lose the election
    // they contended in), and a segment per such station would outweigh
    // its checkpoints.
    accessed_ = true;
    hash_ops_ += i - base;
    return hash_times(checkpoints_[idx], i - base);
  }
  if (idx != segment_index_) {
    const std::size_t count = std::min(spacing_, params_.length - base);
    segment_.reserve(std::min(spacing_, params_.length));  // once, exactly
    segment_.resize(count);
    segment_[0] = checkpoints_[idx];
    for (std::size_t k = 1; k < count; ++k) {
      segment_[k] = hash_once(segment_[k - 1]);
    }
    hash_ops_ += count - 1;
    segment_index_ = idx;
  }
  return segment_[i - base];
}

}  // namespace sstsp::crypto

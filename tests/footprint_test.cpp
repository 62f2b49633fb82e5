// Heap footprint of a small sharded SSTSP deployment: the bytes per station
// once the network is built, and the bytes the run adds per live sender
// track.  Every global operator new and delete is counted, the way
// core_pipeline_test counts allocations, so a change that lets per-node or
// per-sender state grow back fails here before it shows at n = 1M
// (DESIGN.md §8 lists the objects behind these numbers).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <new>

#include "core/sstsp.h"
#include "runner/parallel_network.h"
#include "runner/scenario.h"

// Sanitizer runtimes supply their own allocator, which a replacement here
// would clash with, so sanitized builds skip the count.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SSTSP_SANITIZED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define SSTSP_SANITIZED_ALLOCATOR 1
#endif
#endif

#ifndef SSTSP_SANITIZED_ALLOCATOR
namespace {
/// Bytes requested from operator new and not yet deleted.  Each block
/// carries its size in a header in front of it.
std::atomic<std::int64_t> g_live_bytes{0};
constexpr std::size_t kHeader = alignof(std::max_align_t);
}  // namespace

// GCC flags free() on memory from operator new once it inlines these, and
// the header arithmetic as out of bounds; here both are the point.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#pragma GCC diagnostic ignored "-Warray-bounds"
#endif
void* operator new(std::size_t size) {
  auto* base = static_cast<unsigned char*>(std::malloc(size + kHeader));
  if (base == nullptr) throw std::bad_alloc();
  std::memcpy(base, &size, sizeof size);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(size),
                         std::memory_order_relaxed);
  return base + kHeader;
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  auto* base = static_cast<unsigned char*>(p) - kHeader;
  std::size_t size = 0;
  std::memcpy(&size, base, sizeof size);
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(size),
                         std::memory_order_relaxed);
  std::free(base);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

namespace sstsp::run {
namespace {

// Budgets: what this layout measures (631 B per station built, 398 B of run
// growth per live sender track, 4 430 tracks) plus 10 %.  The layout before
// DESIGN.md §8's cuts measured 1 155 B and 563 B on the same run, and 695 B
// and 425 B before station counters went 32-bit and station timers moved
// into tick runs.  The run growth also holds the event queue's and the
// channels' growth, so it counts more than the tracks alone.
constexpr double kBuiltBytesPerStation = 695.0;
constexpr double kRunBytesPerTrack = 438.0;

/// spatial-100k's geometry (same density, range and chain length) at 2 000
/// nodes on four shards.
Scenario small_spatial() {
  Scenario s;
  s.protocol = ProtocolKind::kSstsp;
  s.num_nodes = 2000;
  s.duration_s = 0.5;
  s.seed = 1;
  s.sstsp.chain_length = 64;
  s.phy.radio_range_m = 25.0;
  s.phy.placement_radius_m = 50.0 * std::sqrt(s.num_nodes / 100.0);
  s.shards = 4;
  s.threads = 1;
  return s;
}

TEST(Footprint, SmallShardedDeploymentStaysWithinBudget) {
#ifdef SSTSP_SANITIZED_ALLOCATOR
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#else
  const Scenario s = small_spatial();
  const std::int64_t start = g_live_bytes.load();
  auto net = std::make_unique<ParallelNetwork>(s);
  const std::int64_t built = g_live_bytes.load() - start;
  net->run();
  const std::int64_t grown = g_live_bytes.load() - start - built;

  std::size_t tracks = 0;
  for (std::size_t i = 0; i < net->station_count(); ++i) {
    const auto* sstsp =
        dynamic_cast<const core::Sstsp*>(&net->station(i).protocol());
    ASSERT_NE(sstsp, nullptr);
    tracks += sstsp->sender_tracks();
  }
  // The run got far enough for most stations to hear a sender.
  ASSERT_GT(tracks, net->station_count());

  const double per_station =
      static_cast<double>(built) / static_cast<double>(net->station_count());
  const double per_track =
      static_cast<double>(grown) / static_cast<double>(tracks);
  std::cout << "built: " << per_station << " B per station; run: "
            << per_track << " B per live sender track (" << tracks
            << " tracks)\n";
  EXPECT_LE(per_station, kBuiltBytesPerStation);
  EXPECT_LE(per_track, kRunBytesPerTrack);
#endif
}

}  // namespace
}  // namespace sstsp::run

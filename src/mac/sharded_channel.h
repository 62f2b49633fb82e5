// Sharded broadcast channel: the parallel kernel's medium.
//
// A ShardedWorld partitions the deployment into S contiguous regions and
// owns one ShardChannel per region.  Each shard holds only its own stations
// and runs on its own sim::Simulator, so the protocol hot path — backoff,
// carrier sense, transmit, delivery dispatch — touches no shared mutable
// state.  Shards interact exclusively at window barriers driven by
// sim::ShardExecutor:
//
//   * transmit() appends a local transmission record, posts announcement
//     copies into per-target outboxes, and schedules a finish-marker event
//     at the frame's end in the shard's own queue.  The marker keeps the
//     global t_min from jumping past the frame's end, which is what makes
//     the deferred evaluation below exact.
//   * exchange (serial, per window): the world drains every outbox in
//     shard-index order, appending announcements to the target shards.
//   * settle (parallel, per shard per window): each shard evaluates every
//     known transmission whose end lies inside the closed window — in
//     (end, tx id) order — against its OWN stations only, by the reception
//     rule both simulated channels share (mac::RadioMedium::evaluate,
//     radio_medium.h), and schedules the frame's receptions on the shard's
//     simulator as one queue entry.
//   * commit (serial, per window): per-receiver-shard corruption verdicts
//     are OR-ed across shards so collided_transmissions counts each
//     transmission once, exactly like the single-kernel channel.
//
// Exactness: with lookahead L = min(cca_time, rx_latency_min), a remote
// transmission starting inside the current window is detectable by carrier
// sense only from start + prop + cca >= E_k, and delivers only from
// end + prop + rx_latency >= E_k — both beyond the window's open end — so
// deferring its visibility to the barrier changes nothing any station can
// observe.  DESIGN.md §12 carries the full argument and the one documented
// deviation from mac::Channel (identity-keyed RNG draws).
//
// Determinism: every cross-shard draw — PER, latency and fault verdicts —
// is keyed by (tx id, receiver node id) off the shard simulator's root RNG,
// never by thread or arrival order, and tx ids are (sender node id,
// per-sender sequence), so results are bit-identical for any shard and
// thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mac/cell_grid.h"
#include "mac/radio_medium.h"
#include "sim/simulator.h"

namespace sstsp::mac {

class ShardedWorld;

class ShardChannel final : public RadioMedium {
 public:
  ShardChannel(ShardedWorld& world, int shard, sim::Simulator& sim,
               const PhyParams& phy);

  std::uint64_t transmit(std::size_t idx, Frame frame,
                         sim::SimTime duration) override;

  // Deterministic load counter (virtual-time-derived, safe to publish
  // under the bit-identity contract).
  [[nodiscard]] std::uint64_t announcements_sent() const {
    return announcements_sent_;
  }
  /// This shard's fault-verdict tallies (the injector's stats() holds none
  /// of them).
  [[nodiscard]] const fault::FaultStats& fault_stats() const {
    return fault_stats_;
  }

 private:
  friend class ShardedWorld;

  struct Announcement {
    int target;
    Tx rec;
  };

  /// The partition's next member of this shard: stations must be added in
  /// ascending global-node-id order across the whole world (the runner
  /// builds them that way).  So ascending local index is ascending global
  /// id, and the shared grid visits receivers in global-id order; a remote
  /// sender outside the shard's grid is clamped to its nearest cell.
  [[nodiscard]] NodeId next_station_id() const override;

  /// Identity-keyed like the PER and latency draws: one substream per
  /// (transmission, receiver) pair under the plan's "faults" substream,
  /// tallied into this shard's own stats.
  [[nodiscard]] fault::DeliveryVerdict fault_verdict(const Tx& tx,
                                                     NodeId rx) override;

  /// Barrier hook, driven by the world.
  void settle(sim::SimTime window_end);

  ShardedWorld& world_;
  int shard_;
  std::vector<std::uint32_t> tx_seq_;  ///< per station: next tx sequence
  std::vector<Announcement> outbox_;   ///< drained serially at exchange
  /// (tx id, any-local-receiver-corrupted) for this window's evaluations;
  /// drained serially at commit.
  std::vector<std::pair<std::uint64_t, bool>> eval_results_;
  std::vector<Tx*> due_;     // settle scratch
  std::vector<int> targets_;  // transmit scratch
  std::uint64_t announcements_sent_{0};
  fault::FaultStats fault_stats_;
};

/// Coordinator: owns the shards, the spatial partition, and the barrier
/// protocol.  Not itself a Medium — stations attach to their shard.
class ShardedWorld {
 public:
  /// `sims` must outlive the world: one simulator per shard, all seeded
  /// identically (sim::ShardExecutor guarantees both).
  ShardedWorld(const PhyParams& phy, std::vector<sim::Simulator*> sims);
  ~ShardedWorld();

  ShardedWorld(const ShardedWorld&) = delete;
  ShardedWorld& operator=(const ShardedWorld&) = delete;

  /// Partitions `positions` (indexed by global node id) into contiguous
  /// shard regions balanced by station count: grid-column strips when a
  /// finite radio range is configured, node-id blocks otherwise.  Must run
  /// before any add_station.
  void partition(const std::vector<Position>& positions);

  [[nodiscard]] int shard_count() const {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] int shard_of(std::size_t global) const {
    return shard_of_[global];
  }
  [[nodiscard]] ShardChannel& channel(int shard) { return *shards_[shard]; }

  /// Conservative lookahead this world's physics supports (min of CCA
  /// latency and minimum receive latency); pass to sim::ShardExecutor.
  [[nodiscard]] sim::SimTime lookahead() const;

  // Barrier protocol, in per-window order (wire into ShardExecutor::run).
  void exchange(sim::SimTime window_end);
  void settle(int shard, sim::SimTime window_end);
  void commit(sim::SimTime window_end);

  /// World-wide channel stats: per-shard counters summed, plus the
  /// commit-phase collision count.
  [[nodiscard]] ChannelStats stats() const;

  [[nodiscard]] std::uint64_t announcements_total() const;
  /// Every shard's fault-verdict tallies, summed.
  [[nodiscard]] fault::FaultStats fault_stats() const;

  /// Shards whose stations can hear a node at this x coordinate — the
  /// announce fan-out set: the shards owning any grid column in
  /// [cx-1, cx+1], or all shards in the single-hop (radio_range_m == 0)
  /// configuration.  The runner keys per-shard KeyDirectory registration
  /// off this (NOT off home-shard adjacency: when shards outnumber grid
  /// columns, neighbouring columns can map to non-consecutive shard
  /// indices).
  void announce_targets(double x_m, std::vector<int>& out) const;

 private:
  friend class ShardChannel;

  [[nodiscard]] NodeId next_global_id(int shard) const;

  PhyParams phy_;
  std::vector<sim::Simulator*> sims_;
  std::vector<std::unique_ptr<ShardChannel>> shards_;
  std::vector<int> shard_of_;  ///< global node id -> shard
  /// Per-shard members in ascending global id (add_station consumes these).
  std::vector<std::vector<NodeId>> members_;

  // Column partition (finite range only): the x axis of a mac::CellGrid
  // fitted to every station, without its cells.
  bool spatial_{false};
  CellGrid::Axis columns_;
  std::vector<int> col_shard_;  ///< grid column -> owning shard

  std::uint64_t collided_{0};
  /// commit scratch: this window's (tx id, corrupted) pairs over all shards.
  std::vector<std::pair<std::uint64_t, bool>> verdicts_;
};

}  // namespace sstsp::mac

#include "mac/sharded_channel.h"

#include <algorithm>
#include <cassert>

#include "obs/profiler.h"

namespace sstsp::mac {

ShardChannel::ShardChannel(ShardedWorld& world, int shard,
                           sim::Simulator& sim, const PhyParams& phy)
    : RadioMedium(sim, phy), world_(world), shard_(shard) {}

namespace {

/// The substream index of one (transmission, receiver) pair.
std::uint64_t delivery_key(std::uint64_t tx_id, NodeId rx) {
  return tx_id ^ (static_cast<std::uint64_t>(rx) * 0x9E3779B97F4A7C15ULL);
}

}  // namespace

NodeId ShardChannel::next_station_id() const {
  return world_.next_global_id(shard_);
}

fault::DeliveryVerdict ShardChannel::fault_verdict(const Tx& tx, NodeId rx) {
  sim::Rng draws = sim_.substream("faults", fault_->plan().seed)
                       .substream("deliv", delivery_key(tx.id, rx));
  return fault_->on_delivery(tx.end.to_sec(), tx.frame->sender, rx, draws,
                             fault_stats_);
}

std::uint64_t ShardChannel::transmit(std::size_t idx, Frame frame,
                                     sim::SimTime duration) {
  // Identity-keyed transmission id: (sender node id, per-sender sequence).
  // Unlike mac::Channel's global counter this never depends on the global
  // interleaving of transmit() calls, so it is stable across shard layouts.
  tx_seq_.resize(stations_.size());
  const std::uint64_t id =
      (static_cast<std::uint64_t>(stations_[idx].id) << 24) | tx_seq_[idx]++;
  const Tx& rec = send(idx, id, std::move(frame), duration);

  world_.announce_targets(rec.sender_pos.x_m, targets_);
  for (const int t : targets_) {
    if (t == shard_) continue;
    outbox_.push_back(Announcement{t, rec});
    ++announcements_sent_;
  }

  // Finish marker: a no-op event at the frame's end.  It pins the global
  // t_min at or below `end` until the window containing the end has run, so
  // the barrier that evaluates this transmission always lies at a window
  // edge E > end — and every delivery it schedules (>= end + rx latency
  // >= E by the lookahead bound) still lands in this shard's future.
  sim_.at(rec.end, [] {});
  return id;
}

void ShardChannel::settle(sim::SimTime window_end) {
  obs::Span span(profiler_, obs::Phase::kChannelDelivery);
  due_.clear();
  for (Tx& tx : txs_) {
    if (!tx.evaluated && tx.end < window_end) due_.push_back(&tx);
  }
  // (end, tx id) order: layout-independent, and the order the single
  // kernel's finish events would fire in up to same-instant ties.
  std::sort(due_.begin(), due_.end(), [](const Tx* a, const Tx* b) {
    if (a->end != b->end) return a->end < b->end;
    return a->id < b->id;
  });
  // Identity-keyed draws: one substream per (transmission, receiver) pair,
  // derived from the shard simulator's root RNG (identical in every shard).
  // evaluate() draws the PER verdict, then the receive latency, as
  // mac::Channel does, so a degenerate configuration (PER = 0, fixed
  // latency) reproduces its deliveries exactly.
  const auto draw = [this](std::uint64_t tx_id, NodeId rx) {
    return sim_.substream("deliv", delivery_key(tx_id, rx));
  };
  // A fault delay can move a reception before the frame's end (a negative
  // copy spacing); the queue runs it at the shard's clock instead.  Lining
  // that clock up with the window edge keeps the instant independent of the
  // partition.  Every other reception lands at or after the edge anyway.
  sim_.advance_to(window_end);
  for (Tx* tx : due_) eval_results_.emplace_back(tx->id, evaluate(*tx, draw));
  prune(window_end);
}

ShardedWorld::ShardedWorld(const PhyParams& phy,
                           std::vector<sim::Simulator*> sims)
    : phy_(phy), sims_(std::move(sims)) {
  shards_.reserve(sims_.size());
  for (std::size_t s = 0; s < sims_.size(); ++s) {
    shards_.push_back(std::make_unique<ShardChannel>(
        *this, static_cast<int>(s), *sims_[s], phy_));
  }
}

ShardedWorld::~ShardedWorld() = default;

void ShardedWorld::partition(const std::vector<Position>& positions) {
  const std::size_t n = positions.size();
  const int num_shards = shard_count();
  shard_of_.assign(n, 0);
  members_.assign(static_cast<std::size_t>(num_shards), {});
  spatial_ = phy_.radio_range_m > 0.0 && n > 0;
  if (spatial_) {
    double min_x = positions[0].x_m;
    double max_x = positions[0].x_m;
    for (const Position& p : positions) {
      min_x = std::min(min_x, p.x_m);
      max_x = std::max(max_x, p.x_m);
    }
    columns_ = CellGrid::Axis::fit(min_x, max_x, phy_.radio_range_m);
    const int ncols = columns_.cells;
    std::vector<std::size_t> col_count(static_cast<std::size_t>(ncols), 0);
    std::vector<int> col_of(n);
    for (std::size_t i = 0; i < n; ++i) {
      const int cx = columns_.index(positions[i].x_m);
      col_of[i] = cx;
      ++col_count[static_cast<std::size_t>(cx)];
    }
    // Contiguous column strips balanced by station count: close a strip
    // once the running total reaches the shard's pro-rata quota.  Shards
    // can own zero columns when there are fewer columns than shards.
    col_shard_.assign(static_cast<std::size_t>(ncols), 0);
    const double per_shard =
        static_cast<double>(n) / static_cast<double>(num_shards);
    int shard = 0;
    std::size_t cum = 0;
    for (int c = 0; c < ncols; ++c) {
      while (shard < num_shards - 1 &&
             static_cast<double>(cum) >=
                 per_shard * static_cast<double>(shard + 1)) {
        ++shard;
      }
      col_shard_[static_cast<std::size_t>(c)] = shard;
      cum += col_count[static_cast<std::size_t>(c)];
    }
    for (std::size_t i = 0; i < n; ++i) {
      shard_of_[i] = col_shard_[static_cast<std::size_t>(col_of[i])];
    }
  } else {
    // Single-hop world: no geometry to exploit, contiguous id blocks.
    for (std::size_t i = 0; i < n; ++i) {
      shard_of_[i] = static_cast<int>(
          (i * static_cast<std::size_t>(num_shards)) / std::max<std::size_t>(n, 1));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    members_[static_cast<std::size_t>(shard_of_[i])].push_back(
        static_cast<NodeId>(i));
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->reserve_stations(members_[s].size());
  }
}

NodeId ShardedWorld::next_global_id(int shard) const {
  const auto& m = members_[static_cast<std::size_t>(shard)];
  const std::size_t next = shards_[static_cast<std::size_t>(shard)]
                               ->station_count();
  assert(next < m.size() && "add_station order disagrees with partition");
  return m[next];
}

sim::SimTime ShardedWorld::lookahead() const {
  return std::min(phy_.cca_time, phy_.rx_latency_min);
}

void ShardedWorld::announce_targets(double x_m, std::vector<int>& out) const {
  out.clear();
  if (!spatial_) {
    for (int s = 0; s < shard_count(); ++s) out.push_back(s);
    return;
  }
  const int cx = columns_.index(x_m);
  for (int c = std::max(0, cx - 1); c <= std::min(columns_.cells - 1, cx + 1);
       ++c) {
    const int s = col_shard_[static_cast<std::size_t>(c)];
    // col_shard_ is non-decreasing, so duplicates are adjacent.
    if (out.empty() || out.back() != s) out.push_back(s);
  }
}

void ShardedWorld::exchange(sim::SimTime /*window_end*/) {
  // Shard-index order, outbox entries in their local (time, call) order: a
  // deterministic, layout-stable commit order for every announcement.
  for (const auto& sh : shards_) {
    for (const ShardChannel::Announcement& a : sh->outbox_) {
      shards_[static_cast<std::size_t>(a.target)]->retain(a.rec);
    }
    sh->outbox_.clear();
  }
}

void ShardedWorld::settle(int shard, sim::SimTime window_end) {
  shards_[static_cast<std::size_t>(shard)]->settle(window_end);
}

void ShardedWorld::commit(sim::SimTime /*window_end*/) {
  verdicts_.clear();
  for (const auto& sh : shards_) {
    verdicts_.insert(verdicts_.end(), sh->eval_results_.begin(),
                     sh->eval_results_.end());
    sh->eval_results_.clear();
  }
  if (verdicts_.empty()) return;
  // A transmission's receivers can span shards; OR the per-shard verdicts
  // so a collision increments the counter once, like the single kernel.
  std::sort(verdicts_.begin(), verdicts_.end());
  for (std::size_t i = 0; i < verdicts_.size();) {
    std::size_t j = i;
    bool corrupted = false;
    while (j < verdicts_.size() && verdicts_[j].first == verdicts_[i].first) {
      corrupted = corrupted || verdicts_[j].second;
      ++j;
    }
    if (corrupted) ++collided_;
    i = j;
  }
}

ChannelStats ShardedWorld::stats() const {
  ChannelStats agg;
  for (const auto& sh : shards_) agg += sh->stats();
  // Corruption verdicts are OR-ed across shards at commit, so the world
  // counts each collided transmission once.
  agg.collided_transmissions = collided_;
  return agg;
}

fault::FaultStats ShardedWorld::fault_stats() const {
  fault::FaultStats total;
  for (const auto& sh : shards_) total += sh->fault_stats();
  return total;
}

std::uint64_t ShardedWorld::announcements_total() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->announcements_sent();
  return total;
}

}  // namespace sstsp::mac

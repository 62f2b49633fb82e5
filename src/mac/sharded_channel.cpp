#include "mac/sharded_channel.h"

#include <algorithm>
#include <cassert>
#include <ranges>

#include "mac/fan_out.h"
#include "obs/instruments.h"

namespace sstsp::mac {

ShardChannel::ShardChannel(ShardedWorld& world, int shard,
                           sim::Simulator& sim, const PhyParams& phy)
    : Medium(phy), world_(world), shard_(shard), sim_(sim) {}

std::size_t ShardChannel::add_station(Position pos, RxHandler handler) {
  LocalStation st;
  st.global = world_.next_global_id(shard_);
  st.pos = pos;
  st.handler = std::move(handler);
  stations_.push_back(std::move(st));
  grid_.reset();
  return stations_.size() - 1;
}

void ShardChannel::set_listening(std::size_t idx, bool listening) {
  stations_[idx].listening = listening;
}

void ShardChannel::prune(sim::SimTime now) {
  // Same retention horizon as mac::Channel, plus the evaluated flag: a
  // record may be due for barrier evaluation later than its own end, and an
  // unevaluated record must also pin every record overlapping it (any tx
  // overlapping a prunable one ended early enough to be evaluated already —
  // the window span is microseconds, the horizon a millisecond).
  const sim::SimTime horizon = now - phy_.ifs_guard - sim::SimTime::from_ms(1);
  while (!txs_.empty() && txs_.front().end < horizon &&
         txs_.front().evaluated) {
    txs_.pop_front();
  }
}

std::uint64_t ShardChannel::transmit(std::size_t idx, Frame frame,
                                     sim::SimTime duration) {
  const sim::SimTime now = sim_.now();
  prune(now);

  LocalStation& st = stations_[idx];
  // Identity-keyed transmission id: (sender node id, per-sender sequence).
  // Unlike mac::Channel's global counter this never depends on the global
  // interleaving of transmit() calls, so it is stable across shard layouts.
  const std::uint64_t id =
      (static_cast<std::uint64_t>(st.global) << 24) | st.tx_seq++;
  frame.trace_id = id;

  TxRec rec;
  rec.id = id;
  rec.sender = st.global;
  rec.sender_pos = st.pos;
  rec.start = now;
  rec.end = now + duration;
  rec.frame = std::make_shared<const Frame>(std::move(frame));

  ++stats_.transmissions;
  stats_.bytes_on_air += rec.frame->air_bytes;
  st.hist[1] = st.hist[0];
  st.hist[0] = TxWin{now, rec.end};

  world_.announce_targets(st.pos.x_m, targets_);
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

  txs_.push_back(std::move(rec));
  peak_txs_ = std::max(peak_txs_, txs_.size());
  return id;
}

bool ShardChannel::would_detect_busy(std::size_t idx, sim::SimTime at) const {
  const LocalStation& me = stations_[idx];
  for (const TxRec& tx : txs_) {
    if (tx.sender == me.global) continue;
    if (senses(tx.sender_pos, me.pos, tx.start, tx.end, at)) return true;
  }
  return false;
}

void ShardChannel::accept(const TxRec& rec) {
  txs_.push_back(rec);
  peak_txs_ = std::max(peak_txs_, txs_.size());
}

void ShardChannel::settle(sim::SimTime window_end) {
  due_.clear();
  for (TxRec& tx : txs_) {
    if (!tx.evaluated && tx.end < window_end) due_.push_back(&tx);
  }
  // (end, tx id) order: layout-independent, and the order the single
  // kernel's finish events would fire in up to same-instant ties.
  std::sort(due_.begin(), due_.end(), [](const TxRec* a, const TxRec* b) {
    if (a->end != b->end) return a->end < b->end;
    return a->id < b->id;
  });
  for (TxRec* tx : due_) {
    tx->evaluated = true;
    evaluate(*tx);
  }
  prune(window_end);
}

void ShardChannel::evaluate(const TxRec& tx) {
  const double nominal_us = nominal_delay_us(tx.end - tx.start);
  const bool finite_range = phy_.radio_range_m > 0.0;
  bool corrupted_any = false;

  // Interferer list, built once per transmission (the shape of mac::Channel's
  // overlap_senders_): every other known transmission overlapping this one
  // in time — the barrier exchange guarantees the set is complete by now.
  // With a finite range only senders within 2r of this frame's sender can
  // be audible at a receiver that hears this frame (triangle inequality);
  // the relative margin keeps rounding from ever dropping a real one.
  const double reach = 2.0 * phy_.radio_range_m * (1.0 + 1e-9);
  interferers_.clear();
  for (const TxRec& other : txs_) {
    if (other.id == tx.id) continue;
    if (other.start >= tx.end || other.end <= tx.start) continue;
    if (finite_range && distance_m(other.sender_pos, tx.sender_pos) > reach) {
      continue;
    }
    interferers_.push_back(other.sender_pos);
  }

  if (finite_range) {
    if (!grid_) {
      grid_.emplace(stations_ | std::views::transform(&LocalStation::pos),
                    phy_.radio_range_m);
    }
    grid_->neighbours(tx.sender_pos, candidates_);
  }
  // The shard's whole fan-out of this frame is one queue entry.
  auto fan = std::make_unique<FanOut<LocalStation>>(
      stations_, tx.frame, nominal_us, tx.start,
      finite_range ? candidates_.size() : stations_.size());

  auto consider_receiver = [&](std::size_t s) {
    LocalStation& rx = stations_[s];
    if (rx.global == tx.sender) return;
    if (!rx.listening) return;
    const double d = distance_m(tx.sender_pos, rx.pos);
    if (finite_range && d > phy_.radio_range_m) return;
    // Half duplex, evaluated after the fact: of the receiver's last two
    // transmissions, the one current at this frame's end decides (the
    // receiver cannot have started two transmissions inside one lookahead
    // window — frames are tens of microseconds, the window is three).
    const TxWin& h = rx.hist[0].start < tx.end ? rx.hist[0] : rx.hist[1];
    if (h.start < tx.end && h.end > tx.start) {
      ++stats_.half_duplex_suppressed;
      return;
    }
    // Per-receiver interference: any listed sender audible here.
    bool corrupted = false;
    for (const Position& o : interferers_) {
      if (finite_range && distance_m(o, rx.pos) > phy_.radio_range_m) {
        continue;
      }
      corrupted = true;
      break;
    }
    if (corrupted) {
      corrupted_any = true;
      return;
    }
    // Identity-keyed draws: one substream per (transmission, receiver)
    // pair, derived from the shard simulator's root RNG (identical in
    // every shard).  Draw order within the pair matches mac::Channel —
    // PER verdict, then receive latency — so a degenerate configuration
    // (PER = 0, fixed latency) reproduces its deliveries exactly.
    sim::Rng draw = sim_.substream(
        "deliv", tx.id ^ (static_cast<std::uint64_t>(rx.global) *
                          0x9E3779B97F4A7C15ULL));
    if (draw.bernoulli(phy_.packet_error_rate)) {
      ++stats_.per_drops;
      return;
    }
    const sim::SimTime prop = propagation_from_distance(d);
    const sim::SimTime rx_latency = sim::SimTime::from_us_double(draw.uniform(
        phy_.rx_latency_min.to_us(), phy_.rx_latency_max.to_us()));

    fan->add(s, tx.end + prop + rx_latency, {}, stats_, instruments_);
  };

  if (finite_range) {
    for (const std::uint32_t s : candidates_) consider_receiver(s);
  } else {
    for (std::size_t s = 0; s < stations_.size(); ++s) consider_receiver(s);
  }
  sim_.schedule_batch(std::move(fan));
  eval_results_.emplace_back(tx.id, corrupted_any);
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
      shards_[static_cast<std::size_t>(a.target)]->accept(a.rec);
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

std::uint64_t ShardedWorld::announcements_total() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->announcements_sent();
  return total;
}

}  // namespace sstsp::mac

#include "mac/channel.h"

#include <algorithm>
#include <cassert>
#include <ranges>

#include "fault/injector.h"
#include "mac/fan_out.h"

namespace sstsp::mac {

Channel::Channel(sim::Simulator& sim, const PhyParams& phy)
    : Medium(phy), sim_(sim), rng_(sim.substream("channel", 0)) {}

std::size_t Channel::add_station(Position pos, RxHandler handler) {
  stations_.push_back(StationRec{pos, std::move(handler), true,
                                 sim::SimTime::never(), sim::SimTime::zero()});
  grid_.reset();
  return stations_.size() - 1;
}

void Channel::set_listening(std::size_t idx, bool listening) {
  stations_[idx].listening = listening;
}

void Channel::prune_old(sim::SimTime now) {
  // Transmissions are appended in start order; drop the ones that can no
  // longer influence carrier sense, interference, or pending deliveries.
  const sim::SimTime horizon =
      now - phy_.ifs_guard - sim::SimTime::from_ms(1);
  while (!recent_.empty() && recent_.front().end < horizon &&
         recent_.front().delivered_processed) {
    recent_.pop_front();
  }
}

std::uint64_t Channel::transmit(std::size_t idx, Frame frame,
                                sim::SimTime duration) {
  const sim::SimTime now = sim_.now();
  prune_old(now);

  Tx tx;
  tx.id = next_tx_id_++;
  tx.sender = idx;
  tx.frame = std::move(frame);
  // Every time on air gets its own lifecycle ID, even for a byte-identical
  // replayed frame: the receivers' events describe *this* transmission.
  tx.frame.trace_id = tx.id;
  tx.start = now;
  tx.end = now + duration;

  ++stats_.transmissions;
  stats_.bytes_on_air += tx.frame.air_bytes;
  stations_[idx].last_tx_start = now;
  stations_[idx].last_tx_end = tx.end;

  const std::uint64_t id = tx.id;
  recent_.push_back(std::move(tx));
  sim_.at(recent_.back().end, [this, id] { finish_transmission(id); });
  return id;
}

Channel::Tx* Channel::find_tx(std::uint64_t tx_id) {
  // Transmission ids are assigned monotonically and recent_ is kept in push
  // order, so the record is found by binary search instead of a linear scan.
  auto it = std::lower_bound(
      recent_.begin(), recent_.end(), tx_id,
      [](const Tx& t, std::uint64_t id) { return t.id < id; });
  if (it == recent_.end() || it->id != tx_id) return nullptr;
  return &*it;
}

void Channel::finish_transmission(std::uint64_t tx_id) {
  obs::Span span(profiler_, obs::Phase::kChannelDelivery);
  Tx* tx = find_tx(tx_id);
  assert(tx != nullptr && "transmission record pruned before completion");
  tx->delivered_processed = true;

  const std::size_t sender = tx->sender;
  const NodeId sender_id = tx->frame.sender;
  const sim::SimTime start = tx->start;
  const sim::SimTime end = tx->end;
  const double nominal_us = nominal_delay_us(end - start);
  const Position& sender_pos = stations_[sender].pos;
  const bool finite_range = phy_.radio_range_m > 0.0;

  // Transmissions overlapping this frame, collected once instead of
  // re-scanning recent_ for every receiver.
  overlap_senders_.clear();
  for (const Tx& other : recent_) {
    if (other.id == tx_id) continue;
    if (other.start >= end || other.end <= start) continue;  // no overlap
    overlap_senders_.push_back(other.sender);
  }

  if (finite_range) {
    if (!grid_) {
      grid_.emplace(stations_ | std::views::transform(&StationRec::pos),
                    phy_.radio_range_m);
    }
    grid_->neighbours(sender_pos, candidates_);
  }

  // The whole fan-out is one queue entry holding one shared frame (the deque
  // entry may be pruned before the receptions fire).
  const std::size_t expected =
      finite_range ? candidates_.size() : stations_.size() - 1;
  auto fan = std::make_unique<FanOut<StationRec>>(
      stations_, std::make_shared<const Frame>(tx->frame), nominal_us, start,
      expected);
  bool lost_to_interference = false;

  auto consider_receiver = [&](std::size_t s) {
    if (s == sender) return;
    StationRec& rx = stations_[s];
    if (!rx.listening) return;
    const double d = distance_m(sender_pos, rx.pos);
    if (finite_range && d > phy_.radio_range_m) return;
    // Half duplex: if the receiver transmitted during this frame it heard
    // nothing (its own tx would also have collided, but cover the edge
    // where it started transmitting mid-frame).
    if (rx.last_tx_start < end && rx.last_tx_end > start) {
      ++stats_.half_duplex_suppressed;
      return;
    }
    // Interference is per-receiver: a concurrent transmission corrupts this
    // frame only where both are audible (this is what produces the hidden
    // terminal problem once a radio range is configured).
    bool corrupted = false;
    if (finite_range) {
      for (const std::size_t o : overlap_senders_) {
        if (distance_m(stations_[o].pos, rx.pos) <= phy_.radio_range_m) {
          corrupted = true;
          break;
        }
      }
    } else {
      corrupted = !overlap_senders_.empty();
    }
    if (corrupted) {
      lost_to_interference = true;
      return;
    }
    if (rng_.bernoulli(phy_.packet_error_rate)) {
      ++stats_.per_drops;
      return;
    }
    // Injected faults come after the physical-layer model: the injector's
    // own RNG substream issues the verdict, so the channel's draw sequence
    // above stays byte-identical with and without a plan attached.
    fault::DeliveryVerdict verdict;
    if (fault_ != nullptr) {
      verdict = fault_->on_delivery(sim_.now().to_sec(), sender_id,
                                    static_cast<NodeId>(s));
      if (verdict.drop) return;
    }
    const sim::SimTime prop = propagation_from_distance(d);
    const sim::SimTime rx_latency = sim::SimTime::from_us_double(rng_.uniform(
        phy_.rx_latency_min.to_us(), phy_.rx_latency_max.to_us()));
    fan->add(s, end + prop + rx_latency, verdict, stats_, instruments_);
  };

  if (finite_range) {
    for (const std::uint32_t s : candidates_) consider_receiver(s);
  } else {
    for (std::size_t s = 0; s < stations_.size(); ++s) consider_receiver(s);
  }
  if (lost_to_interference) ++stats_.collided_transmissions;
  sim_.schedule_batch(std::move(fan));
  // Completed records are reclaimed here as well, so delivered entries do
  // not linger until the next transmit() call.
  prune_old(sim_.now());
}

bool Channel::would_detect_busy(std::size_t idx, sim::SimTime at) const {
  const Position& me = stations_[idx].pos;
  for (const Tx& tx : recent_) {
    if (tx.sender == idx) continue;
    if (senses(stations_[tx.sender].pos, me, tx.start, tx.end, at)) {
      return true;
    }
  }
  return false;
}

}  // namespace sstsp::mac

#include "mac/radio_medium.h"

#include <algorithm>
#include <ranges>

namespace sstsp::mac {

void FanOut::deliver(const Entry& e) {
  const RadioStation& rx = stations_[e.receiver];
  if (!rx.listening) return;
  rx.receiver->receive(e.copy == 0 ? *frame_ : *corrupted_,
                       RxInfo{e.at, nominal_delay_us_, tx_start_});
}

RadioMedium::RadioMedium(sim::Simulator& sim, const PhyParams& phy)
    : Medium(phy),
      sim_(sim),
      sense_tail_(phy.radio_range_m > 0.0
                      ? propagation_from_distance(phy.radio_range_m) +
                            phy.ifs_guard
                      : sim::SimTime::zero()) {}

std::size_t RadioMedium::add_station(Position pos, Receiver& receiver) {
  stations_.push_back(
      RadioStation{next_station_id(), true, pos, &receiver, {}});
  grid_.reset();
  return stations_.size() - 1;
}

void RadioMedium::set_listening(std::size_t idx, bool listening) {
  stations_[idx].listening = listening;
}

RadioMedium::Tx& RadioMedium::send(std::size_t idx, std::uint64_t id,
                                   Frame frame, sim::SimTime duration) {
  const sim::SimTime now = sim_.now();
  prune(now);
  RadioStation& st = stations_[idx];
  frame.trace_id = id;
  ++stats_.transmissions;
  stats_.bytes_on_air += frame.air_bytes;
  st.sent[1] = st.sent[0];
  st.sent[0] = AirTime{now, now + duration};
  return retain(Tx{id, st.id, st.pos, now, now + duration,
                   std::make_shared<const Frame>(std::move(frame))});
}

RadioMedium::Tx& RadioMedium::retain(Tx tx) {
  txs_.push_back(std::move(tx));
  peak_txs_ = std::max(peak_txs_, txs_.size());
  return txs_.back();
}

void RadioMedium::prune(sim::SimTime now) {
  // A record may be evaluated later than its own end (at a shard's
  // barrier), so only evaluated records go.  An unevaluated record also
  // pins every record overlapping it: any record overlapping a prunable one
  // ended early enough to be evaluated already (a barrier window spans
  // microseconds, the horizon a millisecond).
  const sim::SimTime horizon = now - phy_.ifs_guard - sim::SimTime::from_ms(1);
  while (!txs_.empty() && txs_.front().end < horizon &&
         txs_.front().evaluated) {
    txs_.pop_front();
  }
}

bool RadioMedium::senses(const Position& sender, const Position& listener,
                         sim::SimTime start, sim::SimTime end,
                         sim::SimTime at) const {
  const bool finite_range = phy_.radio_range_m > 0.0;
  if (at < start + phy_.cca_time) return false;
  if (finite_range && at > end + sense_tail_) return false;
  const double d = distance_m(sender, listener);
  if (finite_range && d > phy_.radio_range_m) return false;
  const sim::SimTime prop = propagation_from_distance(d);
  return at >= start + prop + phy_.cca_time &&
         at <= end + prop + phy_.ifs_guard;
}

bool RadioMedium::would_detect_busy(std::size_t idx, sim::SimTime at) const {
  const RadioStation& me = stations_[idx];
  for (const Tx& tx : txs_) {
    if (tx.sender == me.id) continue;
    if (senses(tx.sender_pos, me.pos, tx.start, tx.end, at)) return true;
  }
  return false;
}

void RadioMedium::collect(const Tx& tx) {
  const bool finite_range = phy_.radio_range_m > 0.0;
  const double reach = 2.0 * phy_.radio_range_m * (1.0 + 1e-9);
  interferers_.clear();
  for (const Tx& other : txs_) {
    if (other.id == tx.id) continue;
    if (other.start >= tx.end || other.end <= tx.start) continue;
    if (finite_range && distance_m(other.sender_pos, tx.sender_pos) > reach) {
      continue;
    }
    interferers_.push_back(other.sender_pos);
  }
  if (finite_range) {
    if (!grid_) {
      grid_.emplace(stations_ | std::views::transform(&RadioStation::pos),
                    phy_.radio_range_m);
    }
    grid_->neighbours(tx.sender_pos, candidates_);
  }
}

}  // namespace sstsp::mac

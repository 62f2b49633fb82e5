// RadioMedium: the reception rule both simulated channels share.
//
// mac::Channel (channel.h) and mac::ShardChannel (sharded_channel.h) differ
// only in how a transmission becomes known and when its receivers are
// decided: the single kernel's channel decides each frame at its end, a
// shard at the first window barrier after it.  Everything they do per
// station and per frame lives here, once:
//
//   * A transmission occupies the medium for its full on-air duration.
//     Overlapping transmissions corrupt each other — no capture effect.
//     Corruption is decided per receiver: a concurrent frame destroys this
//     one only where both senders are audible, so with a finite radio range
//     (PhyParams::radio_range_m) the model exhibits the hidden-terminal
//     problem; in the single-hop configuration every overlap corrupts
//     everywhere.
//   * Carrier sense honours the CCA latency: a station whose backoff timer
//     expires less than cca_time after another transmission started cannot
//     have detected it and will transmit anyway (-> collision), which is
//     the physical root of the paper's "beacon collision" problem.  After a
//     frame ends the medium stays busy for one more ifs_guard, so deferred
//     stations do not fire in the turnaround gap.
//   * Half duplex: a station never receives a frame that overlapped its own
//     transmission.  A station keeps its last two transmissions, and the
//     one on the air before the frame's end decides — a station may start
//     its next frame at that very instant, before the frame is evaluated.
//   * Each reception independently suffers the packet error rate, the
//     propagation delay over the actual distance, the fault verdict (when
//     an injector is attached) and a uniformly distributed receive-chain
//     latency; the receiver's MAC sees the frame only at sim-time
//     `delivered`.
//
// Only the source of the PER, latency and fault draws differs per channel
// (the `draw` argument of evaluate(), and fault_verdict()): the single
// kernel's sequential streams, or one substream per (transmission, receiver)
// pair on a shard.
//
// Hot-path engineering (behaviour-preserving; DESIGN.md §8): receiver
// candidates come from a mac::CellGrid (finite range), visited in
// ascending station order so every seeded draw sequence matches a scan of
// all stations; the interferer list keeps only senders within 2r of the
// frame's sender; and a frame's receptions are one event-queue entry
// (mac::FanOut, fan_out.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "fault/injector.h"
#include "mac/cell_grid.h"
#include "mac/fan_out.h"
#include "mac/medium.h"
#include "sim/simulator.h"

namespace sstsp::mac {

/// One transmission's time on the air.
struct AirTime {
  sim::SimTime start{sim::SimTime::never()};
  sim::SimTime end{sim::SimTime::zero()};
};

/// A station on a simulated channel.
struct RadioStation {
  NodeId id;  ///< node id (a transmission names its sender by it)
  bool listening{true};
  Position pos;
  Receiver* receiver;
  AirTime sent[2];  ///< its last two transmissions, [0] the most recent
};

class RadioMedium : public Medium {
 public:
  std::size_t add_station(Position pos, Receiver& receiver) final;
  /// Sizes the station table for `count` stations, for a host that knows
  /// the population before the first add_station.
  void reserve_stations(std::size_t count) { stations_.reserve(count); }
  void set_listening(std::size_t idx, bool listening) final;
  [[nodiscard]] bool would_detect_busy(std::size_t idx,
                                       sim::SimTime at) const final;

  /// Attaches a fault injector (nullptr detaches): every delivery that
  /// survives the physical-layer model is submitted for a verdict (drop /
  /// corrupt / delay / duplicate).
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

  [[nodiscard]] std::size_t station_count() const { return stations_.size(); }
  /// Most transmission records retained at once.
  [[nodiscard]] std::size_t peak_tx_records() const { return peak_txs_; }

 protected:
  /// A transmission the channel knows about.  It carries everything its
  /// evaluation needs, so no sender lookup ever happens.
  struct Tx {
    std::uint64_t id{0};
    NodeId sender{kNoNode};
    Position sender_pos;
    sim::SimTime start;
    sim::SimTime end;
    std::shared_ptr<const Frame> frame;
    bool evaluated{false};
  };

  RadioMedium(sim::Simulator& sim, const PhyParams& phy);

  /// The node id of the station add_station registers next.
  [[nodiscard]] virtual NodeId next_station_id() const = 0;

  /// The attached injector's verdict on `tx` reaching receiver `rx`: the
  /// channel picks the draws (called only with an injector attached).
  [[nodiscard]] virtual fault::DeliveryVerdict fault_verdict(const Tx& tx,
                                                             NodeId rx) = 0;

  /// Puts station `idx`'s frame on the air now as transmission `id` (also
  /// stamped into the frame: Frame::trace_id) and retains the record.
  Tx& send(std::size_t idx, std::uint64_t id, Frame frame,
           sim::SimTime duration);

  /// Retains a record.  Records stay in place until prune() drops them, and
  /// it drops none before it is evaluated.
  Tx& retain(Tx tx);

  /// Drops the evaluated records that can no longer influence carrier
  /// sense or interference.
  void prune(sim::SimTime now);

  /// Decides every receiver of `tx` and schedules its receptions as one
  /// FanOut.  `draw(tx id, receiver id)` yields the RNG of one receiver's
  /// PER and latency draws.  Returns whether any receiver lost the frame to
  /// interference.
  template <class Draw>
  bool evaluate(Tx& tx, Draw&& draw);

  sim::Simulator& sim_;
  std::vector<RadioStation> stations_;
  std::deque<Tx> txs_;  ///< in start order (announcements: arrival order)
  fault::FaultInjector* fault_{nullptr};

 private:
  /// The carrier-sense rule: does a listener at `listener`, checking at
  /// `at`, find a frame sent from `sender` over [start, end) on the air?
  /// It does from start + prop + cca_time (the CCA latency) through
  /// end + prop + ifs_guard, and only within radio range.  The two time
  /// bounds come first and are exact (DESIGN.md §8): propagation is never
  /// negative, so nothing reads busy before start + cca_time; it is
  /// monotone in distance, so nothing audible reads busy after
  /// end + prop(range) + ifs_guard.  Most retained records fail one of
  /// them, and only the rest pay for the distance.
  [[nodiscard]] bool senses(const Position& sender, const Position& listener,
                            sim::SimTime start, sim::SimTime end,
                            sim::SimTime at) const;

  /// Fills interferers_ with the senders of every other retained record
  /// overlapping `tx` in time and, with a finite range, within 2r of its
  /// sender (only those can be audible where `tx` is: triangle inequality;
  /// the relative margin keeps rounding from dropping a real one), and
  /// candidates_ with the stations of the grid cells around the sender.
  void collect(const Tx& tx);

  /// Is any listed interferer audible at `at`?
  [[nodiscard]] bool interfered(const Position& at) const {
    if (phy_.radio_range_m <= 0.0) return !interferers_.empty();
    return std::ranges::any_of(interferers_, [&](const Position& o) {
      return distance_m(o, at) <= phy_.radio_range_m;
    });
  }

  /// prop(radio range) + ifs_guard: the last instant past a frame's end at
  /// which any station in range still senses it (finite range only).
  sim::SimTime sense_tail_;
  /// mac::CellGrid over the station positions (finite range only), built
  /// at the first evaluation after the last add_station.
  std::optional<CellGrid> grid_;
  std::vector<std::uint32_t> candidates_;
  std::vector<Position> interferers_;
  std::size_t peak_txs_{0};
};

template <class Draw>
bool RadioMedium::evaluate(Tx& tx, Draw&& draw) {
  tx.evaluated = true;
  collect(tx);
  const bool finite_range = phy_.radio_range_m > 0.0;
  auto fan = std::make_unique<FanOut>(
      stations_, tx.frame, nominal_delay_us(tx.end - tx.start), tx.start,
      finite_range ? candidates_.size() : stations_.size());
  bool lost = false;
  auto consider = [&](std::size_t s) {
    const RadioStation& rx = stations_[s];
    if (rx.id == tx.sender || !rx.listening) return;
    const double d = distance_m(tx.sender_pos, rx.pos);
    if (finite_range && d > phy_.radio_range_m) return;
    // Half duplex: the receiver's transmission on the air before the end.
    const AirTime& own = rx.sent[0].start < tx.end ? rx.sent[0] : rx.sent[1];
    if (own.start < tx.end && own.end > tx.start) {
      ++stats_.half_duplex_suppressed;
      return;
    }
    if (interfered(rx.pos)) {
      lost = true;
      return;
    }
    auto&& rng = draw(tx.id, rx.id);
    if (rng.bernoulli(phy_.packet_error_rate)) {
      ++stats_.per_drops;
      return;
    }
    // The injector draws from a substream of its own, so attaching one
    // never perturbs the channel's draws.
    fault::DeliveryVerdict verdict;
    if (fault_ != nullptr) {
      verdict = fault_verdict(tx, rx.id);
      if (verdict.drop) return;
    }
    const sim::SimTime rx_latency = sim::SimTime::from_us_double(rng.uniform(
        phy_.rx_latency_min.to_us(), phy_.rx_latency_max.to_us()));
    fan->add(s, tx.end + propagation_from_distance(d) + rx_latency, verdict,
             stats_, instruments_);
  };
  if (finite_range) {
    for (const std::uint32_t s : candidates_) consider(s);
  } else {
    for (std::size_t s = 0; s < stations_.size(); ++s) consider(s);
  }
  sim_.schedule_batch(std::move(fan));
  return lost;
}

}  // namespace sstsp::mac

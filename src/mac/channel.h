// Single-hop broadcast channel (IBSS: every station hears every other).
//
// Semantics:
//   * A transmission occupies the medium for its full on-air duration.
//     Overlapping transmissions corrupt each other — no capture effect.
//     Corruption is decided per receiver: a concurrent frame destroys this
//     one only where both senders are audible, so with a finite radio range
//     (PhyParams::radio_range_m) the model exhibits the hidden-terminal
//     problem; in the default single-hop configuration every overlap
//     corrupts everywhere, as before.
//   * Carrier sense honours the CCA latency: a station whose backoff timer
//     expires less than cca_time after another transmission started cannot
//     have detected it and will transmit anyway (-> collision), which is
//     the physical root of the paper's "beacon collision" problem.
//   * After a frame ends, the medium counts as busy for one more ifs_guard
//     so deferred stations do not fire in the turnaround gap.
//   * Each delivery independently suffers the packet error rate, a
//     per-receiver propagation delay (speed of light over actual distance)
//     and a uniformly distributed receive-chain latency; the receiver's MAC
//     sees the frame only at sim-time `delivered`.
//   * Half duplex: a station never receives a frame that overlapped one of
//     its own transmissions.
//
// Hot-path engineering (behaviour-preserving; see DESIGN.md "Performance"):
//   * Station positions never move, so pairwise distances are cached in
//     lazily materialized per-sender rows; propagation delays and range
//     checks read the cache instead of recomputing sqrt per delivery.
//   * With a finite radio range, receiver candidates come from a uniform
//     grid (cell size = radio range, 3x3 neighbourhood query) instead of a
//     scan over every station.  Candidates are visited in ascending station
//     index, which keeps the per-receiver RNG draw order — and therefore
//     every seeded run — byte-identical to the brute-force scan.
//   * The delivery fan-out shares one heap-allocated Frame between all
//     receivers of a transmission (shared_ptr<const Frame>) instead of
//     copying the frame into every receiver's closure.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "mac/frame.h"
#include "mac/medium.h"
#include "mac/phy_params.h"
#include "obs/instruments.h"
#include "obs/profiler.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace sstsp::fault {
class FaultInjector;
}  // namespace sstsp::fault

namespace sstsp::mac {

class Channel final : public Medium {
 public:
  Channel(sim::Simulator& sim, const PhyParams& phy);

  std::size_t add_station(Position pos, RxHandler handler) override;
  void set_listening(std::size_t idx, bool listening) override;
  std::uint64_t transmit(std::size_t idx, Frame frame,
                         sim::SimTime duration) override;
  [[nodiscard]] bool would_detect_busy(std::size_t idx,
                                       sim::SimTime at) const override;

  /// Mutual audibility under the configured radio range (always true in
  /// the default single-hop configuration).
  [[nodiscard]] bool in_range(const Position& a, const Position& b) const;

  /// Attaches a fault injector (nullptr detaches): every delivery that
  /// survives the physical-layer model is submitted for a verdict (drop /
  /// corrupt / delay / duplicate).  The injector draws from its own RNG
  /// substream, so attaching one never perturbs the channel's seeded draw
  /// sequence.  Station channel indices double as node ids, as in
  /// run::Network, which adds its stations in node-id order.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

 private:
  struct StationRec {
    Position pos;
    RxHandler handler;
    bool listening{true};
    sim::SimTime last_tx_start{sim::SimTime::never()};
    sim::SimTime last_tx_end{sim::SimTime::zero()};
  };

  struct Tx {
    std::uint64_t id{0};
    std::size_t sender{0};
    Frame frame;
    sim::SimTime start;
    sim::SimTime end;
    bool delivered_processed{false};
  };

  /// Uniform grid over the station positions, cell size = radio range; a
  /// 3x3 neighbourhood query returns every station within range (plus near
  /// misses, filtered by the exact distance check).  Only used when
  /// radio_range_m > 0.
  struct Grid {
    bool built{false};
    double cell_m{0.0};
    double min_x{0.0};
    double min_y{0.0};
    int nx{0};
    int ny{0};
    std::vector<std::vector<std::uint32_t>> cells;
  };

  void finish_transmission(std::uint64_t tx_id);
  void prune_old(sim::SimTime now);
  [[nodiscard]] Tx* find_tx(std::uint64_t tx_id);

  /// Cached distances from station `idx` to every station (lazily
  /// materialized; positions are immutable after add_station).
  const std::vector<double>& dist_row(std::size_t idx) const;
  void invalidate_caches();
  void build_grid() const;
  /// Fills `candidates_` with the stations in the 3x3 cell neighbourhood of
  /// `pos`, in ascending index order (RNG draw-order contract).
  void grid_candidates(const Position& pos) const;

  sim::Simulator& sim_;
  std::vector<StationRec> stations_;
  std::deque<Tx> recent_;  // transmissions still relevant for CS/delivery
  std::uint64_t next_tx_id_{1};
  sim::Rng rng_;
  fault::FaultInjector* fault_{nullptr};

  // Position-derived caches (mutable: lazily filled through const paths).
  mutable std::vector<std::vector<double>> dist_rows_;
  mutable Grid grid_;
  mutable std::vector<std::uint32_t> candidates_;  // grid query scratch
  std::vector<std::size_t> overlap_senders_;       // per-finish scratch
};

}  // namespace sstsp::mac

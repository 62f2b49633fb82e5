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
//   * With a finite radio range, receiver candidates come from a
//     mac::CellGrid (cell size = radio range, 3x3 neighbourhood query)
//     instead of a scan over every station.  Candidates are visited in
//     ascending station index, which keeps the per-receiver RNG draw order —
//     and therefore every seeded run — byte-identical to the brute-force
//     scan.  Distances are computed at each use (sender first, as
//     mac::ShardChannel does), so memory stays linear in the station count.
//   * A transmission's receptions are one event-queue entry: a mac::FanOut
//     (fan_out.h) holding one shared Frame and the (delivered, receiver)
//     entries, handed to Simulator::schedule_batch, which dispatches them in
//     the order one event per receiver would have fired.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "mac/cell_grid.h"
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

  void finish_transmission(std::uint64_t tx_id);
  void prune_old(sim::SimTime now);
  [[nodiscard]] Tx* find_tx(std::uint64_t tx_id);

  sim::Simulator& sim_;
  std::vector<StationRec> stations_;
  std::deque<Tx> recent_;  // transmissions still relevant for CS/delivery
  std::uint64_t next_tx_id_{1};
  sim::Rng rng_;
  fault::FaultInjector* fault_{nullptr};

  /// Receiver index over the station positions (finite range only); built
  /// at the first delivery after the last add_station.
  std::optional<CellGrid> grid_;
  std::vector<std::uint32_t> candidates_;     // grid query scratch
  std::vector<std::size_t> overlap_senders_;  // per-finish scratch
};

}  // namespace sstsp::mac

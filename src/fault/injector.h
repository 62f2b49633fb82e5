// FaultInjector: evaluates a FaultPlan against individual deliveries.
//
// Every injection point consults the same object:
//   * the simulated channels (mac::Channel, and each mac::ShardChannel of
//     the sharded kernel) call on_delivery() for every frame that survives
//     the physical-layer model and apply the verdict before scheduling
//     reception;
//   * fault::FaultyTransport (live UDP/loopback) calls it for every received
//     datagram.
//
// Determinism: the draws come from a substream of their own, so faulted and
// unfaulted runs never perturb each other's draw sequences, and the same
// plan + seed replays the same verdicts in the simulator bit-for-bit.  The
// single kernel and the live stack draw in delivery order from the
// injector's sequential substream; a shard channel passes one substream
// per (transmission, receiver) pair and its own tallies, so a verdict
// never depends on which shard or thread evaluates it (DESIGN.md §12).
//
// schedule_fault_events() turns the plan's node- and clock-level entries into
// simulator events through a small hook interface, so both simulation
// kernels (on the sharded kernel's control timeline), net::Swarm
// (loopback/UDP) and the standalone node runner share one scheduling
// implementation.  "reference"-targeted faults resolve the victim when the
// event fires, not when the plan loads.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "fault/plan.h"
#include "sim/rng.h"

namespace sstsp::sim {
class Simulator;
}  // namespace sstsp::sim

namespace sstsp::mac {
struct Frame;
}  // namespace sstsp::mac

namespace sstsp::fault {

/// Outcome of one delivery consult.  At most one of drop/corrupt/extra delay
/// applies per matching directive; duplicates compose with the original.
struct DeliveryVerdict {
  bool drop{false};
  bool corrupt{false};
  double extra_delay_us{0.0};
  std::vector<double> duplicate_delays_us;
};

/// Counters for the run report ("recovery.packet_faults").
struct FaultStats {
  std::uint64_t drops{0};
  std::uint64_t partition_drops{0};
  std::uint64_t isolation_drops{0};
  std::uint64_t duplicates{0};
  std::uint64_t delayed{0};
  std::uint64_t reordered{0};
  std::uint64_t corrupted{0};

  FaultStats& operator+=(const FaultStats& o);
};

class FaultInjector {
 public:
  /// rng should be a dedicated substream, e.g.
  /// sim.substream("faults", plan.seed).
  FaultInjector(FaultPlan plan, sim::Rng rng);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Verdict for one delivery attempt from -> to at now_s (seconds of run
  /// time).  Draws from the injector's own substream and counts into its
  /// stats; call exactly once per attempt.
  [[nodiscard]] DeliveryVerdict on_delivery(double now_s, mac::NodeId from,
                                            mac::NodeId to) {
    return on_delivery(now_s, from, to, rng_, stats_);
  }
  /// The same verdict rule, drawing from `rng` and counting into `stats`:
  /// reads only the plan and the isolation set, so shard channels may call
  /// it concurrently between window barriers.
  [[nodiscard]] DeliveryVerdict on_delivery(double now_s, mac::NodeId from,
                                            mac::NodeId to, sim::Rng& rng,
                                            FaultStats& stats) const;

  /// Adds tallies counted outside the injector (the shard channels') to
  /// stats().
  void add_stats(const FaultStats& stats) { stats_ += stats; }

  /// Paused nodes are isolated from the medium in both directions; their
  /// clocks and protocol state keep running.
  void set_isolated(mac::NodeId node, bool isolated);

  /// True when an active partition (or asymmetric link) cuts from -> to.
  [[nodiscard]] bool link_cut(double now_s, mac::NodeId from,
                              mac::NodeId to) const;

  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  sim::Rng rng_;
  FaultStats stats_;
  std::vector<mac::NodeId> isolated_;
};

/// Returns a copy of the frame mangled the way a corrupted reception would
/// be: the SSTSP beacon's MAC is flipped (µTESLA rejects it) or the TSF
/// timestamp's low bit is flipped.
[[nodiscard]] mac::Frame corrupt_frame(const mac::Frame& frame);

/// Live-side equivalent: flips the last byte of an encoded datagram, which
/// lands in the authenticated beacon body so the receiver's crypto checks
/// reject the frame.
void corrupt_datagram(std::vector<std::uint8_t>& bytes);

/// Host-side callbacks for node- and clock-level fault events.  Unset
/// callbacks are skipped.
struct FaultHooks {
  /// Resolves "node":"reference" when the fault fires; nullopt skips it.
  std::function<std::optional<mac::NodeId>()> current_reference;
  /// Crash (powered=false) / restart (powered=true).
  std::function<void(mac::NodeId, bool powered)> set_power;
  /// Applies a hardware-clock step and/or drift change.
  std::function<void(mac::NodeId, double step_us, double drift_delta_ppm)>
      clock_fault;
  /// Recovery-accounting notifications, fired as each event executes.
  std::function<void(const NodeFault&, mac::NodeId resolved)> on_node_fault;
  std::function<void(const NodeFault&, mac::NodeId resolved)> on_node_restart;
  std::function<void(const ClockFault&, mac::NodeId resolved)> on_clock_fault;
};

/// Schedules the plan's node_faults and clock_faults on the simulator.
/// Pauses route through injector->set_isolated (injector may be null when the
/// plan has no pauses), which every channel consulting the injector sees.  Packet faults and partitions need no events — the
/// injector evaluates their time windows per delivery.
void schedule_fault_events(sim::Simulator& sim, const FaultPlan& plan,
                           FaultInjector* injector, FaultHooks hooks);

}  // namespace sstsp::fault

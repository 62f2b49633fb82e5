// Protocol strategy interface.
//
// A Station owns exactly one SyncProtocol.  The station layer provides the
// hardware (clock, radio, rng); the protocol decides when to beacon and how
// to discipline its notion of network time.  All six protocols in the
// library (TSF, ATSP, TATSP, SATSF, Rentel–Kunz, SSTSP) and the attacker
// behaviours implement this interface, so scenarios and metrics are
// protocol-agnostic.
#pragma once

#include <array>
#include <cstdint>

#include "mac/medium.h"
#include "mac/frame.h"
#include "sim/time_types.h"

namespace sstsp::proto {

class Station;

/// A protocol's counters, `Count` bits wide each.  A station keeps 32-bit
/// counters (StationStats): its beacons and receptions stay far below 2^32
/// over any run.  Sums over stations fold into 64-bit ones (ProtocolStats).
template <class Count>
struct BasicProtocolStats {
  BasicProtocolStats() = default;
  /// Widens a narrower set of counters, losslessly.
  template <class Narrower>
    requires(sizeof(Narrower) < sizeof(Count))
  BasicProtocolStats(const BasicProtocolStats<Narrower>& o) {  // NOLINT
    *this += o;
  }

  Count beacons_sent{0};
  Count beacons_received{0};
  Count adoptions{0};        ///< TSF family: timestamps adopted
  Count adjustments{0};      ///< SSTSP: (k, b) re-solves
  Count rejected_interval{0};
  Count rejected_key{0};
  Count rejected_mac{0};
  Count rejected_guard{0};
  Count elections_won{0};
  Count demotions{0};
  Count coarse_steps{0};
  Count solver_rejections{0};
  /// Per-verdict clock-discipline outcomes, indexed by
  /// core::DisciplineVerdict (this layer sits below core, hence the plain
  /// array; core static_asserts the bound).  solver_rejections stays the
  /// legacy aggregate of the rejecting verdicts.
  std::array<Count, 8> discipline_verdicts{};

  /// Field-wise sum: the fold every host uses to aggregate its stations.
  /// Counters never fold into narrower ones.
  template <class Other>
    requires(sizeof(Other) <= sizeof(Count))
  BasicProtocolStats& operator+=(const BasicProtocolStats<Other>& o) {
    beacons_sent += o.beacons_sent;
    beacons_received += o.beacons_received;
    adoptions += o.adoptions;
    adjustments += o.adjustments;
    rejected_interval += o.rejected_interval;
    rejected_key += o.rejected_key;
    rejected_mac += o.rejected_mac;
    rejected_guard += o.rejected_guard;
    elections_won += o.elections_won;
    demotions += o.demotions;
    coarse_steps += o.coarse_steps;
    solver_rejections += o.solver_rejections;
    for (std::size_t v = 0; v < discipline_verdicts.size(); ++v) {
      discipline_verdicts[v] += o.discipline_verdicts[v];
    }
    return *this;
  }
};

/// One protocol object's counters.
using StationStats = BasicProtocolStats<std::uint32_t>;
/// Counters summed over stations (telemetry, run results).
using ProtocolStats = BasicProtocolStats<std::uint64_t>;

class SyncProtocol {
 public:
  explicit SyncProtocol(Station& station) : station_(station) {}
  virtual ~SyncProtocol() = default;

  SyncProtocol(const SyncProtocol&) = delete;
  SyncProtocol& operator=(const SyncProtocol&) = delete;

  /// Station powered on (initial boot or churn return).
  virtual void start() = 0;
  /// Station powered off; cancel all pending activity.
  virtual void stop() = 0;

  /// A frame was delivered by the channel.
  virtual void on_receive(const mac::Frame& frame, const mac::RxInfo& rx) = 0;

  /// The protocol's synchronized time at simulation instant `real` —
  /// the quantity whose network-wide spread the paper plots.
  [[nodiscard]] virtual double network_time_us(sim::SimTime real) const = 0;

  /// Whether this node should be included in synchronization-error metrics
  /// (rejoining nodes are excluded until they re-synchronize).
  [[nodiscard]] virtual bool is_synchronized() const = 0;

  /// True while this node acts as the SSTSP reference (always false for
  /// the TSF family).
  [[nodiscard]] virtual bool is_reference() const { return false; }

  /// Virtual so composite protocols (the cluster wrapper runs a member and
  /// an uplink instance per gateway) can aggregate their halves.
  [[nodiscard]] virtual const StationStats& stats() const { return stats_; }

 protected:
  Station& station_;
  StationStats stats_;
};

}  // namespace sstsp::proto

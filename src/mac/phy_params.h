// IEEE 802.11a OFDM PHY timing constants and evaluation parameters.
//
// Values follow the paper's §5 setup: OFDM at 54 Mbps (802.11a timing,
// aSlotTime = 9 us), BP = 0.1 s, beacon generation window of w+1 = 31 slots,
// TSF beacons occupying 4 slots on air and SSTSP beacons 7 slots, and a
// packet error rate of 0.01 %.
#pragma once

#include <cmath>
#include <cstdint>

#include "sim/time_types.h"

namespace sstsp::mac {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0xFFFFFFFFu;

struct PhyParams {
  /// aSlotTime for the OFDM PHY.
  sim::SimTime slot_time = sim::SimTime::from_us(9);

  /// Beacon period (paper: "typical value is 0.1 s").
  sim::SimTime beacon_period = sim::SimTime::from_ms(100);

  /// Beacon generation window parameter: random delay in [0, w] slots.
  int contention_window = 30;

  /// On-air beacon durations (paper §5: 4 slots TSF, 7 slots SSTSP).
  sim::SimTime tsf_beacon_duration = sim::SimTime::from_us(36);
  sim::SimTime sstsp_beacon_duration = sim::SimTime::from_us(63);

  /// Clear-channel-assessment latency: a transmission that started less
  /// than this long before a station's backoff expiry cannot be detected,
  /// so the station transmits anyway and collides (802.11a: aCCATime < 4 us).
  sim::SimTime cca_time = sim::SimTime::from_us(4);

  /// After a frame ends the medium is treated as busy for one more DIFS
  /// before a deferred station may transmit (we fold rx/tx turnaround in).
  sim::SimTime ifs_guard = sim::SimTime::from_us(34);

  /// Per-reception frame loss probability (paper: 0.01 %).
  double packet_error_rate = 1e-4;

  /// Receive-chain latency: actual delay between frame end on air and the
  /// MAC timestamping point, uniform in [min, max]; receivers compensate
  /// with the midpoint.  The +/-1 us residual, plus 1 us timestamp
  /// quantization and propagation variance, forms the paper's epsilon
  /// (< 5 us); because the (k, b) solver extrapolates a two-beacon rate
  /// estimate over m+1 BPs, the steady-state error is a small multiple of
  /// this jitter (paper Table 1: ~6 us at m >= 3).
  sim::SimTime rx_latency_min = sim::SimTime::from_us(3);
  sim::SimTime rx_latency_max = sim::SimTime::from_us(5);

  /// Deployment disc radius for node placement; propagation = distance / c.
  double placement_radius_m = 50.0;

  /// Radio range: stations further apart than this neither receive nor
  /// carrier-sense each other.  <= 0 means unlimited (the paper's IBSS
  /// setting: all nodes in each other's transmission range).  Finite
  /// ranges enable the spatial partition of large runs and the
  /// hierarchical clusters (src/cluster/).
  double radio_range_m = 0.0;

  /// On-air frame sizes, for traffic accounting only (paper §3.4: 56-byte
  /// TSF beacon incl. 24-byte preamble, 92-byte secured SSTSP beacon).
  std::uint32_t tsf_beacon_bytes = 56;
  std::uint32_t sstsp_beacon_bytes = 92;
};

/// Speed of light in metres per microsecond.
inline constexpr double kSpeedOfLightMPerUs = 299.792458;

struct Position {
  double x_m{0.0};
  double y_m{0.0};
};

/// Euclidean distance; inline because the channels' range and interference
/// checks call it per (transmission, station) pair.
[[nodiscard]] inline double distance_m(const Position& a, const Position& b) {
  const double dx = a.x_m - b.x_m;
  const double dy = a.y_m - b.y_m;
  return std::sqrt(dx * dx + dy * dy);
}

/// One-way propagation delay between two positions.
[[nodiscard]] sim::SimTime propagation_delay(const Position& a,
                                             const Position& b);

}  // namespace sstsp::mac

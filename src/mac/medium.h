// Medium: the radio interface a station programs against.
//
// Two implementations exist.  mac::Channel is the original single-threaded
// broadcast channel: one instance owns every station and runs on the one
// simulator of the run.  mac::ShardChannel (sharded_channel.h) is one shard
// of the parallel kernel: it owns only the stations placed in its region of
// the deployment and cooperates with its sibling shards through barrier-
// committed transmission announcements.  Protocol code sees neither — a
// proto::Station exposes exactly this surface, so the same protocol binary
// runs on either kernel.
//
// The interface is deliberately the *station-facing* slice of the channel:
// runner-facing wiring (instruments, profilers, fault injectors, trace-id
// seeding) stays on the concrete classes, because each kernel wires those
// differently.
#pragma once

#include <cstdint>
#include <functional>

#include "mac/frame.h"
#include "mac/phy_params.h"
#include "sim/time_types.h"

namespace sstsp::mac {

/// What a receiver's MAC learns about a frame, besides its content.
struct RxInfo {
  sim::SimTime delivered;      ///< when the receiver timestamps the frame
  double nominal_delay_us{0};  ///< receiver's estimate of stamp->delivered
  sim::SimTime tx_start;       ///< ground truth, for diagnostics only
};

struct ChannelStats {
  std::uint64_t transmissions{0};
  std::uint64_t collided_transmissions{0};
  std::uint64_t deliveries{0};
  std::uint64_t per_drops{0};
  std::uint64_t half_duplex_suppressed{0};
  std::uint64_t bytes_on_air{0};

  ChannelStats& operator+=(const ChannelStats& o) {
    transmissions += o.transmissions;
    collided_transmissions += o.collided_transmissions;
    deliveries += o.deliveries;
    per_drops += o.per_drops;
    half_duplex_suppressed += o.half_duplex_suppressed;
    bytes_on_air += o.bytes_on_air;
    return *this;
  }
};

/// Mean distance between two points drawn uniformly from a disc of radius R
/// is (128/45pi) R ~= 0.9054 R; used as the propagation compensation.
inline constexpr double kMeanDiscDistanceFactor = 0.905414787;

/// Same rounding path as propagation_delay(); takes the already-computed
/// distance so cached/duplicated distance math stays byte-identical across
/// kernels.
[[nodiscard]] inline sim::SimTime propagation_from_distance(double dist_m) {
  return sim::SimTime::from_us_double(dist_m / kSpeedOfLightMPerUs);
}

class Medium {
 public:
  using RxHandler = std::function<void(const Frame&, const RxInfo&)>;

  explicit Medium(const PhyParams& phy) : phy_(phy) {}
  virtual ~Medium() = default;

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Registers a station; returns its index on this medium.  The handler
  /// fires at the frame's delivery instant.
  virtual std::size_t add_station(Position pos, RxHandler handler) = 0;

  /// Stations that are powered off neither receive nor sense.
  virtual void set_listening(std::size_t idx, bool listening) = 0;

  /// Starts a transmission now; duration is the on-air time.  Returns the
  /// transmission's lifecycle trace ID (also stamped into the frame every
  /// receiver sees, Frame::trace_id).
  virtual std::uint64_t transmit(std::size_t idx, Frame frame,
                                 sim::SimTime duration) = 0;

  /// Would station `idx`, checking at time `at`, find the medium busy?
  /// Only transmissions within radio range are sensed.
  [[nodiscard]] virtual bool would_detect_busy(std::size_t idx,
                                               sim::SimTime at) const = 0;

  [[nodiscard]] const PhyParams& phy() const { return phy_; }
  [[nodiscard]] const ChannelStats& stats() const { return stats_; }

  /// Receiver-side compensation constant for a frame of `duration`:
  /// the delay estimate added to a beacon timestamp to place it on the
  /// receiver's timeline (frame air time + nominal propagation + nominal
  /// receive latency).  The residual between this and the actual delay is
  /// the paper's epsilon.
  [[nodiscard]] double nominal_delay_us(sim::SimTime duration) const {
    const double reach = (phy_.radio_range_m > 0.0)
                             ? phy_.radio_range_m
                             : phy_.placement_radius_m;
    const double nominal_prop_us =
        kMeanDiscDistanceFactor * reach / kSpeedOfLightMPerUs;
    const double nominal_rx_us =
        0.5 * (phy_.rx_latency_min.to_us() + phy_.rx_latency_max.to_us());
    return duration.to_us() + nominal_prop_us + nominal_rx_us;
  }

 protected:
  PhyParams phy_;
  ChannelStats stats_;
};

}  // namespace sstsp::mac

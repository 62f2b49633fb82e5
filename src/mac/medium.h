// Medium: the radio interface a station programs against.
//
// Three implementations exist.  mac::Channel is the original single-threaded
// broadcast channel: one instance owns every station and runs on the one
// simulator of the run.  mac::ShardChannel (sharded_channel.h) is one shard
// of the parallel kernel: it owns only the stations placed in its region of
// the deployment and cooperates with its sibling shards through barrier-
// committed transmission announcements.  net::NodeRuntime's wire medium
// (net/node.h) carries one live station's frames to its transport.
// Protocol code sees none of them — a proto::Station exposes exactly this
// surface, so the same protocol binary runs on every host.
//
// The interface is the *station-facing* slice of the channel plus the
// observer hooks every host wires the same way (Observers::attach); fault
// injectors and grids stay on the concrete classes, because each kernel
// wires those differently.
#pragma once

#include <cstdint>
#include <functional>

#include "mac/frame.h"
#include "mac/phy_params.h"
#include "sim/time_types.h"

namespace sstsp::obs {
class Instruments;
class Profiler;
}  // namespace sstsp::obs

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

  explicit Medium(const PhyParams& phy)
      : phy_(phy),
        sense_tail_(phy.radio_range_m > 0.0
                        ? propagation_from_distance(phy.radio_range_m) +
                              phy.ifs_guard
                        : sim::SimTime::zero()) {}
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
  /// receiver sees, Frame::trace_id); a retransmitted or replayed frame
  /// gets a fresh ID for its new time on air.
  virtual std::uint64_t transmit(std::size_t idx, Frame frame,
                                 sim::SimTime duration) = 0;

  /// Would station `idx`, checking at time `at`, find the medium busy?
  /// Only transmissions within radio range are sensed.
  [[nodiscard]] virtual bool would_detect_busy(std::size_t idx,
                                               sim::SimTime at) const = 0;

  [[nodiscard]] const PhyParams& phy() const { return phy_; }
  [[nodiscard]] const ChannelStats& stats() const { return stats_; }

  /// Observability (both may be nullptr): the instruments record each
  /// frame's tx-start -> delivery latency; the profiler attributes the
  /// end-of-frame delivery work to channel-delivery.
  void set_instruments(obs::Instruments* instruments) {
    instruments_ = instruments;
  }
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }

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
  /// The carrier-sense rule of both simulated channels: does a listener at
  /// `listener`, checking at `at`, find a frame sent from `sender` over
  /// [start, end) on the air?  It does from start + prop + cca_time (the
  /// CCA latency) through end + prop + ifs_guard, and only within radio
  /// range.  The two time bounds come first and are exact (DESIGN.md §8):
  /// propagation is never negative, so nothing reads busy before
  /// start + cca_time; it is monotone in distance, so nothing audible reads
  /// busy after end + prop(range) + ifs_guard.  Most retained records fail
  /// one of them, and only the rest pay for the distance.
  [[nodiscard]] bool senses(const Position& sender, const Position& listener,
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

  PhyParams phy_;
  /// prop(radio range) + ifs_guard: the last instant past a frame's end at
  /// which any station in range still senses it (finite range only).
  sim::SimTime sense_tail_;
  ChannelStats stats_;
  obs::Instruments* instruments_{nullptr};
  obs::Profiler* profiler_{nullptr};
};

}  // namespace sstsp::mac

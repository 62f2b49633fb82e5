// NodeRuntime: hosts the unmodified core::Sstsp state machine on a live
// transport instead of the simulated broadcast channel.
//
// The protocol core is written against proto::Station / mac::Channel /
// sim::Simulator.  Rather than fork it, the runtime gives each node a
// *private* two-station channel on the hosting simulator:
//
//   index 0 — the node's own Station (clock, RNG, protocol), unchanged;
//   index 1 — a "wire tap" station at the same position with no protocol.
//
// Every beacon the protocol transmits traverses the private channel exactly
// as in simulation (air time, trace-id assignment, tx accounting) and is
// delivered to the tap, whose handler serializes it through net::codec and
// broadcasts it on the Transport.  Received datagrams run the strict
// decoder and enter the protocol through Sstsp::on_receive with an RxInfo
// built at the arrival instant — through the same verify/guard pipeline,
// invariant-monitor hooks, and lifecycle tracing as a simulated delivery.
//
// Time: the hosting Simulator is either virtual (LoopbackTransport swarm:
// deterministic, driven by run_until) or wall-clock-paced (net::Reactor
// pumping it in real time; UDP).  The node's HardwareClock reads that
// timeline through the unchanged clock/ abstractions, with per-node drift
// and offset emulated from a seeded substream so live nodes actually have
// to synchronize.  A real deployment would read its oscillator instead —
// that seam, and what the emulation does not model (carrier sense across
// the wire, collisions), is documented in DESIGN.md "Live stack".
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "core/key_directory.h"
#include "core/sstsp.h"
#include "mac/channel.h"
#include "net/codec.h"
#include "net/transport.h"
#include "protocols/station.h"
#include "runner/scenario.h"
#include "sim/simulator.h"

namespace sstsp::net {

/// Default expected one-way latency of a localhost UDP hop — the
/// NodeConfig::wire_latency_us default for UDP deployments.  With sender
/// dispatch lateness carried in the envelope and kernel receive timestamps
/// subtracting the reactor's wake-up latency, what remains is just the
/// sendto() → socket-queue kernel path (a few us on loopback).
inline constexpr double kUdpWireLatencyUs = 10.0;

/// Lemma-1 divergence bound for wall-paced UDP runs (half the fine guard
/// window): a scheduler preemption inside the stamp-to-syscall gap can
/// slip one guard-accepted noisy measurement into a node's (k, b) solve,
/// transiently moving its adjusted clock by more than the sim-calibrated
/// 50 us bound tolerates; genuine divergence still grows without limit
/// and trips this one.  See SwarmConfig::monitor_diverge_us.
inline constexpr double kUdpDivergeThresholdUs = 150.0;

/// Wall-paced runs drop a frame instead of sending it when its dispatch
/// ran more than this far behind schedule (a host stall — scheduler
/// preemption, VM pause).  The beacon's timestamp describes the scheduled
/// instant, so a copy departing hundreds of ms late would reach receivers
/// after the claimed µTESLA interval's key disclosure and be rejected as
/// replay/delay evidence (§3.3 check 1) — noise in the audit.  Real
/// beacon hardware that misses its TBTT window skips the beacon; so do
/// we, and SSTSP's l missed-beacon tolerance absorbs it.  Half a beacon
/// period: far above benign scheduler jitter (< 1 ms), well below the
/// disclosure margin a stall must eat before receivers start rejecting.
inline constexpr double kMaxTxLatenessUs = 50'000.0;

/// SstspConfig with the live-transport deviations applied: a datagram path
/// jitters every arrival estimate, so the (k, b) slope is solved over a
/// wider baseline than the simulator's exactly-compensated channel needs
/// (see SstspConfig::solver_span_bps).
[[nodiscard]] inline core::SstspConfig live_sstsp_defaults() {
  core::SstspConfig cfg;
  cfg.solver_span_bps = 8;
  return cfg;
}

struct NodeConfig {
  mac::NodeId id = 0;
  /// Number of nodes in the deployment; the trust directory is populated
  /// with the anchors of ids [0, total_nodes) derived from `seed` — the
  /// live stand-in for the paper's out-of-scope authentic anchor
  /// distribution (all processes of one deployment must share `seed`).
  int total_nodes = 5;
  std::uint64_t seed = 1;

  core::SstspConfig sstsp = live_sstsp_defaults();
  mac::PhyParams phy{};

  /// Emulated oscillator: drift uniform in +/-max_drift_ppm and offset
  /// uniform in +/-initial_offset_us, drawn from substream("node-clock",
  /// id) of Rng(seed) — per-node deterministic and process-independent.
  /// When false, the explicit drift_ppm/offset_us below are used (0/0 =
  /// the host clock itself, what a real deployment would run with).
  bool emulate_clock = true;
  double max_drift_ppm = 100.0;
  double initial_offset_us = 112.0;
  double drift_ppm = 0.0;
  double offset_us = 0.0;

  /// Expected one-way wire latency in us, added to the receive-side
  /// nominal-delay compensation.  The simulated channel's delay model ends
  /// at the wire tap; whatever the real transport adds (hub latency,
  /// kernel + scheduler on UDP) is invisible to the protocol, so the
  /// *expected* part is compensated here and only the jitter around it
  /// remains as the paper's epsilon.  net::Swarm derives it from the
  /// loopback latency model; for UDP it is an operator estimate.
  double wire_latency_us = 0.0;

  /// Boot directly in the reference role (convergence experiments).
  bool start_as_reference = false;
};

/// `base` with the deployment-wide settings of the run's Scenario: node
/// count, seed, SSTSP and PHY parameters, emulated clock bounds.
[[nodiscard]] NodeConfig node_config(const run::Scenario& s,
                                     NodeConfig base = {});

class NodeRuntime {
 public:
  NodeRuntime(sim::Simulator& sim, Transport& transport,
              const NodeConfig& config);

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  /// Powers the station on (boots the protocol).  Idempotent.
  void start();

  [[nodiscard]] proto::Station& station() { return *station_; }
  [[nodiscard]] const proto::Station& station() const { return *station_; }
  [[nodiscard]] core::Sstsp& protocol() {
    return static_cast<core::Sstsp&>(station_->protocol());
  }
  [[nodiscard]] const core::Sstsp& protocol() const {
    return static_cast<const core::Sstsp&>(station_->protocol());
  }
  [[nodiscard]] const NodeConfig& config() const { return config_; }
  [[nodiscard]] mac::Channel& channel() { return channel_; }

  /// Wire + codec accounting (transport stats folded in at read time).
  [[nodiscard]] NetRunStats net_stats() const;
  [[nodiscard]] std::uint64_t decode_errors(DecodeError error) const {
    return decode_error_by_kind_[static_cast<std::size_t>(error)];
  }

  /// Installs a wall-clock reading of the hosting timeline (typically
  /// Reactor::wall_sim_now).  With it, the runtime measures how late each
  /// transmit event actually ran on the wall and stamps that lateness into
  /// the datagram envelope, and reconstructs true datagram arrival from
  /// RxMeta — real hardware timestamps at the antenna; a user-space
  /// emulation has to measure its own scheduler-induced error out.  Leave
  /// unset for virtual-time transports, where events run exactly on
  /// schedule.
  void set_wall_clock(std::function<sim::SimTime()> wall_now) {
    wall_now_ = std::move(wall_now);
  }

  /// Attaches the deployment's observers (obs/observers.h): the station
  /// fans its protocol events out to them, the hosting simulator and the
  /// private channel record into them.  Same sharing model as
  /// run::Network.
  void attach_observers(const obs::Observers& observers) {
    observers_ = &observers;
    station_->set_observers(observers.for_stations());
    observers.attach(sim_, channel_);
  }

  /// Starts periodic telemetry sampling: one source="node" sample per
  /// options.interval_s of the hosting timeline (wall-paced when a Reactor
  /// pumps the simulator), handed to `emit`, until the tick after `until`.
  /// Samples also feed the attached flight recorder, if any.
  void start_telemetry(const obs::TelemetrySampler::Options& options,
                       sim::SimTime until,
                       obs::TelemetrySampler::EmitFn emit);

  [[nodiscard]] obs::TelemetrySampler* telemetry_sampler() {
    return sampler_.get();
  }

 private:
  /// Tap handler: a locally transmitted frame completed its (private) air
  /// time — serialize and put it on the wire.
  void on_local_frame(const mac::Frame& frame);
  void telemetry_tick();
  void emit_telemetry_sample();
  /// Transport rx handler: strict-decode and feed the protocol.
  void on_datagram(std::span<const std::uint8_t> bytes, const RxMeta& meta);

  [[nodiscard]] static mac::PhyParams live_phy(const mac::PhyParams& phy);
  [[nodiscard]] static clk::HardwareClock make_clock(const NodeConfig& cfg);

  sim::Simulator& sim_;
  Transport& transport_;
  NodeConfig config_;
  std::function<sim::SimTime()> wall_now_;
  mac::Channel channel_;
  core::KeyDirectory directory_;
  std::unique_ptr<proto::Station> station_;
  const obs::Observers* observers_{nullptr};
  std::unique_ptr<obs::TelemetrySampler> sampler_;
  sim::SimTime telemetry_period_;
  sim::SimTime telemetry_until_;
  NetRunStats stats_;  ///< transport sub-struct filled on read
  std::array<std::uint64_t, kDecodeErrorCount> decode_error_by_kind_{};
};

}  // namespace sstsp::net

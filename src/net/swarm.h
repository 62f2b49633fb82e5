// In-process N-node live-stack orchestrator (the sstsp_swarm engine).
//
// A Swarm spawns `nodes` NodeRuntimes on one hosting Simulator, connects
// them through either
//   * LoopbackTransport — virtual-time hub, sim_.run_until() drives the
//     run to completion as fast as the host can execute it, and a seeded
//     run is bit-reproducible (tests/net_swarm_test.cpp); or
//   * UdpTransport     — one real non-blocking UDP socket per node on the
//     loopback host, unicast peer mesh over the discovered ephemeral
//     ports, paced in real time by a net::Reactor (so a 10 s run takes
//     10 s of wall clock),
// and shares one observability surface (metrics registry, event trace,
// invariant monitor, beacon lifecycle) across all of them — the same
// sharing model as run::Network, so the audit/trace tooling consumes a
// live run unchanged.  The environment timeline — power-on, the fault
// plan's hooks and the sampling tick with its station census — is the same
// run::Deployment the simulation kernels run, lent the nodes' stations.
//
// The result is reported as a run::RunResult (plus RunResult::net wire
// accounting) against the run::Scenario the SwarmConfig is built on, which
// makes the JSON report and the strict-audit exit-code plumbing of
// sstsp_sim directly reusable by sstsp_swarm.
#pragma once

#include <csignal>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "fault/transport.h"
#include "net/loopback.h"
#include "net/node.h"
#include "net/prom_exporter.h"
#include "net/reactor.h"
#include "net/telemetry_link.h"
#include "net/udp.h"
#include "obs/observers.h"
#include "runner/deployment.h"
#include "runner/experiment.h"
#include "runner/scenario.h"
#include "sim/simulator.h"

namespace sstsp::net {

enum class TransportKind { kLoopback, kUdp };

[[nodiscard]] const char* transport_kind_name(TransportKind kind);

/// The live-stack settings beyond the run's Scenario, set by the flags
/// sstsp_swarm and sstsp_node share (runner/cli.h).  sstsp_node reads
/// bind_address, wire_latency_us and prom_port.
struct LiveOptions {
  TransportKind transport = TransportKind::kUdp;

  /// UDP mode: one socket per node, bound to this (loopback) address.
  /// base_port == 0 binds ephemeral ports and wires the peer mesh from the
  /// discovered ports; otherwise node i binds base_port + i.
  std::string bind_address = "127.0.0.1";
  std::uint16_t base_port = 0;

  /// Loopback mode: hub latency/drop model.
  LoopbackConfig loopback{};

  /// Expected one-way wire latency (NodeConfig::wire_latency_us).  < 0 =
  /// auto: the loopback latency-model midpoint, or kUdpWireLatencyUs for
  /// real sockets.
  double wire_latency_us = -1.0;

  /// Lemma-1 divergence bound handed to the invariant monitor.  < 0 =
  /// auto: the library default (sim-calibrated 50 us) for virtual-time
  /// loopback runs, or kUdpDivergeThresholdUs for wall-paced UDP runs —
  /// user space cannot fully compensate a scheduler preemption landing
  /// between a clock read and the adjacent syscall, so one guard-accepted
  /// noisy measurement can transiently move a node's (k, b) solve by more
  /// than the hardware-timestamping model allows (see DESIGN.md
  /// "Live stack").  Convergence stays judged at the strict 25 us.
  double monitor_diverge_us = -1.0;

  /// Live status line on stderr, refreshed once per telemetry interval
  /// (wall-paced UDP runs; a loopback run finishes in milliseconds).
  bool watch = false;

  /// Prometheus /metrics endpoint on the reactor (UDP mode only):
  /// -1 = off, 0 = ephemeral (port printed at startup), > 0 = fixed port.
  int prom_port = -1;
};

/// A swarm run: a run::Scenario plus the live settings.  Of the Scenario
/// the swarm runs the deployment (node count, duration, seed, SSTSP and
/// PHY parameters, clock bounds, preestablished reference, sampling
/// period), the fault plan — packet directives through a FaultyTransport
/// decorator on each node's endpoint, node faults powering the nodes'
/// stations off and on — and the observer switches, with the same semantics as
/// for run::Network.  Live specifics: cluster samples (source="swarm") are
/// emitted from the deployment's sampling tick; per-node samples
/// (source="node") are emitted by each NodeRuntime and aggregated into the
/// same JSONL stream — over a datagram socket on the reactor in UDP mode,
/// by direct callback in virtual-time loopback mode.  The phase sampler
/// adds a SIGPROF statistical sampler on wall-paced UDP runs.
struct SwarmConfig : run::Scenario, LiveOptions {
  /// The live defaults: 5 nodes, 10 s, live_sstsp_defaults().
  SwarmConfig();
  SwarmConfig(const run::Scenario& scenario, const LiveOptions& live)
      : run::Scenario(scenario), LiveOptions(live) {}
};

class Swarm {
 public:
  /// Builds the whole deployment (sockets bound, peer mesh wired, nodes
  /// constructed, observability attached) without starting the protocol.
  /// nullptr + *error on any failure (bad config, socket errors).
  [[nodiscard]] static std::unique_ptr<Swarm> create(
      const SwarmConfig& config, std::string* error);

  Swarm(const Swarm&) = delete;
  Swarm& operator=(const Swarm&) = delete;

  /// Powers every node on and runs to `duration_s` — virtual-time
  /// (loopback) or wall-paced (UDP).  Blocking; call once.
  void run();

  /// Derives the run report; call after run().
  [[nodiscard]] run::RunResult collect();

  [[nodiscard]] int node_count() const {
    return static_cast<int>(nodes_.size());
  }
  [[nodiscard]] NodeRuntime& node(int i) {
    return *nodes_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] PromExporter* prom_exporter() { return prom_.get(); }
  [[nodiscard]] const SwarmConfig& config() const { return config_; }

  /// The swarm's observers, shared by every node (obs/observers.h).  A
  /// dump-request flag set on them is polled at each sampling tick.
  [[nodiscard]] obs::Observers& observers() { return *observers_; }

  /// Nodes that collect() found dead or silent without a planned fault —
  /// a partial deployment must not masquerade as a clean run; the caller
  /// (sstsp_swarm) turns a non-empty list into a nonzero exit.  Valid
  /// after collect().
  [[nodiscard]] const std::vector<mac::NodeId>& failed_nodes() const {
    return failed_nodes_;
  }

  /// The node currently holding the reference role, if any.
  [[nodiscard]] std::optional<mac::NodeId> current_reference() const {
    return deployment_->current_reference_index();
  }
  /// Max pairwise adjusted-clock offset over awake synchronized nodes at
  /// the current instant (nullopt until at least one node synchronizes).
  [[nodiscard]] std::optional<double> instant_max_diff_us() const {
    return deployment_->instant_max_diff_us();
  }

  /// Async-signal-safe Ctrl-C support (UDP mode; loopback runs are not
  /// interruptible mid-flight, they finish in milliseconds).
  void set_interrupt_flag(const volatile std::sig_atomic_t* flag) {
    if (reactor_) reactor_->set_interrupt_flag(flag);
  }

 private:
  explicit Swarm(const SwarmConfig& config);

  [[nodiscard]] bool init(std::string* error);
  [[nodiscard]] bool init_telemetry(std::string* error);
  void arm();
  static void print_watch_line(const obs::TelemetrySample& sample);
  [[nodiscard]] std::string prometheus_scrape_body();

  SwarmConfig config_;
  sim::Simulator sim_;

  std::unique_ptr<Reactor> reactor_;             ///< UDP mode
  std::vector<std::unique_ptr<UdpTransport>> udp_;
  std::unique_ptr<LoopbackHub> hub_;             ///< loopback mode

  std::unique_ptr<obs::Observers> observers_;
  std::unique_ptr<PromExporter> prom_;
  std::vector<std::unique_ptr<fault::FaultyTransport>> faulty_;

  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
  /// Borrows the nodes' stations, so it is declared after them.
  std::unique_ptr<run::Deployment> deployment_;
  std::vector<mac::NodeId> failed_nodes_;

  bool armed_{false};
  double wall_seconds_{0.0};

  // Live telemetry export.  Everything runs on the single sim/reactor
  // thread (collector callbacks included), so no locking is needed.
  std::vector<std::unique_ptr<TelemetryExporter>> exporters_;  ///< UDP mode
  std::unique_ptr<TelemetryCollector> collector_;              ///< UDP mode
};

}  // namespace sstsp::net

// sstsp_node — one live SSTSP node over UDP.
//
// Runs the unmodified protocol core against real sockets, wall-clock
// paced.  Several processes started with the same --seed/--nodes and
// wired to each other (explicit peers or one multicast group) form a live
// deployment; each emits the same JSONL event stream and run JSON
// document as sstsp_sim, so the audit/trace tooling works unchanged:
//
//   # two-node deployment on one host
//   $ sstsp_node --id 0 --nodes 2 --port 47000 --peer 127.0.0.1:47001
//       --duration 10 --json-out node0.jsonl &
//   $ sstsp_node --id 1 --nodes 2 --port 47001 --peer 127.0.0.1:47000
//       --duration 10 --json-out node1.jsonl
//
//   # multicast on the loopback interface, shared timeline
//   $ EPOCH=$(date +%s)
//   $ sstsp_node --id 0 --nodes 3 --multicast 239.255.47.10:47100
//       --epoch $EPOCH --duration 30 &
//   ...
//
// --epoch anchors the node's protocol timeline at the given UNIX time, so
// processes started seconds apart still agree on beacon-period boundaries
// and µTESLA interval indices.
#include <chrono>
#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include "fault/transport.h"
#include "metrics/report.h"
#include "net/node.h"
#include "net/prom_exporter.h"
#include "net/reactor.h"
#include "net/telemetry_link.h"
#include "net/udp.h"
#include "obs/observers.h"
#include "runner/cli.h"
#include "runner/run_output.h"

namespace {

volatile std::sig_atomic_t g_interrupted = 0;
volatile std::sig_atomic_t g_dump_requested = 0;

void on_signal(int) { g_interrupted = 1; }
void on_sigusr1(int) { g_dump_requested = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace sstsp;

  std::vector<std::string> args(argv + 1, argv + argc);
  std::string error;
  const auto cli = run::parse_cli(args, run::ConfigTool::kNode, &error);
  if (!cli) {
    std::cerr << "error: " << error << "\n\n"
              << run::cli_usage(run::ConfigTool::kNode);
    return 2;
  }
  if (cli->help) {
    std::cout << run::cli_usage(run::ConfigTool::kNode);
    return 0;
  }
  const run::Scenario& scenario = cli->scenario;
  net::NodeConfig config = net::node_config(scenario, cli->node.config);
  config.wire_latency_us = cli->live.wire_latency_us;
  net::UdpConfig udp = cli->node.udp;
  udp.bind_address = cli->live.bind_address;
  const double epoch_unix_s = cli->node.epoch_unix_s;

  // Timeline anchor: sim time 0 is the epoch; this process enters at
  // `start_s` on that timeline (0 when no epoch was given); parse_cli
  // sized the default µTESLA chain to cover it.
  const auto unix_now_s = [] {
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
  };
  double start_s = 0.0;
  if (epoch_unix_s >= 0.0) {
    start_s = unix_now_s() - epoch_unix_s;
    if (start_s < 0.0) {
      std::cerr << "error: --epoch lies in the future\n";
      return 2;
    }
  }

  sim::Simulator sim(config.seed);
  net::Reactor reactor(sim);
  auto transport = net::UdpTransport::open(reactor, udp, &error);
  if (!transport) {
    std::cerr << "error: " << error << '\n';
    return 1;
  }

  // Observability: same sharing model as run::Network, scoped to one node.
  // Recovery accounting needs the network-wide view only an orchestrator
  // (sstsp_swarm) has, so a lone node leaves it off.
  obs::ObservedRun observed;
  observed.sstsp = config.sstsp;
  observed.beacon_period_us = config.phy.beacon_period.to_us();
  observed.faults = scenario.faults;
  observed.track_recovery = false;
  observed.telemetry_source.clear();  // sampled per node below
  std::unique_ptr<obs::Observers> observers;
  try {
    observers = std::make_unique<obs::Observers>(scenario, observed, sim);
  } catch (const std::runtime_error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }

  // Fault plan: decorate the transport so packet directives apply to this
  // node's received datagrams; clock faults fire against the emulated
  // oscillator on this node's timeline.  Node crash/pause directives need
  // an orchestrator that owns every process — sstsp_swarm — and are
  // ignored here.
  std::unique_ptr<fault::FaultyTransport> faulty;
  net::Transport* endpoint = transport.get();
  if (fault::FaultInjector* injector = observers->injector()) {
    faulty = std::make_unique<fault::FaultyTransport>(*transport, sim,
                                                      *injector, config.id);
    endpoint = faulty.get();
  }

  net::NodeRuntime node(sim, *endpoint, config);
  node.set_wall_clock([&reactor] { return reactor.wall_sim_now(); });
  node.attach_observers(*observers);
  fault::FaultHooks hooks;
  hooks.clock_fault = [&node](mac::NodeId id, double step_us,
                              double drift_delta_ppm) {
    if (id == node.config().id) {
      node.station().inject_clock_fault(step_us, drift_delta_ppm);
    }
  };
  observers->schedule_faults(sim, scenario.duration_s, std::move(hooks));

  std::unique_ptr<net::TelemetryExporter> telemetry_exporter;
  if (!cli->node.telemetry_udp_host.empty()) {
    telemetry_exporter = net::TelemetryExporter::open(
        cli->node.telemetry_udp_host, cli->node.telemetry_udp_port, &error);
    if (!telemetry_exporter) {
      std::cerr << "error: --telemetry-udp: " << error << '\n';
      return 1;
    }
  }

  run::RunOutput output(*cli);
  if (!output.begin(observers->trace(), &error)) {
    std::cerr << "error: " << error << '\n';
    return 1;
  }
  output.attach_profiler(observers->profiler());

  std::unique_ptr<net::PromExporter> prom;
  if (cli->live.prom_port >= 0) {
    prom = std::make_unique<net::PromExporter>();
    const auto body = [&] {
      if (auto* sampler = observers->phase_sampler()) sampler->publish_live();
      std::vector<std::pair<std::string, double>> extra;
      extra.emplace_back("node_id", static_cast<double>(config.id));
      extra.emplace_back("node_sim_time_seconds", sim.now().to_sec());
      extra.emplace_back("reactor_wait_seconds",
                         static_cast<double>(reactor.wait_ns()) * 1e-9);
      extra.emplace_back("reactor_work_seconds",
                         static_cast<double>(reactor.work_ns()) * 1e-9);
      return net::prometheus_body(observers->registry().snapshot(), extra);
    };
    if (!prom->open(reactor, static_cast<std::uint16_t>(cli->live.prom_port),
                    body, &error)) {
      std::cerr << "error: --prom-port: " << error << '\n';
      return 1;
    }
    std::cout << "prometheus /metrics on 127.0.0.1:" << prom->port() << '\n';
  }

  std::cout << "node " << config.id << "/" << config.total_nodes << " on "
            << transport->describe() << ", timeline t="
            << metrics::fmt(start_s, 2) << " s, running "
            << scenario.duration_s << " s ...\n";

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  reactor.set_interrupt_flag(&g_interrupted);

  // Re-read the wall clock immediately before anchoring: the start_s
  // computed at argv time is stale by however long this process spent on
  // startup (socket open, µTESLA chain precompute, trace setup), and that
  // span differs per process — anchoring with it would shift each node's
  // timeline by its own startup cost, a constant ms-scale inter-process
  // clock error no receive-side compensation can see.  The argv-time
  // reading still sized the key chain; headroom there covers the drift.
  if (epoch_unix_s >= 0.0) start_s = unix_now_s() - epoch_unix_s;
  const auto start_sim = sim::SimTime::from_sec_double(start_s);
  const auto end_sim =
      start_sim + sim::SimTime::from_sec_double(scenario.duration_s);
  sim.at(start_sim, [&] {
    node.start();
    if (observers->keeps_samples() || telemetry_exporter) {
      // Scheduled from the start instant so the first tick lands one
      // interval into the run, not at a stale pre-epoch time.
      obs::TelemetrySampler::Options topts;
      topts.interval_s = scenario.telemetry_interval_s;
      topts.source = "node";
      topts.process_stats = true;  // wall-paced: RSS + wall clock apply
      node.start_telemetry(
          topts, end_sim, [&](const obs::TelemetrySample& sample) {
            observers->write_sample(sample);
            if (telemetry_exporter) telemetry_exporter->publish(sample);
            // SIGUSR1 poll, piggybacked on the telemetry tick (the only
            // periodic event this tool owns).
            observers->poll_dump_request(sim.now().to_sec());
          });
    }
  });
  if (observers->flight() != nullptr) {
    std::signal(SIGUSR1, on_sigusr1);
    observers->set_dump_request_flag(&g_dump_requested);
  }
  reactor.anchor(start_sim);

  const auto wall_start = std::chrono::steady_clock::now();
  obs::PhaseSampler* phase_sampler = observers->phase_sampler();
  if (phase_sampler != nullptr) {
    std::string live_error;
    if (!phase_sampler->start_live(&live_error)) {
      std::cerr << "warning: live phase sampler: " << live_error << '\n';
    }
  }
  reactor.run_until(end_sim);
  if (phase_sampler != nullptr) phase_sampler->stop_live();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (g_interrupted != 0) {
    std::cout << "(interrupted — reporting the partial run)\n";
  }

  run::RunResult result;
  result.channel = node.channel_stats();
  result.honest = node.station().protocol().stats();
  result.net = node.net_stats();
  obs::Registry& registry = observers->registry();
  registry.gauge("reactor.wait_seconds")
      .set(static_cast<double>(reactor.wait_ns()) * 1e-9);
  registry.gauge("reactor.work_seconds")
      .set(static_cast<double>(reactor.work_ns()) * 1e-9);
  result.events_processed = sim.events_processed();
  run::collect_observers(result, *observers, wall_seconds);
  // No pairwise series from a single vantage point: sync_latency_s and the
  // steady stats stay null in the report.

  const auto& protocol = node.station().protocol();
  std::cout << "\nrole: "
            << (protocol.is_reference()      ? "reference"
                : protocol.is_synchronized() ? "synchronized"
                                             : "unsynchronized")
            << ", network time "
            << metrics::fmt(protocol.network_time_us(sim.now()), 1)
            << " us\n";

  return output.finish(std::cout, std::cerr, scenario, result,
                       observers->trace());
}

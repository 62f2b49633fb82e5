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

#include "core/discipline.h"
#include "fault/plan.h"
#include "fault/transport.h"
#include "metrics/report.h"
#include "net/node.h"
#include "net/prom_exporter.h"
#include "net/reactor.h"
#include "net/telemetry_link.h"
#include "net/udp.h"
#include "obs/observers.h"
#include "runner/cli.h"
#include "runner/config_file.h"
#include "runner/run_output.h"

namespace {

volatile std::sig_atomic_t g_interrupted = 0;
volatile std::sig_atomic_t g_dump_requested = 0;

void on_signal(int) { g_interrupted = 1; }
void on_sigusr1(int) { g_dump_requested = 1; }

using sstsp::run::parse_double;
using sstsp::run::parse_int;

bool parse_endpoint(const std::string& s, std::string* host,
                    std::uint16_t* port) {
  const auto colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == s.size()) {
    return false;
  }
  long long p = 0;
  if (!parse_int(s.substr(colon + 1), &p) || p < 1 || p > 65535) return false;
  *host = s.substr(0, colon);
  *port = static_cast<std::uint16_t>(p);
  return true;
}

const char* usage() {
  return R"(usage: sstsp_node [options]

identity:
  --id N                this node's id in [0, nodes) (default 0)
  --nodes N             deployment size; every process must agree
                        (default 5)
  --seed S              deployment seed: trust anchors + emulated clocks;
                        every process must agree (default 1)
  --duration S          run length in seconds (default 10)

endpoint (unicast mesh):
  --bind ADDR           bind address (default 0.0.0.0)
  --port P              bind port (default 0 = ephemeral; print and wire
                        peers by hand, or use fixed ports)
  --peer HOST:PORT      a peer endpoint; repeatable

endpoint (multicast, replaces --peer):
  --multicast G:P       join group G, send/receive on port P
  --mcast-if ADDR       interface address to join on (default 127.0.0.1)
  --ttl N               multicast TTL (default 0 = same host)
  --wire-latency US     expected one-way wire latency compensated on
                        receive (default 50, a localhost UDP hop)

timeline:
  --epoch UNIX_S        anchor the protocol timeline at this UNIX time so
                        separately started processes share beacon-period
                        boundaries; default: this process's start

clock emulation:
  --max-drift PPM       emulated drift bound (default 100)
  --initial-offset US   emulated initial offset bound (default 112)
  --drift PPM           explicit drift (disables emulation)
  --offset US           explicit initial offset (disables emulation)

protocol:
  --m M, --l L, --guard US, --chain-length N
                        as in sstsp_sim (chain defaults sized to
                        epoch-elapsed + duration)
  --reference           boot directly in the reference role
  --discipline NAME     clock discipline: paper (default) | rls | holdover
  --discipline-params JSON
                        discipline overrides (same keys as the config
                        "discipline" block; see sstsp_sim --help)

faults:
  --faults PATH         fault plan (JSON; same format as sstsp_sim) —
                        packet directives apply to this node's received
                        datagrams; clock faults hit the emulated oscillator
  --faults-json TEXT    the same plan given inline as JSON text

config:
  --config PATH         load flags from a flat JSON object; flags after
                        --config override the file

output (same semantics as sstsp_sim):
  --json-out PATH, --metrics-out PATH, --trace, --trace-limit N,
  --trace-kind KIND, --profile, --monitor[=strict]

telemetry (same schema as sstsp_sim; DESIGN.md §10):
  --telemetry-out PATH  append this node's JSONL samples (source "node")
  --telemetry-udp HOST:PORT
                        also publish each sample as one UDP datagram (e.g.
                        to a sstsp_swarm collector or `nc -lu`)
  --telemetry-interval S  sampling interval in seconds (default 1)
  --flight-recorder PATH  ring of recent events + samples, dumped on new
                        audit record classes and SIGUSR1
  --flight-capacity N   flight-recorder event ring size (default 512)

performance observatory (DESIGN.md §11):
  --timeline-out PATH   write the run as Chrome-trace-event JSON loadable
                        in ui.perfetto.dev
  --sampler             phase-sampling profiler into the metrics registry
                        (dispatch-gated + SIGPROF statistical sampling)
  --sampler-interval S  sampling interval in seconds (default 0.001;
                        implies --sampler)
  --prom-textfile PATH  dump the final metrics registry in Prometheus text
                        exposition format
  --prom-port P         serve a live /metrics endpoint on 127.0.0.1:P from
                        the reactor (0 = ephemeral, printed at startup)
  --help                this text
)";
}

struct NodeCli {
  NodeCli() { node.wire_latency_us = sstsp::net::kUdpWireLatencyUs; }

  sstsp::net::NodeConfig node;
  sstsp::net::UdpConfig udp;
  sstsp::fault::FaultPlan faults;
  double duration_s = 10.0;
  double epoch_unix_s = -1.0;  ///< <0: unset
  bool chain_set = false;
  sstsp::obs::ObserverConfig observers;
  std::string telemetry_udp_host;
  std::uint16_t telemetry_udp_port = 0;
  int prom_port = -1;  ///< -1 off, 0 ephemeral, > 0 fixed
  sstsp::run::OutputOptions output;
  bool help = false;
};

std::optional<NodeCli> parse_args(const std::vector<std::string>& args,
                                  std::string* error) {
  NodeCli cli;
  bool explicit_clock = false;
  bool config_loaded = false;

  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };

  std::vector<std::string> argv = args;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string arg = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argv.size()) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    long long n = 0;
    double d = 0;

    const auto shared = sstsp::run::parse_observer_flag(
        argv, i, sstsp::run::ConfigTool::kNode, cli.observers, cli.output,
        error);
    if (shared == sstsp::run::FlagParse::kFailed) return std::nullopt;
    if (shared == sstsp::run::FlagParse::kParsed) continue;

    if (arg == "--help" || arg == "-h") {
      cli.help = true;
      return cli;
    } else if (arg == "--id") {
      if (!next(&v) || !parse_int(v, &n) || n < 0) {
        return fail("--id needs a non-negative integer");
      }
      cli.node.id = static_cast<sstsp::mac::NodeId>(n);
    } else if (arg == "--nodes") {
      if (!next(&v) || !parse_int(v, &n) || n < 1) {
        return fail("--nodes needs a positive integer");
      }
      cli.node.total_nodes = static_cast<int>(n);
    } else if (arg == "--seed") {
      if (!next(&v) || !parse_int(v, &n)) {
        return fail("--seed needs an integer");
      }
      cli.node.seed = static_cast<std::uint64_t>(n);
    } else if (arg == "--duration") {
      if (!next(&v) || !parse_double(v, &d) || d <= 0) {
        return fail("--duration needs a positive number of seconds");
      }
      cli.duration_s = d;
    } else if (arg == "--bind") {
      if (!next(&cli.udp.bind_address)) return fail("--bind needs an address");
    } else if (arg == "--port") {
      if (!next(&v) || !parse_int(v, &n) || n < 0 || n > 65535) {
        return fail("--port needs a port number");
      }
      cli.udp.bind_port = static_cast<std::uint16_t>(n);
    } else if (arg == "--peer") {
      sstsp::net::UdpEndpoint peer;
      if (!next(&v) || !parse_endpoint(v, &peer.host, &peer.port)) {
        return fail("--peer needs HOST:PORT");
      }
      cli.udp.peers.push_back(peer);
    } else if (arg == "--multicast") {
      std::string host;
      std::uint16_t port = 0;
      if (!next(&v) || !parse_endpoint(v, &host, &port)) {
        return fail("--multicast needs GROUP:PORT");
      }
      cli.udp.multicast_group = host;
      cli.udp.multicast_port = port;
    } else if (arg == "--mcast-if") {
      if (!next(&cli.udp.multicast_interface)) {
        return fail("--mcast-if needs an address");
      }
    } else if (arg == "--ttl") {
      if (!next(&v) || !parse_int(v, &n) || n < 0 || n > 255) {
        return fail("--ttl needs a value in [0, 255]");
      }
      cli.udp.multicast_ttl = static_cast<int>(n);
    } else if (arg == "--wire-latency") {
      if (!next(&v) || !parse_double(v, &d) || d < 0) {
        return fail("--wire-latency needs a value in us");
      }
      cli.node.wire_latency_us = d;
    } else if (arg == "--epoch") {
      if (!next(&v) || !parse_double(v, &d) || d < 0) {
        return fail("--epoch needs a UNIX time in seconds");
      }
      cli.epoch_unix_s = d;
    } else if (arg == "--max-drift") {
      if (!next(&v) || !parse_double(v, &d) || d < 0) {
        return fail("--max-drift needs a value in ppm");
      }
      cli.node.max_drift_ppm = d;
    } else if (arg == "--initial-offset") {
      if (!next(&v) || !parse_double(v, &d) || d < 0) {
        return fail("--initial-offset needs a value in us");
      }
      cli.node.initial_offset_us = d;
    } else if (arg == "--drift") {
      if (!next(&v) || !parse_double(v, &d)) {
        return fail("--drift needs a value in ppm");
      }
      cli.node.drift_ppm = d;
      explicit_clock = true;
    } else if (arg == "--offset") {
      if (!next(&v) || !parse_double(v, &d)) {
        return fail("--offset needs a value in us");
      }
      cli.node.offset_us = d;
      explicit_clock = true;
    } else if (arg == "--m") {
      if (!next(&v) || !parse_int(v, &n) || n < 1) {
        return fail("--m needs a positive integer");
      }
      cli.node.sstsp.m = static_cast<int>(n);
    } else if (arg == "--l") {
      if (!next(&v) || !parse_int(v, &n) || n < 1) {
        return fail("--l needs a positive integer");
      }
      cli.node.sstsp.l = static_cast<int>(n);
    } else if (arg == "--guard") {
      if (!next(&v) || !parse_double(v, &d) || d <= 0) {
        return fail("--guard needs a positive value in us");
      }
      cli.node.sstsp.guard_fine_us = d;
    } else if (arg == "--chain-length") {
      if (!next(&v) || !parse_int(v, &n) || n < 10) {
        return fail("--chain-length needs an integer >= 10");
      }
      cli.node.sstsp.chain_length = static_cast<std::size_t>(n);
      cli.chain_set = true;
    } else if (arg == "--discipline") {
      if (!next(&v)) return fail("--discipline needs a name");
      if (!sstsp::core::discipline_known(v)) {
        return fail("unknown discipline: " + v +
                    " (known: paper, rls, holdover)");
      }
      cli.node.sstsp.discipline.name = v;
    } else if (arg == "--discipline-params") {
      if (!next(&v)) return fail("--discipline-params needs a JSON object");
      const auto parsed = sstsp::obs::json::parse(v);
      if (!parsed) {
        return fail("--discipline-params is not valid JSON: " + v);
      }
      std::string dsc_error;
      if (!sstsp::core::apply_discipline_json(*parsed, &cli.node.sstsp,
                                              &dsc_error)) {
        return fail("--discipline-params: " + dsc_error);
      }
    } else if (arg == "--reference") {
      cli.node.start_as_reference = true;
    } else if (arg == "--faults") {
      if (!next(&v)) return fail("--faults needs a path");
      std::string plan_error;
      const auto plan = sstsp::fault::load_plan(v, &plan_error);
      if (!plan) return fail(plan_error);
      cli.faults = *plan;
    } else if (arg == "--faults-json") {
      if (!next(&v)) return fail("--faults-json needs JSON text");
      std::string plan_error;
      const auto plan = sstsp::fault::parse_plan_text(v, &plan_error);
      if (!plan) return fail("--faults-json: " + plan_error);
      cli.faults = *plan;
    } else if (arg == "--config") {
      if (!next(&v)) return fail("--config needs a path");
      if (config_loaded) return fail("--config may be given only once");
      config_loaded = true;
      std::string cfg_error;
      const auto cfg_args = sstsp::run::load_config_args(
          v, sstsp::run::ConfigTool::kNode, &cfg_error);
      if (!cfg_args) return fail(cfg_error);
      argv.insert(argv.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  cfg_args->begin(), cfg_args->end());
    } else if (arg == "--telemetry-udp") {
      if (!next(&v) || !parse_endpoint(v, &cli.telemetry_udp_host,
                                       &cli.telemetry_udp_port)) {
        return fail("--telemetry-udp needs HOST:PORT");
      }
    } else if (arg == "--prom-port") {
      if (!next(&v) || !parse_int(v, &n) || n < 0 || n > 65535) {
        return fail("--prom-port needs a port number (0 = ephemeral)");
      }
      cli.prom_port = static_cast<int>(n);
    } else {
      return fail("unknown option: " + arg);
    }
  }

  if (cli.node.id >= static_cast<sstsp::mac::NodeId>(cli.node.total_nodes)) {
    return fail("--id must be < --nodes");
  }
  if (explicit_clock) cli.node.emulate_clock = false;
  if (cli.udp.multicast_group.empty() && cli.udp.peers.empty()) {
    return fail("need at least one --peer or a --multicast group");
  }
  return cli;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sstsp;

  std::vector<std::string> args(argv + 1, argv + argc);
  std::string error;
  auto cli = parse_args(args, &error);
  if (!cli) {
    std::cerr << "error: " << error << "\n\n" << usage();
    return 2;
  }
  if (cli->help) {
    std::cout << usage();
    return 0;
  }

  // Timeline anchor: sim time 0 is the epoch; this process enters at
  // `start_s` on that timeline (0 when no epoch was given).
  double start_s = 0.0;
  if (cli->epoch_unix_s >= 0.0) {
    const double now_unix =
        std::chrono::duration<double>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    start_s = now_unix - cli->epoch_unix_s;
    if (start_s < 0.0) {
      std::cerr << "error: --epoch lies in the future\n";
      return 2;
    }
  }
  if (!cli->chain_set) {
    // The chain must cover every interval since the epoch, not just the
    // run: indices are absolute on the shared timeline.
    cli->node.sstsp.chain_length =
        static_cast<std::size_t>((start_s + cli->duration_s) * 10.0) + 200;
  }

  sim::Simulator sim(cli->node.seed);
  net::Reactor reactor(sim);
  auto transport = net::UdpTransport::open(reactor, cli->udp, &error);
  if (!transport) {
    std::cerr << "error: " << error << '\n';
    return 1;
  }

  // Observability: same sharing model as run::Network, scoped to one node.
  // Recovery accounting needs the network-wide view only an orchestrator
  // (sstsp_swarm) has, so a lone node leaves it off.
  obs::ObservedRun observed;
  observed.sstsp = cli->node.sstsp;
  observed.beacon_period_us = cli->node.phy.beacon_period.to_us();
  observed.faults = cli->faults;
  observed.track_recovery = false;
  observed.telemetry_source.clear();  // sampled per node below
  std::unique_ptr<obs::Observers> observers;
  try {
    observers = std::make_unique<obs::Observers>(cli->observers, observed, sim);
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
                                                      *injector, cli->node.id);
    endpoint = faulty.get();
  }

  net::NodeRuntime node(sim, *endpoint, cli->node);
  node.set_wall_clock([&reactor] { return reactor.wall_sim_now(); });
  node.attach_observers(*observers);
  fault::FaultHooks hooks;
  hooks.clock_fault = [&node](mac::NodeId id, double step_us,
                              double drift_delta_ppm) {
    if (id == node.config().id) {
      node.station().inject_clock_fault(step_us, drift_delta_ppm);
    }
  };
  observers->schedule_faults(sim, cli->duration_s, std::move(hooks));

  std::unique_ptr<net::TelemetryExporter> telemetry_exporter;
  if (!cli->telemetry_udp_host.empty()) {
    telemetry_exporter = net::TelemetryExporter::open(
        cli->telemetry_udp_host, cli->telemetry_udp_port, &error);
    if (!telemetry_exporter) {
      std::cerr << "error: --telemetry-udp: " << error << '\n';
      return 1;
    }
  }

  run::RunOutput output(cli->output);
  if (!output.begin(observers->trace(), &error)) {
    std::cerr << "error: " << error << '\n';
    return 1;
  }
  output.attach_profiler(observers->profiler());

  std::unique_ptr<net::PromExporter> prom;
  if (cli->prom_port >= 0) {
    prom = std::make_unique<net::PromExporter>();
    const auto body = [&] {
      if (auto* sampler = observers->phase_sampler()) sampler->publish_live();
      std::vector<std::pair<std::string, double>> extra;
      extra.emplace_back("node_id", static_cast<double>(cli->node.id));
      extra.emplace_back("node_sim_time_seconds", sim.now().to_sec());
      extra.emplace_back("reactor_wait_seconds",
                         static_cast<double>(reactor.wait_ns()) * 1e-9);
      extra.emplace_back("reactor_work_seconds",
                         static_cast<double>(reactor.work_ns()) * 1e-9);
      return net::prometheus_body(observers->registry().snapshot(), extra);
    };
    if (!prom->open(reactor, static_cast<std::uint16_t>(cli->prom_port), body,
                    &error)) {
      std::cerr << "error: --prom-port: " << error << '\n';
      return 1;
    }
    std::cout << "prometheus /metrics on 127.0.0.1:" << prom->port() << '\n';
  }

  std::cout << "node " << cli->node.id << "/" << cli->node.total_nodes
            << " on " << transport->describe() << ", timeline t="
            << metrics::fmt(start_s, 2) << " s, running "
            << cli->duration_s << " s ...\n";

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  reactor.set_interrupt_flag(&g_interrupted);

  // Re-read the wall clock immediately before anchoring: the start_s
  // computed at argv time is stale by however long this process spent on
  // startup (socket open, µTESLA chain precompute, trace setup), and that
  // span differs per process — anchoring with it would shift each node's
  // timeline by its own startup cost, a constant ms-scale inter-process
  // clock error no receive-side compensation can see.  The earlier value
  // still sized the key chain; headroom there covers the drift.
  if (cli->epoch_unix_s >= 0.0) {
    start_s = std::chrono::duration<double>(
                  std::chrono::system_clock::now().time_since_epoch())
                  .count() -
              cli->epoch_unix_s;
  }
  const auto start_sim = sim::SimTime::from_sec_double(start_s);
  const auto end_sim =
      start_sim + sim::SimTime::from_sec_double(cli->duration_s);
  sim.at(start_sim, [&] {
    node.start();
    if (observers->keeps_samples() || telemetry_exporter) {
      // Scheduled from the start instant so the first tick lands one
      // interval into the run, not at a stale pre-epoch time.
      obs::TelemetrySampler::Options topts;
      topts.interval_s = cli->observers.telemetry_interval_s;
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
  result.channel = node.channel().stats();
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

  run::Scenario scenario;
  scenario.protocol = run::ProtocolKind::kSstsp;
  scenario.num_nodes = cli->node.total_nodes;
  scenario.duration_s = cli->duration_s;
  scenario.seed = cli->node.seed;
  scenario.sstsp = cli->node.sstsp;
  scenario.phy = cli->node.phy;
  scenario.max_drift_ppm = cli->node.max_drift_ppm;
  scenario.initial_offset_us = cli->node.initial_offset_us;
  static_cast<obs::ObserverConfig&>(scenario) = cli->observers;

  return output.finish(std::cout, std::cerr, scenario, result,
                       observers->trace());
}

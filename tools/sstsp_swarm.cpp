// sstsp_swarm — in-process live-stack emulation harness.
//
// Spawns N SSTSP nodes in one process, each with its own emulated
// oscillator and its own transport endpoint, and lets them synchronize
// over a real wire instead of the simulated 802.11 channel:
//
//   $ sstsp_swarm --nodes 5 --duration 10            # loopback UDP, wall
//   $ sstsp_swarm --transport loopback --seed 7      # virtual time, fast,
//                                                    # bit-reproducible
//   $ sstsp_swarm --nodes 5 --duration 10 --monitor=strict
//       --json-out swarm.jsonl --metrics-out swarm.json
//
// Output is byte-compatible with sstsp_sim (same JSONL event stream, same
// run JSON document + a "net" wire-accounting section), so the audit and
// trace tooling consumes live runs unchanged.
#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include "core/discipline.h"
#include "fault/plan.h"
#include "metrics/report.h"
#include "net/swarm.h"
#include "runner/config_file.h"
#include "runner/run_output.h"

namespace {

volatile std::sig_atomic_t g_interrupted = 0;
volatile std::sig_atomic_t g_dump_requested = 0;

void on_signal(int) { g_interrupted = 1; }
void on_sigusr1(int) { g_dump_requested = 1; }

using sstsp::run::parse_double;
using sstsp::run::parse_int;

const char* usage() {
  return R"(usage: sstsp_swarm [options]

deployment:
  --nodes N             node count (default 5)
  --duration S          run length in seconds (default 10)
  --seed S              deployment seed: trust anchors, emulated clocks,
                        loopback latency draws
  --transport T         udp (real sockets on 127.0.0.1, wall-clock paced)
                        or loopback (in-process hub, virtual time,
                        bit-reproducible); default udp
  --bind ADDR           UDP bind address (default 127.0.0.1)
  --base-port P         UDP: node i binds P+i (default 0 = ephemeral)
  --latency MIN,MAX     loopback one-way latency bounds in us (default
                        35,45)
  --drop P              loopback per-delivery drop probability (default 0)
  --wire-latency US     expected one-way wire latency compensated on
                        receive (default: loopback model midpoint, or 10
                        for UDP)
  --diverge-threshold US  monitor's Lemma-1 divergence bound (default: 50,
                        or 150 for wall-paced UDP — see DESIGN.md "Live
                        stack" on emulation noise)

protocol:
  --m M                 SSTSP aggressiveness (default 3)
  --l L                 missed-beacon tolerance (default 1)
  --guard US            base guard time in us
  --chain-length N      µTESLA chain length (default sized to duration)
  --max-drift PPM       emulated oscillator drift bound (default 100)
  --initial-offset US   emulated initial offset bound (default 112)
  --preestablished      node 0 boots as the reference
  --sample-period S     max-offset sampling cadence (default 0.1)
  --discipline NAME     clock discipline: paper (default) | rls | holdover
  --discipline-params JSON
                        discipline overrides (same keys as the config
                        "discipline" block; see sstsp_sim --help)

faults:
  --faults PATH         load a fault plan (JSON; same format as sstsp_sim):
                        packet faults apply per arriving datagram, node
                        crash/pause stop/start nodes, clock faults step the
                        emulated oscillators
  --faults-json TEXT    the same plan given inline as JSON text

config:
  --config PATH         load flags from a flat JSON object ({"nodes": 5});
                        flags after --config override the file

output (same semantics as sstsp_sim):
  --csv PATH, --chart, --trace, --trace-limit N, --trace-kind KIND,
  --json-out PATH, --metrics-out PATH, --profile, --monitor[=strict]

telemetry (same schema as sstsp_sim; DESIGN.md §10):
  --telemetry-out PATH  aggregate JSONL stream: cluster samples
                        (source "swarm") + per-node samples published by
                        every node — over a datagram socket on the reactor
                        in UDP mode, in-process on loopback
  --telemetry-interval S  sampling interval in seconds (default 1)
  --telemetry-per-node 0|1  per-node error arrays on cluster samples
                        (default auto: on for <= 64 nodes)
  --flight-recorder PATH  ring of recent events + samples, dumped on new
                        audit record classes, unplanned node failures and
                        SIGUSR1
  --flight-capacity N   flight-recorder event ring size (default 512)
  --watch               live status line on stderr, one refresh per
                        telemetry interval (wall-paced runs)

performance observatory (DESIGN.md §11):
  --timeline-out PATH   write the run as Chrome-trace-event JSON loadable
                        in ui.perfetto.dev (protocol events per node,
                        beacon flow arrows, profiler spans with --profile)
  --sampler             phase-sampling profiler into the metrics registry;
                        wall-paced runs add a SIGPROF statistical sampler
  --sampler-interval S  sampling interval in seconds (default 0.001;
                        implies --sampler)
  --prom-textfile PATH  dump the final metrics registry in Prometheus text
                        exposition format
  --prom-port P         serve a live /metrics endpoint on 127.0.0.1:P from
                        the reactor (udp transport only; 0 = ephemeral,
                        the chosen port is printed at startup)

checks:
  --expect-sync         exit 4 unless a reference holds the role and the
                        final max pairwise adjusted-clock offset is under
                        the guard threshold (CI smoke)
  --help                this text
)";
}

struct SwarmCli {
  sstsp::net::SwarmConfig swarm;
  sstsp::run::OutputOptions output;
  bool expect_sync = false;
  bool help = false;
};

std::optional<SwarmCli> parse_args(const std::vector<std::string>& args,
                                   std::string* error) {
  using sstsp::net::TransportKind;
  SwarmCli cli;
  bool chain_set = false;
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
        argv, i, sstsp::run::ConfigTool::kSwarm, cli.swarm, cli.output, error);
    if (shared == sstsp::run::FlagParse::kFailed) return std::nullopt;
    if (shared == sstsp::run::FlagParse::kParsed) continue;

    if (arg == "--help" || arg == "-h") {
      cli.help = true;
      return cli;
    } else if (arg == "--nodes") {
      if (!next(&v) || !parse_int(v, &n) || n < 1) {
        return fail("--nodes needs a positive integer");
      }
      cli.swarm.nodes = static_cast<int>(n);
    } else if (arg == "--duration") {
      if (!next(&v) || !parse_double(v, &d) || d <= 0) {
        return fail("--duration needs a positive number of seconds");
      }
      cli.swarm.duration_s = d;
    } else if (arg == "--seed") {
      if (!next(&v) || !parse_int(v, &n)) {
        return fail("--seed needs an integer");
      }
      cli.swarm.seed = static_cast<std::uint64_t>(n);
    } else if (arg == "--transport") {
      if (!next(&v)) return fail("--transport needs udp | loopback");
      if (v == "udp") {
        cli.swarm.transport = TransportKind::kUdp;
      } else if (v == "loopback") {
        cli.swarm.transport = TransportKind::kLoopback;
      } else {
        return fail("unknown transport: " + v);
      }
    } else if (arg == "--bind") {
      if (!next(&cli.swarm.bind_address)) return fail("--bind needs an address");
    } else if (arg == "--base-port") {
      if (!next(&v) || !parse_int(v, &n) || n < 0 || n > 65535) {
        return fail("--base-port needs a port number");
      }
      cli.swarm.base_port = static_cast<std::uint16_t>(n);
    } else if (arg == "--latency") {
      if (!next(&v)) return fail("--latency needs min,max in us");
      const auto parts = sstsp::run::split(v, ',');
      double lo = 0;
      double hi = 0;
      if (parts.size() != 2 || !parse_double(parts[0], &lo) ||
          !parse_double(parts[1], &hi) || lo < 0 || hi < lo) {
        return fail("--latency needs min,max in us with max >= min >= 0");
      }
      cli.swarm.loopback.latency_min = sstsp::sim::SimTime::from_us_double(lo);
      cli.swarm.loopback.latency_max = sstsp::sim::SimTime::from_us_double(hi);
    } else if (arg == "--wire-latency") {
      if (!next(&v) || !parse_double(v, &d) || d < 0) {
        return fail("--wire-latency needs a value in us");
      }
      cli.swarm.wire_latency_us = d;
    } else if (arg == "--diverge-threshold") {
      if (!next(&v) || !parse_double(v, &d) || d < 0) {
        return fail("--diverge-threshold needs a value in us");
      }
      cli.swarm.monitor_diverge_us = d;
    } else if (arg == "--drop") {
      if (!next(&v) || !parse_double(v, &d) || d < 0 || d >= 1) {
        return fail("--drop needs a probability in [0, 1)");
      }
      cli.swarm.loopback.drop_probability = d;
    } else if (arg == "--m") {
      if (!next(&v) || !parse_int(v, &n) || n < 1) {
        return fail("--m needs a positive integer");
      }
      cli.swarm.sstsp.m = static_cast<int>(n);
    } else if (arg == "--l") {
      if (!next(&v) || !parse_int(v, &n) || n < 1) {
        return fail("--l needs a positive integer");
      }
      cli.swarm.sstsp.l = static_cast<int>(n);
    } else if (arg == "--guard") {
      if (!next(&v) || !parse_double(v, &d) || d <= 0) {
        return fail("--guard needs a positive value in us");
      }
      cli.swarm.sstsp.guard_fine_us = d;
    } else if (arg == "--chain-length") {
      if (!next(&v) || !parse_int(v, &n) || n < 10) {
        return fail("--chain-length needs an integer >= 10");
      }
      cli.swarm.sstsp.chain_length = static_cast<std::size_t>(n);
      chain_set = true;
    } else if (arg == "--discipline") {
      if (!next(&v)) return fail("--discipline needs a name");
      if (!sstsp::core::discipline_known(v)) {
        return fail("unknown discipline: " + v +
                    " (known: paper, rls, holdover)");
      }
      cli.swarm.sstsp.discipline.name = v;
    } else if (arg == "--discipline-params") {
      if (!next(&v)) return fail("--discipline-params needs a JSON object");
      const auto parsed = sstsp::obs::json::parse(v);
      if (!parsed) {
        return fail("--discipline-params is not valid JSON: " + v);
      }
      std::string dsc_error;
      if (!sstsp::core::apply_discipline_json(*parsed, &cli.swarm.sstsp,
                                              &dsc_error)) {
        return fail("--discipline-params: " + dsc_error);
      }
    } else if (arg == "--max-drift") {
      if (!next(&v) || !parse_double(v, &d) || d < 0) {
        return fail("--max-drift needs a value in ppm");
      }
      cli.swarm.max_drift_ppm = d;
    } else if (arg == "--initial-offset") {
      if (!next(&v) || !parse_double(v, &d) || d < 0) {
        return fail("--initial-offset needs a value in us");
      }
      cli.swarm.initial_offset_us = d;
    } else if (arg == "--preestablished") {
      cli.swarm.preestablished_reference = true;
    } else if (arg == "--sample-period") {
      if (!next(&v) || !parse_double(v, &d) || d <= 0) {
        return fail("--sample-period needs a positive number of seconds");
      }
      cli.swarm.sample_period_s = d;
    } else if (arg == "--faults") {
      if (!next(&v)) return fail("--faults needs a path");
      std::string plan_error;
      const auto plan = sstsp::fault::load_plan(v, &plan_error);
      if (!plan) return fail(plan_error);
      cli.swarm.faults = *plan;
    } else if (arg == "--faults-json") {
      if (!next(&v)) return fail("--faults-json needs JSON text");
      std::string plan_error;
      const auto plan = sstsp::fault::parse_plan_text(v, &plan_error);
      if (!plan) return fail("--faults-json: " + plan_error);
      cli.swarm.faults = *plan;
    } else if (arg == "--config") {
      if (!next(&v)) return fail("--config needs a path");
      if (config_loaded) return fail("--config may be given only once");
      config_loaded = true;
      std::string cfg_error;
      const auto cfg_args = sstsp::run::load_config_args(
          v, sstsp::run::ConfigTool::kSwarm, &cfg_error);
      if (!cfg_args) return fail(cfg_error);
      argv.insert(argv.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  cfg_args->begin(), cfg_args->end());
    } else if (arg == "--watch") {
      cli.swarm.watch = true;
    } else if (arg == "--prom-port") {
      if (!next(&v) || !parse_int(v, &n) || n < 0 || n > 65535) {
        return fail("--prom-port needs a port number (0 = ephemeral)");
      }
      cli.swarm.prom_port = static_cast<int>(n);
    } else if (arg == "--expect-sync") {
      cli.expect_sync = true;
    } else {
      return fail("unknown option: " + arg);
    }
  }

  if (!chain_set) {
    cli.swarm.sstsp.chain_length =
        static_cast<std::size_t>(cli.swarm.duration_s * 10.0) + 200;
  }
  return cli;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sstsp;

  std::vector<std::string> args(argv + 1, argv + argc);
  std::string error;
  const auto cli = parse_args(args, &error);
  if (!cli) {
    std::cerr << "error: " << error << "\n\n" << usage();
    return 2;
  }
  if (cli->help) {
    std::cout << usage();
    return 0;
  }

  auto swarm = net::Swarm::create(cli->swarm, &error);
  if (!swarm) {
    std::cerr << "error: " << error << '\n';
    return 1;
  }

  const bool wall_paced =
      cli->swarm.transport == net::TransportKind::kUdp;
  std::cout << "swarm: " << cli->swarm.nodes << " nodes over "
            << net::transport_kind_name(cli->swarm.transport) << ", "
            << cli->swarm.duration_s << " s ("
            << (wall_paced ? "wall-clock paced" : "virtual time")
            << "), seed " << cli->swarm.seed << " ...\n";
  if (wall_paced) {
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    swarm->set_interrupt_flag(&g_interrupted);
  }
  if (!cli->swarm.flight_recorder_out.empty()) {
    std::signal(SIGUSR1, on_sigusr1);
    swarm->observers().set_dump_request_flag(&g_dump_requested);
  }

  run::RunOutput output(cli->output);
  if (!output.begin(swarm->observers().trace(), &error)) {
    std::cerr << "error: " << error << '\n';
    return 1;
  }
  output.attach_profiler(swarm->observers().profiler());
  if (swarm->prom_exporter() != nullptr) {
    std::cout << "prometheus /metrics on 127.0.0.1:"
              << swarm->prom_exporter()->port() << '\n';
  }

  swarm->run();
  if (g_interrupted != 0) {
    std::cout << "(interrupted — reporting the partial run)\n";
  }

  const run::RunResult result = swarm->collect();
  const run::Scenario scenario = swarm->reporting_scenario();

  const auto reference = swarm->current_reference();
  const auto final_diff = swarm->instant_max_diff_us();
  std::cout << "\nreference: "
            << (reference ? "node " + std::to_string(*reference)
                          : std::string("none"))
            << "\nfinal max pairwise offset: "
            << (final_diff ? metrics::fmt(*final_diff, 2) + " us"
                           : std::string("- (no synchronized nodes)"))
            << '\n';

  const int code = output.finish(std::cout, std::cerr, scenario, result,
                                 swarm->observers().trace());

  if (!swarm->failed_nodes().empty()) {
    std::cerr << "error: node(s)";
    for (const auto id : swarm->failed_nodes()) std::cerr << ' ' << id;
    std::cerr << " died or stayed silent with no planned fault "
                 "(see the node-failure audit records)\n";
    return 5;
  }
  if (code != 0) return code;

  if (cli->expect_sync) {
    const double guard = cli->swarm.sstsp.guard_fine_us;
    if (!reference || !final_diff || *final_diff >= guard) {
      std::cerr << "error: --expect-sync: "
                << (!reference ? "no reference holds the role"
                    : !final_diff
                        ? "no synchronized nodes"
                        : "final max offset " + metrics::fmt(*final_diff, 2) +
                              " us >= guard " + metrics::fmt(guard, 2) +
                              " us")
                << '\n';
      return 4;
    }
    std::cout << "expect-sync: ok (offset under the " << guard
              << " us guard)\n";
  }
  return 0;
}

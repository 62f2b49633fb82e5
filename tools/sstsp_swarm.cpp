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

#include "metrics/report.h"
#include "net/swarm.h"
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
  const auto cli = run::parse_cli(args, run::ConfigTool::kSwarm, &error);
  if (!cli) {
    std::cerr << "error: " << error << "\n\n"
              << run::cli_usage(run::ConfigTool::kSwarm);
    return 2;
  }
  if (cli->help) {
    std::cout << run::cli_usage(run::ConfigTool::kSwarm);
    return 0;
  }

  const net::SwarmConfig config(cli->scenario, cli->live);
  auto swarm = net::Swarm::create(config, &error);
  if (!swarm) {
    std::cerr << "error: " << error << '\n';
    return 1;
  }

  const bool wall_paced = config.transport == net::TransportKind::kUdp;
  std::cout << "swarm: " << config.num_nodes << " nodes over "
            << net::transport_kind_name(config.transport) << ", "
            << config.duration_s << " s ("
            << (wall_paced ? "wall-clock paced" : "virtual time")
            << "), seed " << config.seed << " ...\n";
  if (wall_paced) {
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    swarm->set_interrupt_flag(&g_interrupted);
  }
  if (!config.flight_recorder_out.empty()) {
    std::signal(SIGUSR1, on_sigusr1);
    swarm->observers().set_dump_request_flag(&g_dump_requested);
  }

  run::RunOutput output(*cli);
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

  const auto reference = swarm->current_reference();
  const auto final_diff = swarm->instant_max_diff_us();
  std::cout << "\nreference: "
            << (reference ? "node " + std::to_string(*reference)
                          : std::string("none"))
            << "\nfinal max pairwise offset: "
            << (final_diff ? metrics::fmt(*final_diff, 2) + " us"
                           : std::string("- (no synchronized nodes)"))
            << '\n';

  const int code = output.finish(std::cout, std::cerr, config, result,
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
    const double guard = config.sstsp.guard_fine_us;
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

// sstsp_sim — command-line scenario runner.
//
//   $ sstsp_sim --protocol sstsp --nodes 200 --duration 300 --chart
//   $ sstsp_sim --protocol tsf --nodes 300 --paper-env --csv tsf300.csv
//   $ sstsp_sim --attack internal-ref --attack-window 100,200 --trace
//   $ sstsp_sim --json-out run.jsonl --metrics-out metrics.json --profile
//   $ sstsp_sim --telemetry-out tele.jsonl --flight-recorder flight.jsonl
//   $ sstsp_sim --config experiment.json
//
// See --help for the full option list.  Everything the tool does is also
// available programmatically through runner::run_scenario.
#include <chrono>
#include <csignal>
#include <exception>
#include <iostream>
#include <string>

#include "runner/cli.h"
#include "runner/experiment.h"
#include "runner/network.h"
#include "runner/parallel_network.h"
#include "runner/run_output.h"

namespace {
// SIGUSR1 -> flight-recorder dump at the next sampling tick (async-signal-
// safe: the handler only sets the flag; the run loop does the I/O).
volatile std::sig_atomic_t g_dump_requested = 0;
void on_sigusr1(int) { g_dump_requested = 1; }

/// Builds, runs and reports a scenario on either kernel: run::Network, or
/// run::ParallelNetwork for --threads/--shards.  Both expose the same
/// observer bundle, fed the same events (the sharded kernel's merged at
/// each window commit).
template <class Net>
int run_kernel(const sstsp::run::CliOptions& opts) {
  using namespace sstsp;
  const run::Scenario& s = opts.scenario;
  Net net(s);
  if (!s.flight_recorder_out.empty()) {
    std::signal(SIGUSR1, on_sigusr1);
    net.observers().set_dump_request_flag(&g_dump_requested);
  }

  run::RunOutput output(opts);
  std::string error;
  if (!output.begin(net.trace(), &error)) {
    std::cerr << "error: " << error << '\n';
    return 1;
  }
  // Span edges come from the one thread a profiler runs on: the legacy
  // kernel's.  The sharded kernel's profilers live in its shard bundles,
  // so its timeline carries no spans (DESIGN.md §12).
  output.attach_profiler(net.observers().profiler());

  const auto wall_start = std::chrono::steady_clock::now();
  net.run();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const run::RunResult result = run::collect_result(net, wall_seconds);
  return output.finish(std::cout, std::cerr, s, result, net.trace());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sstsp;

  std::vector<std::string> args(argv + 1, argv + argc);
  std::string error;
  const auto opts = run::parse_cli(args, run::ConfigTool::kSim, &error);
  if (!opts) {
    std::cerr << "error: " << error << "\n\n"
              << run::cli_usage(run::ConfigTool::kSim);
    return 2;
  }
  if (opts->help) {
    std::cout << run::cli_usage(run::ConfigTool::kSim);
    return 0;
  }

  const run::Scenario& s = opts->scenario;
  std::cout << "running " << run::protocol_name(s.protocol) << ", "
            << s.num_nodes << " nodes, " << s.duration_s << " s, seed "
            << s.seed;
  if (!s.attack.empty()) std::cout << ", attack " << s.attack;
  if (!s.faults.empty()) std::cout << ", faults injected";
  std::cout << " ...\n";

  try {
    if (s.threads > 0 || s.shards > 0) {
      return run_kernel<run::ParallelNetwork>(*opts);
    }
    return run_kernel<run::Network>(*opts);
  } catch (const std::exception& e) {
    // Both kernels' constructors throw on unopenable telemetry/flight sinks.
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}

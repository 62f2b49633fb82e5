// TAB1 — "Maximum clock difference & synchronization latency vs m"
// (paper Table 1).
//
// Paper setup: initial clock offsets uniform in (-112 us, 112 us); the
// network counts as synchronized when the max clock difference drops below
// 25 us.  Paper values:
//
//     m | latency | error          shape: latency grows ~linearly with m,
//     1 |   0.1 s | 12 us          error drops and saturates around m = 3
//     2 |   0.4 s |  7 us          (m = 2..3 is the sweet spot).
//     3 |   0.6 s |  6 us
//     4 |   0.8 s |  6 us
//     5 |   1.1 s |  6 us
//
// We run each m twice: with a pre-established reference (isolating the
// paper's convergence latency from election time) and with a full cold
// start (election included), and report both.
#include <vector>

#include "bench_common.h"
#include "runner/sweep.h"

int main() {
  using namespace sstsp;
  bench::banner("TAB1", "Synchronization latency & error vs m",
                "latency 0.1->1.1 s increasing in m; error 12->6 us "
                "saturating at m ~ 3");

  const std::vector<int> ms{1, 2, 3, 4, 5};
  std::vector<run::Scenario> scenarios;
  for (const bool preestablished : {true, false}) {
    for (const int m : ms) {
      run::Scenario s;
      s.protocol = run::ProtocolKind::kSstsp;
      s.num_nodes = 100;
      s.duration_s = 200.0;
      s.seed = 2006;
      s.sstsp.m = m;
      s.sstsp.chain_length = 2200;
      s.preestablished_reference = preestablished;
      s.monitor = true;
      scenarios.push_back(s);
    }
  }
  const auto results = run::run_sweep(scenarios);

  bench::JsonReport report("tab1");
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto& s = scenarios[i];
    report.add_run("m" + std::to_string(s.sstsp.m) +
                       (s.preestablished_reference ? "_pre" : "_cold"),
                   s, results[i]);
  }

  metrics::TextTable table({"m", "latency (s)", "error (us)",
                            "latency cold (s)", "error cold (us)"});
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const auto& pre = results[i];
    const auto& cold = results[ms.size() + i];
    table.add_row(
        {std::to_string(ms[i]),
         pre.sync_latency_s ? metrics::fmt(*pre.sync_latency_s, 2) : "-",
         pre.steady_max_us ? metrics::fmt(*pre.steady_max_us, 2) : "-",
         cold.sync_latency_s ? metrics::fmt(*cold.sync_latency_s, 2) : "-",
         cold.steady_max_us ? metrics::fmt(*cold.steady_max_us, 2) : "-"});
  }
  table.print(std::cout);
  std::cout << "(latency: first time the max clock difference stays below "
               "25 us; error: max difference after stabilization;\n "
               "'cold' columns include the initial reference election)\n";
  report.write();
  return 0;
}

// ABL-SCALE — scalability comparison across the protocol family.
//
// The paper positions SSTSP against TSF and its contention-tuning
// improvements (ATSP, TATSP [4], SATSF [10]), arguing that priority tweaks
// mitigate but do not remove the contention bottleneck, while SSTSP removes
// it "from its root" (one reference beacon per BP, no per-BP contention).
// This bench sweeps N and reports post-stabilization error and traffic.
//
// Every run uses the sharded parallel kernel (Scenario::threads /
// Scenario::shards, DESIGN.md §12) instead of a process-level sweep over
// scenarios: each scenario shards its own deployment, which
// is what actually scales past n = 2000, and results stay bit-identical for
// any worker-thread count.  The shard count is pinned so the numbers are
// machine-independent.  The bench leaves the invariant monitor off; tests/
// cover the invariants on both kernels.
#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "runner/experiment.h"

int main() {
  using namespace sstsp;
  bench::banner("ABL-SCALE", "Steady-state error vs network size, all "
                             "protocols",
                "TSF degrades sharply with N; ATSP/TATSP/SATSF degrade "
                "more slowly; SSTSP stays flat");

  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));

  // Full protocol family at the paper's sizes, then an extended axis for
  // the two protocols the paper's scalability argument hinges on.
  const std::vector<int> sizes{100, 200, 300, 500};
  const std::vector<run::ProtocolKind> kinds{
      run::ProtocolKind::kTsf, run::ProtocolKind::kAtsp,
      run::ProtocolKind::kTatsp, run::ProtocolKind::kSatsf,
      run::ProtocolKind::kRentelKunz, run::ProtocolKind::kSstsp};
  const std::vector<int> extended_sizes{1000, 2000, 5000};
  const std::vector<run::ProtocolKind> extended_kinds{
      run::ProtocolKind::kTsf, run::ProtocolKind::kSstsp};

  std::vector<run::Scenario> scenarios;
  const auto add_point = [&](run::ProtocolKind kind, int n) {
    run::Scenario s;
    s.protocol = kind;
    s.num_nodes = n;
    s.duration_s = 200.0;
    s.seed = 2006;
    s.sstsp.chain_length = 2200;
    s.threads = hw;
    s.shards = 8;  // pinned: same event stream on every machine
    scenarios.push_back(s);
  };
  for (const auto kind : kinds) {
    for (const int n : sizes) add_point(kind, n);
  }
  for (const auto kind : extended_kinds) {
    for (const int n : extended_sizes) add_point(kind, n);
  }

  std::vector<run::RunResult> results;
  results.reserve(scenarios.size());
  for (const auto& s : scenarios) {
    results.push_back(run::run_scenario(s));
  }

  bench::JsonReport report("abl_scalability");
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    report.add_run(std::string(run::protocol_name(scenarios[i].protocol)) +
                       "_n" + std::to_string(scenarios[i].num_nodes),
                   scenarios[i], results[i]);
  }

  metrics::TextTable table(
      {"protocol", "N", "p99 err (us)", "max err (us)", "latency (s)",
       "beacons", "collided"});
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto& s = scenarios[i];
    const auto& r = results[i];
    table.add_row(
        {run::protocol_name(s.protocol), std::to_string(s.num_nodes),
         r.steady_p99_us ? metrics::fmt(*r.steady_p99_us, 2) : "-",
         r.steady_max_us ? metrics::fmt(*r.steady_max_us, 2) : "-",
         r.sync_latency_s ? metrics::fmt(*r.sync_latency_s, 2) : "never",
         std::to_string(r.channel.transmissions),
         std::to_string(r.channel.collided_transmissions)});
  }
  table.print(std::cout);
  report.write();
  return 0;
}

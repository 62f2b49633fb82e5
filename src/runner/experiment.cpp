#include "runner/experiment.h"

#include <algorithm>
#include <chrono>

#include "runner/network.h"
#include "runner/parallel_network.h"

namespace sstsp::run {

void derive_series_stats(RunResult& result, double duration_s) {
  result.sync_latency_s =
      result.max_diff.first_sustained_below(kSyncThresholdUs, 1.0);

  const double steady_from =
      std::max(20.0, result.sync_latency_s.value_or(0.0) + 5.0);
  result.steady_max_us = result.max_diff.max_in(steady_from, duration_s);
  result.steady_p99_us =
      result.max_diff.quantile_in(0.99, steady_from, duration_s);
}

void collect_observers(RunResult& result, const obs::Observers& observers,
                       double wall_seconds) {
  result.metrics = observers.registry().snapshot();
  result.wall_seconds = wall_seconds;
  if (const obs::Profiler* profiler = observers.profiler()) {
    result.profile = profiler->snapshot(result.events_processed, wall_seconds);
  }
  if (const obs::InvariantMonitor* monitor = observers.monitor()) {
    result.audit = monitor->report();
  }
  if (fault::RecoveryTracker* recovery = observers.recovery()) {
    recovery->finalize(observers.injector()->stats());
    result.recovery = recovery->report();
  }
}

RunResult collect_result(Network& net, double wall_seconds) {
  RunResult result = net.deployment_.result();
  result.channel = net.channel_stats();
  result.events_processed = net.simulator().events_processed();
  collect_observers(result, net.observers(), wall_seconds);
  return result;
}

namespace {

template <class Net>
RunResult run_timed(const Scenario& scenario) {
  Net net(scenario);
  const auto wall_start = std::chrono::steady_clock::now();
  net.run();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return collect_result(net, wall_seconds);
}

}  // namespace

RunResult run_scenario(const Scenario& scenario) {
  if (scenario.threads > 0 || scenario.shards > 0) {
    return run_timed<ParallelNetwork>(scenario);
  }
  return run_timed<Network>(scenario);
}

}  // namespace sstsp::run

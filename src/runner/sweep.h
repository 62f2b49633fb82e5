// Parameter sweeps: run many scenarios concurrently, results in input order.
#pragma once

#include <vector>

#include "runner/experiment.h"

namespace sstsp::run {

/// Runs every scenario (one Simulator each) on `threads` worker threads and
/// returns results in the same order.  `threads` == 0: hardware concurrency.
/// A scenario that throws (e.g. bad attack params) stops the sweep; its
/// exception is rethrown after every worker has joined.
[[nodiscard]] std::vector<RunResult> run_sweep(
    const std::vector<Scenario>& scenarios, unsigned threads = 0);

}  // namespace sstsp::run

#include "runner/sweep.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace sstsp::run {

std::vector<RunResult> run_sweep(const std::vector<Scenario>& scenarios,
                                 unsigned threads) {
  std::vector<RunResult> results(scenarios.size());
  if (threads == 0) threads = std::max(1U, std::thread::hardware_concurrency());
  // Workers claim scenario indices from one counter and write only their
  // own slots.  The first exception stops further claims and is rethrown
  // once every worker has joined.
  std::atomic<std::size_t> next{0};
  std::mutex failure_mutex;
  std::exception_ptr failure;
  const auto work = [&] {
    for (std::size_t i = next++; i < scenarios.size(); i = next++) {
      try {
        results[i] = run_scenario(scenarios[i]);
      } catch (...) {
        const std::scoped_lock lock(failure_mutex);
        if (!failure) failure = std::current_exception();
        next = scenarios.size();
      }
    }
  };
  {
    std::vector<std::jthread> workers;
    const auto count = std::min<std::size_t>(threads, scenarios.size());
    for (std::size_t w = 0; w < count; ++w) workers.emplace_back(work);
  }  // the jthreads join here
  if (failure) std::rethrow_exception(failure);
  return results;
}

}  // namespace sstsp::run

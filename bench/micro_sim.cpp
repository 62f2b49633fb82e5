// Micro-benchmarks for the simulation substrate and protocol math.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/adjustment.h"
#include "filter/gesd.h"
#include "filter/student_t.h"
#include "mac/channel.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace {

using namespace sstsp;
using namespace sstsp::sim::literals;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  sim::EventQueue q;
  sim::Rng rng(5);
  // Keep a standing population the size of a 500-node scenario's queue.
  for (int i = 0; i < 2000; ++i) {
    q.schedule(sim::SimTime::from_ps(static_cast<std::int64_t>(rng() >> 20)),
               [] {});
  }
  for (auto _ : state) {
    q.schedule(sim::SimTime::from_ps(static_cast<std::int64_t>(rng() >> 20)),
               [] {});
    auto fired = q.pop();
    benchmark::DoNotOptimize(fired.id);
  }
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_SimulatorEventChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    int count = 0;
    std::function<void()> chain = [&] {
      if (++count < 1000) simulator.after(1_us, chain);
    };
    simulator.at(sim::SimTime::zero(), chain);
    simulator.run_until(sim::SimTime::from_ms(10));
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulatorEventChain);

// Per-beacon-period station timers: `owners` stations each re-arm a timer
// once per 100 ms BP at a few microseconds of jitter, the way SSTSP's
// end-of-interval tick and the TSF TBTT do.  One iteration runs one BP.
// kTicked schedules through Simulator::tick_at (tick runs), otherwise
// through one Simulator::at closure per timer.
template <bool kTicked>
void BM_StationTicks(benchmark::State& state) {
  constexpr sim::SimTime kPeriod = 100_ms;
  struct Station final : sim::TickOwner {
    sim::Simulator* simulator{nullptr};
    sim::Rng* rng{nullptr};
    std::int64_t bp{0};  ///< the BP the armed timer ends
    void on_tick() override { arm(bp + 1); }
    void arm(std::int64_t next) {
      bp = next;
      const sim::SimTime jitter = sim::SimTime::from_ps(
          static_cast<std::int64_t>(rng->uniform_int(0, 20'000'000)));
      const sim::SimTime at = kPeriod * bp + 75_ms + jitter;
      if constexpr (kTicked) {
        simulator->tick_at(at, *this);
      } else {
        simulator->at(at, [this] { on_tick(); });
      }
    }
  };
  sim::Simulator simulator;
  sim::Rng rng(3);
  std::vector<Station> stations(static_cast<std::size_t>(state.range(0)));
  for (Station& s : stations) {
    s.simulator = &simulator;
    s.rng = &rng;
    s.arm(0);
  }
  for (auto _ : state) {
    simulator.run_until(simulator.now() + kPeriod);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
// 16-128 owners bracket sort_run's small-run cut-over (run_sort.h).
BENCHMARK_TEMPLATE(BM_StationTicks, true)
    ->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(500)->Arg(12500);
BENCHMARK_TEMPLATE(BM_StationTicks, false)
    ->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(500)->Arg(12500);

void BM_ChannelBroadcast(benchmark::State& state) {
  const auto receivers = state.range(0);
  sim::Simulator simulator;
  mac::PhyParams phy;
  phy.packet_error_rate = 0.0;
  mac::Channel channel(simulator, phy);
  struct Counter final : mac::Receiver {
    std::size_t delivered = 0;
    void receive(const mac::Frame&, const mac::RxInfo&) override {
      ++delivered;
    }
  } counter, sender;
  const auto tx = channel.add_station({0, 0}, sender);
  for (int i = 0; i < receivers; ++i) {
    channel.add_station(
        {static_cast<double>(i % 50), static_cast<double>(i / 50)}, counter);
  }
  mac::Frame frame;
  frame.sender = 0;
  frame.air_bytes = 56;
  frame.body = mac::TsfBeaconBody{1};
  for (auto _ : state) {
    channel.transmit(tx, frame, 36_us);
    simulator.run_until(simulator.now() + 1_ms);
  }
  benchmark::DoNotOptimize(counter.delivered);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          receivers);
}
BENCHMARK(BM_ChannelBroadcast)
    ->Arg(16)->Arg(32)->Arg(64)->Arg(100)->Arg(128)->Arg(500);

void BM_AdjustmentSolve(benchmark::State& state) {
  const core::SstspConfig cfg;
  const core::ClockParams prev{1.00003, -12.5};
  const core::RefSample older{1.0000e8, 1.0000e8};
  const core::RefSample newest{1.0001e8 + 3.0, 1.0001e8};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_adjustment(
        prev, 1.0002e8, newest, older, 1.0004e8, cfg));
  }
}
BENCHMARK(BM_AdjustmentSolve);

void BM_StudentTQuantile(benchmark::State& state) {
  double p = 0.90;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter::student_t_quantile(p, 24.0));
    p += 0.0001;
    if (p > 0.999) p = 0.90;
  }
}
BENCHMARK(BM_StudentTQuantile);

void BM_GesdCoarseWindow(benchmark::State& state) {
  sim::Rng rng(7);
  std::vector<double> samples;
  for (int i = 0; i < 16; ++i) samples.push_back(rng.uniform(-50, 50));
  samples.push_back(4000.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter::gesd(samples, 3, 0.05));
  }
}
BENCHMARK(BM_GesdCoarseWindow);

void BM_RngSubstreamDraw(benchmark::State& state) {
  sim::Rng root(11);
  for (auto _ : state) {
    sim::Rng sub = root.substream("bench", 7);
    benchmark::DoNotOptimize(sub.uniform_int(0, 30));
  }
}
BENCHMARK(BM_RngSubstreamDraw);

}  // namespace

BENCHMARK_MAIN();

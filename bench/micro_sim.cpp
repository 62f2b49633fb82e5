// Micro-benchmarks for the simulation substrate and protocol math.
#include <benchmark/benchmark.h>

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
BENCHMARK(BM_ChannelBroadcast)->Arg(100)->Arg(500);

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

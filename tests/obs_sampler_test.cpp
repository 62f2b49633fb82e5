// PhaseSampler: virtual-time tick semantics (interval, catch-up, registry
// metrics), the pure-observer determinism contract for seeded runs, and the
// SIGPROF live mode (hits land, double-arming is refused, stop restores).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "runner/experiment.h"
#include "runner/network.h"

namespace sstsp::obs {
namespace {

run::Scenario seeded_scenario() {
  run::Scenario s;
  s.protocol = run::ProtocolKind::kSstsp;
  s.num_nodes = 10;
  s.duration_s = 8.0;
  s.seed = 77;
  s.sstsp.chain_length = 400;
  s.trace_capacity = 1 << 12;
  return s;
}

TEST(Sampler, TicksAtTheVirtualIntervalWithCatchUp) {
  Registry registry;
  PhaseSampler::Options opt;
  opt.interval_s = 1.0;
  PhaseSampler sampler(opt, registry);

  // Dense dispatches inside one interval: exactly one sample at the
  // boundary crossing.
  sampler.on_dispatch(0.2, 5);
  sampler.on_dispatch(0.9, 5);
  EXPECT_EQ(sampler.samples(), 0u);
  sampler.on_dispatch(1.0, 7);
  EXPECT_EQ(sampler.samples(), 1u);

  // A long event gap yields ONE catch-up sample, not a back-dated burst.
  sampler.on_dispatch(10.0, 3);
  EXPECT_EQ(sampler.samples(), 2u);
  sampler.on_dispatch(10.5, 3);
  EXPECT_EQ(sampler.samples(), 2u);
  sampler.on_dispatch(11.0, 3);
  EXPECT_EQ(sampler.samples(), 3u);

  const RegistrySnapshot snap = registry.snapshot();
  bool found_samples = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "sampler.samples") {
      found_samples = true;
      EXPECT_EQ(value, 3u);
    }
  }
  EXPECT_TRUE(found_samples);
  bool found_depth = false;
  for (const auto& [name, hist] : snap.histograms) {
    if (name == "sampler.queue_depth") {
      found_depth = true;
      EXPECT_EQ(hist.count, 3u);
    }
  }
  EXPECT_TRUE(found_depth);
}

TEST(Sampler, ScenarioFlagPopulatesRegistryMetrics) {
  run::Scenario s = seeded_scenario();
  s.phase_sampler = true;
  s.phase_sampler_interval_s = 0.01;
  run::Network net(s);
  ASSERT_NE(net.observers().phase_sampler(), nullptr);
  net.run();
  EXPECT_GT(net.observers().phase_sampler()->samples(), 0u);

  const RegistrySnapshot snap = net.observers().registry().snapshot();
  bool found = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "sampler.samples") {
      found = true;
      EXPECT_GT(value, 0u);
    }
  }
  EXPECT_TRUE(found);
}

// The determinism contract: sampling draws nothing from any RNG stream and
// schedules no simulator events, so the seeded JSONL event stream is
// byte-identical with the sampler on or off.
TEST(Sampler, SeededRunByteIdenticalWithSamplerOnOrOff) {
  const auto jsonl_of_run = [](bool with_sampler) {
    run::Scenario s = seeded_scenario();
    s.phase_sampler = with_sampler;
    run::Network net(s);
    std::ostringstream jsonl;
    attach_jsonl_sink(*net.trace(), jsonl);
    net.run();
    net.trace()->set_sink({});
    return jsonl.str();
  };
  const std::string without = jsonl_of_run(false);
  ASSERT_FALSE(without.empty());
  EXPECT_EQ(without, jsonl_of_run(true));
}

TEST(Sampler, LiveModeCountsHitsAndRefusesDoubleArming) {
  Registry registry;
  PhaseSampler::Options opt;
  opt.interval_s = 0.001;
  PhaseSampler sampler(opt, registry);

  std::string error;
  ASSERT_TRUE(sampler.start_live(&error)) << error;
  EXPECT_TRUE(sampler.live());

  // SIGPROF is process-global: a second armed sampler must be refused.
  PhaseSampler other(opt, registry);
  std::string other_error;
  EXPECT_FALSE(other.start_live(&other_error));
  EXPECT_FALSE(other_error.empty());

  // Burn CPU until the ITIMER_PROF tick lands at least once.  The itimer
  // counts CPU time, so this loop is guaranteed to accrue hits eventually;
  // bound the wait generously for slow CI.
  volatile double sink = 0.0;
  std::uint64_t total_hits = 0;
  for (int spin = 0; spin < 20'000 && total_hits == 0; ++spin) {
    for (int i = 0; i < 20'000; ++i) sink = sink * 1.0000001 + i;
    sampler.publish_live();
    total_hits = 0;
    for (const auto& [name, value] : registry.snapshot().counters) {
      if (name.rfind("sampler.hits.", 0) == 0) total_hits += value;
    }
  }
  sampler.stop_live();
  EXPECT_FALSE(sampler.live());
  EXPECT_GT(total_hits, 0u);

  // With no profiler attached every hit is unattributed ("idle" bucket).
  std::uint64_t idle_hits = 0;
  for (const auto& [name, value] : registry.snapshot().counters) {
    if (name == "sampler.hits.idle") idle_hits = value;
  }
  EXPECT_EQ(idle_hits, total_hits);

  // Freed up: arming the second sampler now succeeds.
  ASSERT_TRUE(other.start_live(&other_error)) << other_error;
  other.stop_live();
}

}  // namespace
}  // namespace sstsp::obs

// Bit-compatibility golden for the clock-discipline API (DESIGN.md §14).
//
// The discipline refactor moved the paper's §3.3 (k, b) solve and its
// sample-history deque behind core::ClockDiscipline.  The contract: with
// the discipline unset (the default) or explicitly set to "paper", a
// seeded run's summary JSON and its solved (k, b) sequence are identical
// to the pre-API protocol, byte for byte.  The constants below were
// captured from the pre-refactor binary (sstsp_sim --nodes 8 --duration 30
// --seed 7 --json-out) and must never be regenerated from current code —
// they ARE the contract.
#include <gtest/gtest.h>

#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "runner/cli.h"
#include "runner/experiment.h"
#include "runner/json_report.h"
#include "runner/network.h"
#include "trace/event_trace.h"

namespace sstsp::run {
namespace {

// Pre-refactor summary line, normalized: volatile "wall_seconds" value
// replaced by 0 and the trailing provenance block (host/toolchain
// dependent) truncated.
constexpr const char* kGoldenSummary =
    R"({"type":"summary","schema_version":2,"protocol":"SSTSP","nodes":8,"duration_s":30,"seed":7,"attack":"none","sync_latency_s":1.1,"steady_max_us":3.438650172203779,"steady_p99_us":3.4342773109674454,"events_processed":5380,"wall_seconds":0,"channel":{"transmissions":297,"collided":0,"deliveries":2079,"per_drops":0,"half_duplex_suppressed":0,"bytes_on_air":27324},"honest":{"beacons_sent":297,"beacons_received":2079,"adoptions":0,"adjustments":2065,"rejected_interval":0,"rejected_key":0,"rejected_mac":0,"rejected_guard":0,"elections_won":1,"demotions":0,"coarse_steps":0,"solver_rejections":0},"attacker":null,"net":null,"metrics":{"counters":{"event.adjustment":2065,"event.adoption":0,"event.auth-ok":2072,"event.beacon-rx":2079,"event.beacon-tx":297,"event.coarse-step":0,"event.demotion":0,"event.election-won":1,"event.reject-guard":0,"event.reject-interval":0,"event.reject-key":0,"event.reject-mac":0,"event.takeover":0},"gauges":{},"histograms":{"channel.delivery_latency_us":{"count":2079,"sum":139545.242935,"min":66.063968,"max":68.19120699999999,"mean":67.12132897306397,"p50":68.19120699999999,"p90":68.19120699999999,"p99":68.19120699999999},"sim.event_queue_depth":{"count":5380,"sum":53537,"min":8,"max":20,"mean":9.951115241635687,"p50":12.005212211466866,"p90":15.209977661950855,"p99":15.932241250930751},"station.adjustment_rate_ppm":{"count":2065,"sum":-139266.4185543112,"min":-443.97055235467775,"max":384.6434608547611,"mean":-67.44136491734199,"p50":85.5195344970906,"p90":143.3711790393013,"p99":247.33624454148472},"station.coarse_step_us":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"station.reject_offset_us":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"sync.max_diff_us":{"count":300,"sum":2182.446728802286,"min":1.0877102818340063,"max":218.39262806379702,"mean":7.274822429340953,"p50":2.957692307692308,"p90":3.8807692307692307,"p99":181.33333333333334},"sync.node_error_us":{"count":2400,"sum":4939.135107451366,"min":0.0003538294695317745,"max":121.76101071585435,"mean":2.057972961438069,"p50":0.7911764705882354,"p90":1.829663212435233,"p99":51.63636363636364}}},"profile":null,"audit":null,"recovery":null)";

// The first 12 solved adjustment rates, (k - 1) * 1e6 ppm as the trace
// records them — the (k, b) sequence distilled to its free parameter.
constexpr double kGoldenAdjustmentPpm[] = {
    12.719375295899837,  -116.87633908741279, 384.6434608547611,
    -249.9122843540036,  50.951519215303165,  -296.6905632070249,
    -443.97055235467775, -75.09823194784548,  -223.80215412698414,
    -79.733801045756,    214.122101304115,    -81.96643423075133,
};

Scenario golden_scenario(const std::vector<std::string>& extra = {}) {
  std::vector<std::string> args{"--nodes", "8",    "--duration", "30",
                                "--seed",  "7",    "--json-out", "/dev/null"};
  args.insert(args.end(), extra.begin(), extra.end());
  std::string error;
  const auto opts = parse_cli(args, ConfigTool::kSim, &error);
  EXPECT_TRUE(opts.has_value()) << error;
  return opts->scenario;
}

std::string normalized_summary(const Scenario& s, const RunResult& r) {
  std::ostringstream os;
  write_summary_jsonl(os, s, r);
  std::string line = os.str();
  if (!line.empty() && line.back() == '\n') line.pop_back();
  line = std::regex_replace(
      line, std::regex("\"wall_seconds\":[-+0-9.eE]+"), "\"wall_seconds\":0");
  // Truncate at the provenance block (host/toolchain dependent), exactly
  // as the golden constant was truncated at capture time.
  const auto prov = line.find(",\"provenance\"");
  if (prov != std::string::npos) line.resize(prov);
  return line;
}

TEST(DisciplineGolden, DefaultSummaryByteIdentical) {
  const Scenario s = golden_scenario();
  ASSERT_EQ(s.sstsp.discipline.effective_name(), "paper");
  const RunResult r = run_scenario(s);
  EXPECT_EQ(normalized_summary(s, r), kGoldenSummary);
}

TEST(DisciplineGolden, ExplicitPaperEqualsDefault) {
  const Scenario s = golden_scenario({"--discipline", "paper"});
  const RunResult r = run_scenario(s);
  EXPECT_EQ(normalized_summary(s, r), kGoldenSummary);
}

TEST(DisciplineGolden, AdjustmentSequencePinned) {
  Scenario s = golden_scenario();
  s.trace_capacity = 1 << 18;  // retain everything; no ring eviction
  Network net(s);
  net.run();
  ASSERT_NE(net.trace(), nullptr);
  const auto adjustments =
      net.trace()->by_kind(trace::EventKind::kAdjustment);
  ASSERT_GE(adjustments.size(), std::size(kGoldenAdjustmentPpm));
  for (std::size_t i = 0; i < std::size(kGoldenAdjustmentPpm); ++i) {
    // Bit-exact: the golden values carry the full double precision.
    EXPECT_EQ(adjustments[i].value_us, kGoldenAdjustmentPpm[i])
        << "adjustment #" << i;
  }
}

}  // namespace
}  // namespace sstsp::run

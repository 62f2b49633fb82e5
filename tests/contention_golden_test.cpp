// Byte-identity golden for the beacon-contention protocols.
//
// Seeded 30-node runs of TSF, ATSP, TATSP, SATSF, Rentel–Kunz and TSF under
// the tsf-slow attacker, with churn so stations stop and restart, through
// run::Network — the same sequence sstsp_sim runs for --protocol …
// --json-out.  Pinned per run: the normalized summary line, and the event
// lines of the JSONL stream by count and FNV-1a digest.  The TSF-family
// constants were captured from the binary in which Rentel–Kunz kept its own
// contention engine and controlled clock beside the TSF family's, and must
// never be regenerated from current code — they ARE the contract.  Two runs
// were re-pinned once, on purpose, when the trace gained events that binary
// did not record, and nothing else moved: Rentel–Kunz now traces its beacon
// transmissions and clock adjustments (without those lines its stream is
// the empty one pinned before), and the tsf-slow attacker its forged burst
// beacons (without the attacker's beacon-tx lines inside the 20–40 s attack
// window, its stream is the old 19404 lines, FNV-1a 0x084e6fca68f3a8b6).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "runner/cli.h"
#include "runner/experiment.h"
#include "runner/network.h"
#include "runner/run_output.h"

namespace sstsp::run {
namespace {

struct Golden {
  const char* name;
  std::vector<std::string> args;  ///< on top of the shared run flags
  const char* summary;
  std::size_t event_lines;
  std::uint64_t event_fnv;
};

struct Stream {
  std::size_t lines{0};
  std::uint64_t fnv{0xcbf29ce484222325ULL};
  std::string last;
};

// Digests every line but the last (the summary, which carries the
// host-dependent provenance block) and hands the last back.
Stream digest_events(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  Stream d;
  if (lines.empty()) return d;
  d.last = lines.back();
  lines.pop_back();
  for (const std::string& line : lines) {
    ++d.lines;
    for (const char c : line + '\n') {
      d.fnv ^= static_cast<unsigned char>(c);
      d.fnv *= 0x100000001b3ULL;
    }
  }
  return d;
}

// Same normalization as discipline_golden_test: the volatile wall_seconds
// value becomes 0 and the host-dependent provenance block is cut off.
std::string normalized(std::string line) {
  line = std::regex_replace(
      line, std::regex("\"wall_seconds\":[-+0-9.eE]+"), "\"wall_seconds\":0");
  const auto prov = line.find(",\"provenance\"");
  if (prov != std::string::npos) line.resize(prov);
  return line;
}

const Golden kGoldens[] = {
    {"Tsf",
     {"--protocol", "tsf"},
     R"json({"type":"summary","schema_version":2,"protocol":"TSF","nodes":30,"duration_s":60,"seed":3,"attack":"none","sync_latency_s":2,"steady_max_us":1861.6367942616343,"steady_p99_us":106.23727761209011,"events_processed":38605,"wall_seconds":0,"channel":{"transmissions":1106,"collided":517,"deliveries":15879,"per_drops":2,"half_duplex_suppressed":698,"bytes_on_air":61936},"honest":{"beacons_sent":1106,"beacons_received":15879,"adoptions":10135,"adjustments":0,"rejected_interval":0,"rejected_key":0,"rejected_mac":0,"rejected_guard":0,"elections_won":0,"demotions":0,"coarse_steps":0,"solver_rejections":0},"attacker":null,"net":null,"metrics":{"counters":{"event.adjustment":0,"event.adoption":10135,"event.auth-ok":0,"event.beacon-rx":0,"event.beacon-tx":1106,"event.coarse-step":0,"event.demotion":0,"event.election-won":0,"event.reject-guard":0,"event.reject-interval":0,"event.reject-key":0,"event.reject-mac":0,"event.takeover":0},"gauges":{},"histograms":{"channel.delivery_latency_us":{"count":15879,"sum":637838.290991,"min":39.010726,"max":41.326848999999996,"mean":40.16866874431639,"p50":41.326848999999996,"p90":41.326848999999996,"p99":41.326848999999996},"sim.event_queue_depth":{"count":38605,"sum":1932293,"min":30,"max":90,"mean":50.052920606139104,"p50":50.11828324579669,"p90":81.76646706586826,"p99":90},"station.adjustment_rate_ppm":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"station.coarse_step_us":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"station.reject_offset_us":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"sync.max_diff_us":{"count":600,"sum":18014.409725026824,"min":1.5876600288320333,"max":1861.6367942616343,"mean":30.02401620837804,"p50":22.563106796116504,"p90":55.84905660377358,"p99":114.8235294117647},"sync.node_error_us":{"count":16800,"sum":79765.86378638471,"min":0.0003042668104171753,"max":1571.3960928060114,"mean":4.7479680825229,"p50":1.9361934477379095,"p90":8.929225645295586,"p99":41.6}}},"profile":null,"audit":null,"recovery":null)json",
     11241,
     0x37a3228b5d680e46ULL},
    {"Atsp",
     {"--protocol", "atsp"},
     R"json({"type":"summary","schema_version":2,"protocol":"ATSP","nodes":30,"duration_s":60,"seed":3,"attack":"none","sync_latency_s":0.7,"steady_max_us":1857.9530149400234,"steady_p99_us":281.9287575557828,"events_processed":34533,"wall_seconds":0,"channel":{"transmissions":609,"collided":27,"deliveries":15784,"per_drops":2,"half_duplex_suppressed":36,"bytes_on_air":34104},"honest":{"beacons_sent":609,"beacons_received":15784,"adoptions":14606,"adjustments":0,"rejected_interval":0,"rejected_key":0,"rejected_mac":0,"rejected_guard":0,"elections_won":0,"demotions":0,"coarse_steps":0,"solver_rejections":0},"attacker":null,"net":null,"metrics":{"counters":{"event.adjustment":0,"event.adoption":14606,"event.auth-ok":0,"event.beacon-rx":0,"event.beacon-tx":609,"event.coarse-step":0,"event.demotion":0,"event.election-won":0,"event.reject-guard":0,"event.reject-interval":0,"event.reject-key":0,"event.reject-mac":0,"event.takeover":0},"gauges":{},"histograms":{"channel.delivery_latency_us":{"count":15784,"sum":633878.074298,"min":39.036511,"max":41.307483999999995,"mean":40.15953334376584,"p50":41.307483999999995,"p90":41.307483999999995,"p99":41.307483999999995},"sim.event_queue_depth":{"count":34533,"sum":1342265,"min":30,"max":83,"mean":38.869052790084844,"p50":44.953448457038775,"p90":60.43616238747417,"p99":63.91985708781394},"station.adjustment_rate_ppm":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"station.coarse_step_us":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"station.reject_offset_us":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"sync.max_diff_us":{"count":600,"sum":9413.89629210996,"min":1.3333418667316437,"max":1857.9530149400234,"mean":15.689827153516598,"p50":2.642023346303502,"p90":21.043478260869566,"p99":248.88888888888889},"sync.node_error_us":{"count":16800,"sum":52915.618967192175,"min":4.7788023948669434e-05,"max":1576.6601583473384,"mean":3.1497392242376296,"p50":0.5579059829059829,"p90":2.4633123689727463,"p99":62.48275862068965}}},"profile":null,"audit":null,"recovery":null)json",
     15215,
     0xa346a692db0c6f83ULL},
    {"Tatsp",
     {"--protocol", "tatsp"},
     R"json({"type":"summary","schema_version":2,"protocol":"TATSP","nodes":30,"duration_s":60,"seed":3,"attack":"none","sync_latency_s":1,"steady_max_us":1854.4138904698193,"steady_p99_us":73.16991019621491,"events_processed":34478,"wall_seconds":0,"channel":{"transmissions":621,"collided":40,"deliveries":15737,"per_drops":2,"half_duplex_suppressed":40,"bytes_on_air":34776},"honest":{"beacons_sent":621,"beacons_received":15737,"adoptions":14291,"adjustments":0,"rejected_interval":0,"rejected_key":0,"rejected_mac":0,"rejected_guard":0,"elections_won":0,"demotions":0,"coarse_steps":0,"solver_rejections":0},"attacker":null,"net":null,"metrics":{"counters":{"event.adjustment":0,"event.adoption":14291,"event.auth-ok":0,"event.beacon-rx":0,"event.beacon-tx":621,"event.coarse-step":0,"event.demotion":0,"event.election-won":0,"event.reject-guard":0,"event.reject-interval":0,"event.reject-key":0,"event.reject-mac":0,"event.takeover":0},"gauges":{},"histograms":{"channel.delivery_latency_us":{"count":15737,"sum":631976.321532,"min":39.034053,"max":41.304576999999995,"mean":40.15862753587088,"p50":41.304576999999995,"p90":41.304576999999995,"p99":41.304576999999995},"sim.event_queue_depth":{"count":34478,"sum":1334608,"min":30,"max":76,"mean":38.708973838389696,"p50":44.934778049632996,"p90":60.36099265990912,"p99":63.83166724921357},"station.adjustment_rate_ppm":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"station.coarse_step_us":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"station.reject_offset_us":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"sync.max_diff_us":{"count":600,"sum":7516.465002959027,"min":1.5157112181186676,"max":1854.4138904698193,"mean":12.527441671598378,"p50":2.725563909774436,"p90":22.166666666666668,"p99":100},"sync.node_error_us":{"count":16800,"sum":42113.38154220088,"min":3.763660788536072e-05,"max":1574.1202474050224,"mean":2.506748901321481,"p50":0.5729076416565586,"p90":3.269918699186992,"p99":26.194285714285712}}},"profile":null,"audit":null,"recovery":null)json",
     14912,
     0xf066c51cfbc2e4b7ULL},
    {"Satsf",
     {"--protocol", "satsf"},
     R"json({"type":"summary","schema_version":2,"protocol":"SATSF","nodes":30,"duration_s":60,"seed":3,"attack":"none","sync_latency_s":3.6999999999999997,"steady_max_us":1851.2516170591116,"steady_p99_us":92.0334850102663,"events_processed":32767,"wall_seconds":0,"channel":{"transmissions":566,"collided":46,"deliveries":14070,"per_drops":2,"half_duplex_suppressed":46,"bytes_on_air":31696},"honest":{"beacons_sent":566,"beacons_received":14070,"adoptions":11955,"adjustments":0,"rejected_interval":0,"rejected_key":0,"rejected_mac":0,"rejected_guard":0,"elections_won":0,"demotions":0,"coarse_steps":0,"solver_rejections":0},"attacker":null,"net":null,"metrics":{"counters":{"event.adjustment":0,"event.adoption":11955,"event.auth-ok":0,"event.beacon-rx":0,"event.beacon-tx":566,"event.coarse-step":0,"event.demotion":0,"event.election-won":0,"event.reject-guard":0,"event.reject-interval":0,"event.reject-key":0,"event.reject-mac":0,"event.takeover":0},"gauges":{},"histograms":{"channel.delivery_latency_us":{"count":14070,"sum":565032.010949,"min":39.033474999999996,"max":41.308738,"mean":40.15863617263682,"p50":41.308738,"p90":41.308738,"p99":41.308738},"sim.event_queue_depth":{"count":32767,"sum":1262943,"min":30,"max":82,"mean":38.54313791314432,"p50":45.18076333649566,"p90":60.484857330511566,"p99":63.928190907100635},"station.adjustment_rate_ppm":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"station.coarse_step_us":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"station.reject_offset_us":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"sync.max_diff_us":{"count":600,"sum":14500.69479449364,"min":1.5121461227536201,"max":1851.2516170591116,"mean":24.1678246574894,"p50":3.348717948717949,"p90":37.94285714285714,"p99":332.8},"sync.node_error_us":{"count":16800,"sum":84755.26279995654,"min":0.00020371237769722939,"max":1575.2763795927167,"mean":5.0449561190450325,"p50":0.7439190605997065,"p90":7.835530445699938,"p99":99.94202898550725}}},"profile":null,"audit":null,"recovery":null)json",
     12521,
     0x0105fc851d36c09aULL},
    {"RentelKunz",
     {"--protocol", "rk"},
     R"json({"type":"summary","schema_version":2,"protocol":"RENTEL-KUNZ","nodes":30,"duration_s":60,"seed":3,"attack":"none","sync_latency_s":0.9,"steady_max_us":4443.308084003627,"steady_p99_us":4066.611461699009,"events_processed":25723,"wall_seconds":0,"channel":{"transmissions":298,"collided":4,"deliveries":7908,"per_drops":0,"half_duplex_suppressed":4,"bytes_on_air":16688},"honest":{"beacons_sent":298,"beacons_received":7908,"adoptions":0,"adjustments":7908,"rejected_interval":0,"rejected_key":0,"rejected_mac":0,"rejected_guard":0,"elections_won":0,"demotions":0,"coarse_steps":0,"solver_rejections":0},"attacker":null,"net":null,"metrics":{"counters":{"event.adjustment":7908,"event.adoption":0,"event.auth-ok":0,"event.beacon-rx":0,"event.beacon-tx":298,"event.coarse-step":0,"event.demotion":0,"event.election-won":0,"event.reject-guard":0,"event.reject-interval":0,"event.reject-key":0,"event.reject-mac":0,"event.takeover":0},"gauges":{},"histograms":{"channel.delivery_latency_us":{"count":7908,"sum":317558.917456,"min":39.010449,"max":41.298049,"mean":40.15666634496712,"p50":41.298049,"p90":41.298049,"p99":41.298049},"sim.event_queue_depth":{"count":25723,"sum":923509,"min":30,"max":72,"mean":35.90207207557439,"p50":38.58184986928918,"p90":59.075314328395365,"p99":63.68629403709697},"station.adjustment_rate_ppm":{"count":7908,"sum":364016.7645810186,"min":-82.70126994003313,"max":299.999999999967,"mean":46.03145733194469,"p50":49.69724770642202,"p90":124.20039447731756,"p99":251.91018998272884},"station.coarse_step_us":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"station.reject_offset_us":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"sync.max_diff_us":{"count":600,"sum":137740.8617340581,"min":3.6408188408240676,"max":4443.308084003627,"mean":229.56810289009684,"p50":89.31645569620252,"p90":450.06451612903226,"p99":3379.2},"sync.node_error_us":{"count":16800,"sum":964259.4092822822,"min":0.0007640738040208817,"max":3328.4897853136063,"mean":57.39639340965966,"p50":12.700230338927279,"p90":87.68755676657584,"p99":1292.0470588235294}}},"profile":null,"audit":null,"recovery":null)json",
     8206,
     0x1aecdfeec85986d1ULL},
    {"TsfSlowAttack",
     {"--protocol", "tsf", "--attack", "tsf-slow", "--attack-window", "20,40"},
     R"json({"type":"summary","schema_version":2,"protocol":"TSF","nodes":30,"duration_s":60,"seed":3,"attack":"tsf-slow","sync_latency_s":2,"steady_max_us":1985.7484356611967,"steady_p99_us":489.9264054223895,"events_processed":77846,"wall_seconds":0,"channel":{"transmissions":2965,"collided":1172,"deliveries":48997,"per_drops":5,"half_duplex_suppressed":1570,"bytes_on_air":166040},"honest":{"beacons_sent":1304,"beacons_received":48547,"adoptions":18036,"adjustments":0,"rejected_interval":0,"rejected_key":0,"rejected_mac":0,"rejected_guard":0,"elections_won":0,"demotions":0,"coarse_steps":0,"solver_rejections":0},"attacker":{"beacons_sent":1661,"beacons_received":450,"adoptions":3,"adjustments":0,"rejected_interval":0,"rejected_key":0,"rejected_mac":0,"rejected_guard":0,"elections_won":0,"demotions":0,"coarse_steps":0,"solver_rejections":0},"net":null,"metrics":{"counters":{"event.adjustment":0,"event.adoption":18039,"event.auth-ok":0,"event.beacon-rx":0,"event.beacon-tx":2965,"event.coarse-step":0,"event.demotion":0,"event.election-won":0,"event.reject-guard":0,"event.reject-interval":0,"event.reject-key":0,"event.reject-mac":0,"event.takeover":0},"gauges":{},"histograms":{"channel.delivery_latency_us":{"count":48997,"sum":1968438.2458839999,"min":39.010524,"max":41.317445,"mean":40.17466877327183,"p50":41.317445,"p90":41.317445,"p99":41.317445},"sim.event_queue_depth":{"count":77846,"sum":3898714,"min":31,"max":93,"mean":50.0823934434653,"p50":49.6658878839566,"p90":63.948399673197926,"p99":93},"station.adjustment_rate_ppm":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"station.coarse_step_us":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"station.reject_offset_us":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"sync.max_diff_us":{"count":600,"sum":98145.97318529933,"min":1.6626340663060546,"max":1985.7484356611967,"mean":163.57662197549888,"p50":26.844444444444445,"p90":431.48387096774195,"p99":505.80645161290323},"sync.node_error_us":{"count":16800,"sum":403418.88421941886,"min":0.00022704526782035828,"max":1707.8316793441772,"mean":24.013028822584456,"p50":3.589170392449081,"p90":55.39506172839506,"p99":364.4509090909091}}},"profile":null,"audit":null,"recovery":null)json",
     21004,
     0xd157cd262a686114ULL},
};

// Names each run after its protocol in test listings.
void PrintTo(const Golden& g, std::ostream* os) { *os << g.name; }

class ContentionGolden : public testing::TestWithParam<Golden> {};

TEST_P(ContentionGolden, RunByteIdentical) {
  const Golden& g = GetParam();
  const std::string jsonl =
      testing::TempDir() + "/contention_golden_" + g.name + ".jsonl";
  std::vector<std::string> args = {"--nodes", "30", "--duration", "60",
                                   "--seed",  "3",  "--churn",    "20,0.2,10",
                                   "--json-out", jsonl};
  args.insert(args.end(), g.args.begin(), g.args.end());
  std::string error;
  const auto opts = parse_cli(args, ConfigTool::kSim, &error);
  ASSERT_TRUE(opts.has_value()) << error;
  const Scenario& s = opts->scenario;
  {
    Network net(s);
    RunOutput output(*opts);
    ASSERT_TRUE(output.begin(net.trace(), &error)) << error;
    net.run();
    const RunResult r = collect_result(net, 0.0);
    std::ostringstream out;
    std::ostringstream err;
    (void)output.finish(out, err, s, r, net.trace());
  }
  const Stream events = digest_events(jsonl);
  EXPECT_EQ(normalized(events.last), g.summary);
  EXPECT_EQ(events.lines, g.event_lines);
  EXPECT_EQ(events.fnv, g.event_fnv) << std::hex << events.fnv;
  std::remove(jsonl.c_str());
}

INSTANTIATE_TEST_SUITE_P(Protocols, ContentionGolden,
                         testing::ValuesIn(kGoldens));

}  // namespace
}  // namespace sstsp::run

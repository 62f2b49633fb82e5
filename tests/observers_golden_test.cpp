// Byte-identity golden for the run observers (invariant monitor, beacon
// lifecycle, recovery accounting, telemetry, flight recorder).
//
// Two seeded runs with every observer on — a 3x20 cluster chain under the
// shipped gateway-crash plan on run::Network, and a 5-node loopback
// net::Swarm under a delay storm — must keep producing exactly the outputs
// pinned below: the normalized summary JSON line, the audit report and the
// recovery block (pinned separately so a mismatch names the observer), and
// the telemetry and flight-dump JSONL streams (pinned by line count and
// FNV-1a digest; the streams run to hundreds of kilobytes).  The constants
// were captured from the binary that wired the observers by hand in every
// host, before they were gathered into one bundle, and must never be
// regenerated from current code — they ARE the contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "fault/plan.h"
#include "net/swarm.h"
#include "obs/json.h"
#include "runner/experiment.h"
#include "runner/json_report.h"
#include "runner/network.h"

namespace sstsp {
namespace {

// examples/faults/gateway_crash.json, verbatim.
constexpr const char* kGatewayCrashPlan = R"({
  "seed": 1,
  "packet": [
    {"kind": "drop", "probability": 0.05, "start": 25, "end": 45}
  ],
  "node_faults": [
    {"kind": "crash", "node": 20, "at": 30, "restart": 36}
  ]
})";

// A delay storm the live stack's monitor flags (stale beacons past the
// µTESLA disclosure window), so the flight recorder dumps.
constexpr const char* kSwarmPlan = R"({
  "seed": 3,
  "packet": [
    {"kind": "delay", "probability": 1.0, "start": 8, "end": 10,
     "delay_min_us": 120000, "delay_max_us": 180000}
  ],
  "clock_faults": [
    {"node": 2, "at": 12, "step_us": 40}
  ]
})";

struct Golden {
  const char* summary;
  const char* audit;
  const char* recovery;
  std::size_t telemetry_lines;
  std::uint64_t telemetry_fnv;
  std::size_t flight_lines;
  std::uint64_t flight_fnv;
};

constexpr Golden kClusterGolden{
    R"json({"type":"summary","schema_version":2,"protocol":"SSTSP","nodes":60,"duration_s":60,"seed":1,"attack":"none","sync_latency_s":2,"steady_max_us":67.31482216715813,"steady_p99_us":30.86677560210228,"cluster":{"clusters":3,"nodes_per_cluster":20,"gateways":1,"max_depth":2,"hop_bound_us":25,"cross_cluster_bound_us":50,"steady_inter_cluster_max_us":12.279571183025837},"events_processed":203010,"wall_seconds":0,"channel":{"transmissions":2779,"collided":42,"deliveries":158769,"per_drops":11,"half_duplex_suppressed":42,"bytes_on_air":256619},"honest":{"beacons_sent":2779,"beacons_received":52686,"adoptions":0,"adjustments":33986,"rejected_interval":0,"rejected_key":0,"rejected_mac":0,"rejected_guard":0,"elections_won":9,"demotions":26,"coarse_steps":2,"solver_rejections":0},"attacker":null,"net":null,"metrics":{"counters":{"beacon.adjust":33986,"beacon.auth_ok":34182,"beacon.rejected":0,"beacon.rx":52686,"beacon.traced":2779,"event.adjustment":33986,"event.adoption":0,"event.auth-ok":34182,"event.beacon-rx":52686,"event.beacon-tx":2779,"event.coarse-step":2,"event.demotion":26,"event.election-won":9,"event.reject-guard":0,"event.reject-interval":0,"event.reject-key":0,"event.reject-mac":0,"event.takeover":0},"gauges":{},"histograms":{"beacon.tx_to_adjust_us":{"count":33986,"sum":3458062131.528534,"min":99786.571163,"max":300070.12497,"mean":101749.60664769416,"p50":98841.03573885217,"p90":125487.02431438227,"p99":183375.96952380953},"beacon.tx_to_auth_us":{"count":34182,"sum":3477684127.8630958,"min":99786.571163,"max":300070.12497,"mean":101740.21788845287,"p50":98837.90610412392,"p90":125480.60012487735,"p99":182876.6476190476},"beacon.tx_to_rx_us":{"count":52686,"sum":3533076.2637549997,"min":66.012453,"max":68.149273,"mean":67.05910989171696,"p50":68.149273,"p90":68.149273,"p99":68.149273},"channel.delivery_latency_us":{"count":158769,"sum":10659641.482099999,"min":66.012453,"max":68.35986,"mean":67.13931234749856,"p50":68.35986,"p90":68.35986,"p99":68.35986},"sim.event_queue_depth":{"count":203010,"sum":18036124,"min":62,"max":180,"mean":88.84352494950987,"p50":95.85388055330829,"p90":121.6484100079909,"p99":127.4522109003916},"station.adjustment_rate_ppm":{"count":33986,"sum":1494134.008105328,"min":-159.42977859517703,"max":997.8932325174217,"mean":43.96322038796352,"p50":62.74869284681277,"p90":165.6041308089501,"p99":249.84509466437177},"station.coarse_step_us":{"count":2,"sum":67.90440932714513,"min":9.629112225558076,"max":58.27529710158706,"mean":33.952204663572566,"p50":12,"p90":48,"p99":48},"station.reject_offset_us":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"sync.max_diff_us":{"count":600,"sum":8580.634595533978,"min":2.6602323055267334,"max":271.67458743066527,"mean":14.301057659223297,"p50":9.032727272727273,"p90":16.210526315789473,"p99":206.22222222222223},"sync.node_error_us":{"count":31784,"sum":100321.08104080212,"min":3.413856029510498e-05,"max":191.27909374481533,"mean":3.1563390712560446,"p50":1.5497867926702777,"p90":4.8311990686845165,"p99":55.142028985507245}}},"profile":null,"audit":{"records":[{"kind":"reference-uniqueness","severity":"warning","paper_ref":"§3.1 (single reference per partition)","node":43,"peer":44,"count":7,"first_t_s":52.101811732664,"last_t_s":52.701801522123,"worst_value_us":0,"limit_us":0,"detail":"two confirmed references (44 and 43) emitted in interval 521 of cluster 2"},{"kind":"reference-uniqueness","severity":"warning","paper_ref":"§3.1 (single reference per partition)","node":59,"peer":43,"count":1,"first_t_s":52.502062694393,"last_t_s":52.502062694393,"worst_value_us":0,"limit_us":0,"detail":"two confirmed references (43 and 59) emitted in interval 525 of cluster 2"}],"dropped_records":0,"critical":0,"warnings":2},"recovery":{"records":[{"fault":"gateway-crash","node":20,"t_s":30,"reelection_s":null,"reelection_bps":null,"reattach_s":7.899999999999999,"resync_s":8,"recovered":true}],"packet_faults":{"drops":2508,"partition_drops":0,"isolation_drops":0,"duplicates":0,"delayed":0,"reordered":0,"corrupted":0},"rejected_frames":0,"post_fault_steady_max_us":67.31482216715813})json",
    R"json({"records":[{"kind":"reference-uniqueness","severity":"warning","paper_ref":"§3.1 (single reference per partition)","node":43,"peer":44,"count":7,"first_t_s":52.101811732664,"last_t_s":52.701801522123,"worst_value_us":0,"limit_us":0,"detail":"two confirmed references (44 and 43) emitted in interval 521 of cluster 2"},{"kind":"reference-uniqueness","severity":"warning","paper_ref":"§3.1 (single reference per partition)","node":59,"peer":43,"count":1,"first_t_s":52.502062694393,"last_t_s":52.502062694393,"worst_value_us":0,"limit_us":0,"detail":"two confirmed references (43 and 59) emitted in interval 525 of cluster 2"}],"dropped_records":0,"critical":0,"warnings":2})json",
    R"json({"records":[{"fault":"gateway-crash","node":20,"t_s":30,"reelection_s":null,"reelection_bps":null,"reattach_s":7.899999999999999,"resync_s":8,"recovered":true}],"packet_faults":{"drops":2508,"partition_drops":0,"isolation_drops":0,"duplicates":0,"delayed":0,"reordered":0,"corrupted":0},"rejected_frames":0,"post_fault_steady_max_us":67.31482216715813})json",
    60, 0xf2a439b6623b27c4ULL, 1132, 0xc4bdf48a680b8796ULL,
};

constexpr Golden kSwarmGolden{
    R"json({"type":"summary","schema_version":2,"protocol":"SSTSP","nodes":5,"duration_s":20,"seed":7,"attack":"none","sync_latency_s":1.1,"steady_max_us":4.043794486671686,"steady_p99_us":4.043794486671686,"events_processed":3635,"wall_seconds":0,"channel":{"transmissions":278,"collided":0,"deliveries":278,"per_drops":0,"half_duplex_suppressed":0,"bytes_on_air":25576},"honest":{"beacons_sent":278,"beacons_received":1112,"adoptions":0,"adjustments":696,"rejected_interval":384,"rejected_key":0,"rejected_mac":0,"rejected_guard":0,"elections_won":5,"demotions":4,"coarse_steps":0,"solver_rejections":0},"attacker":null,"net":{"transport":{"datagrams_sent":278,"bytes_sent":33360,"send_errors":0,"datagrams_received":1112,"bytes_received":133440,"recv_errors":0},"frames_sent":278,"frames_received":1112,"self_frames_dropped":0,"decode_errors":0,"stale_frames_dropped":0},"metrics":{"counters":{"beacon.adjust":696,"beacon.auth_ok":704,"beacon.rejected":384,"beacon.rx":1112,"beacon.traced":278,"event.adjustment":696,"event.adoption":0,"event.auth-ok":704,"event.beacon-rx":1112,"event.beacon-tx":278,"event.coarse-step":0,"event.demotion":4,"event.election-won":5,"event.reject-guard":0,"event.reject-interval":384,"event.reject-key":0,"event.reject-mac":0,"event.takeover":0},"gauges":{},"histograms":{"beacon.tx_to_adjust_us":{"count":696,"sum":69667519.500218,"min":99970.32259899999,"max":100105.408209,"mean":100097.01077617529,"p50":98256.9195402299,"p90":100105.408209,"p99":100105.408209},"beacon.tx_to_auth_us":{"count":704,"sum":70468631.488494,"min":99970.32259899999,"max":100184.377731,"mean":100097.4879097926,"p50":98257.45454545454,"p90":100184.377731,"p99":100184.377731},"beacon.tx_to_rx_us":{"count":1112,"sum":57599412.012706,"min":101.109387,"max":180030.29778599998,"mean":51798.032385526974,"p50":112.83516483516483,"p90":180030.29778599998,"p99":180030.29778599998},"channel.delivery_latency_us":{"count":278,"sum":18626.996940999998,"min":66.052054,"max":67.98579,"mean":67.00358611870503,"p50":67.98579,"p90":67.98579,"p99":67.98579},"sim.event_queue_depth":{"count":3635,"sum":80003,"min":5,"max":51,"mean":22.009078404401652,"p50":14.010766045548653,"p90":51,"p99":51},"station.adjustment_rate_ppm":{"count":696,"sum":91347.35100966452,"min":-54.428325219735285,"max":917.1056690273626,"mean":131.24619397940305,"p50":156.32535885167465,"p90":241.76076555023923,"p99":490.66666666666663},"station.coarse_step_us":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"station.reject_offset_us":{"count":384,"sum":-57485521.63847037,"min":-179931.60120734014,"max":-120191.68080744334,"mean":-149701.87926684992,"p50":179931.60120734014,"p90":179931.60120734014,"p99":179931.60120734014},"sync.max_diff_us":{"count":200,"sum":3503.4209986706555,"min":1.2527158856391907,"max":221.8574630948715,"mean":17.51710499335328,"p50":5.829268292682927,"p90":49,"p99":202.66666666666669},"sync.node_error_us":{"count":1000,"sum":5100.27123484484,"min":5.416944622993469e-05,"max":146.14293478941545,"mean":5.100271234844841,"p50":1.5237068965517242,"p90":13.0625,"p99":62}}},"profile":null,"audit":{"records":[{"kind":"lemma1-divergence","severity":"critical","paper_ref":"Lemma 1","node":null,"peer":null,"count":7,"first_t_s":9.4,"last_t_s":10,"worst_value_us":72.92696065083146,"limit_us":50,"detail":"max sync error grew to 51.713 us in a quiet window (reference live, no role churn)"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":0,"peer":1,"count":19,"first_t_s":8.363706407232,"last_t_s":10.122491693218,"worst_value_us":-177043.53878237866,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":0,"peer":2,"count":19,"first_t_s":8.372436936609,"last_t_s":10.162745285164,"worst_value_us":-177745.26321585476,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":0,"peer":3,"count":19,"first_t_s":8.376979568315999,"last_t_s":10.145968357087,"worst_value_us":-179780.17179533094,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":0,"peer":4,"count":20,"first_t_s":8.226548476848,"last_t_s":10.125794215183,"worst_value_us":-179204.0559552256,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":1,"peer":0,"count":19,"first_t_s":8.351641164023,"last_t_s":10.160530772624,"worst_value_us":-165617.55381782167,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":1,"peer":2,"count":19,"first_t_s":8.36504790702,"last_t_s":10.172867003261,"worst_value_us":-179138.68206016906,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":1,"peer":3,"count":19,"first_t_s":8.369510515273,"last_t_s":10.139732779504,"worst_value_us":-178139.92636705376,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":1,"peer":4,"count":20,"first_t_s":8.262212463496,"last_t_s":10.153157615907,"worst_value_us":-178565.8026887793,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":2,"peer":0,"count":19,"first_t_s":8.345268819176,"last_t_s":10.126125564341999,"worst_value_us":-179931.60120734014,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":2,"peer":1,"count":19,"first_t_s":8.376744574124,"last_t_s":10.158577935643999,"worst_value_us":-177760.36120239832,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":2,"peer":3,"count":19,"first_t_s":8.329672357170999,"last_t_s":10.154327708876,"worst_value_us":-172083.42623187602,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":2,"peer":4,"count":20,"first_t_s":8.268243214793,"last_t_s":10.130655245918,"worst_value_us":-178692.7134555038,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":3,"peer":0,"count":19,"first_t_s":8.375735143619,"last_t_s":10.163454396101999,"worst_value_us":-176160.5439049201,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":3,"peer":1,"count":19,"first_t_s":8.338276147485999,"last_t_s":10.158571618894,"worst_value_us":-179705.4833093267,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":3,"peer":2,"count":19,"first_t_s":8.328685755633,"last_t_s":10.173997971244999,"worst_value_us":-176585.38212191872,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":3,"peer":4,"count":20,"first_t_s":8.239692480833,"last_t_s":10.162570295446,"worst_value_us":-172478.8058655318,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":4,"peer":0,"count":19,"first_t_s":8.33380023868,"last_t_s":10.171189454303,"worst_value_us":-173988.65237867832,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":4,"peer":1,"count":19,"first_t_s":8.359739746632,"last_t_s":10.13807236517,"worst_value_us":-177080.20694486238,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":4,"peer":2,"count":19,"first_t_s":8.34753841879,"last_t_s":10.144917712023,"worst_value_us":-179568.1346947588,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":4,"peer":3,"count":19,"first_t_s":8.374031361565,"last_t_s":10.129366815867,"worst_value_us":-179806.51719464175,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"reference-uniqueness","severity":"warning","paper_ref":"§3.1 (single reference per partition)","node":0,"peer":1,"count":18,"first_t_s":8.399337743636,"last_t_s":10.099181578326,"worst_value_us":0,"limit_us":0,"detail":"two confirmed references (1 and 0) emitted in interval 84 of cluster 0"},{"kind":"reference-uniqueness","severity":"warning","paper_ref":"§3.1 (single reference per partition)","node":2,"peer":0,"count":18,"first_t_s":8.399340041596,"last_t_s":10.099193913388,"worst_value_us":0,"limit_us":0,"detail":"two confirmed references (0 and 2) emitted in interval 84 of cluster 0"},{"kind":"reference-uniqueness","severity":"warning","paper_ref":"§3.1 (single reference per partition)","node":3,"peer":4,"count":18,"first_t_s":8.399348779421,"last_t_s":10.099228612166,"worst_value_us":0,"limit_us":0,"detail":"two confirmed references (4 and 3) emitted in interval 84 of cluster 0"},{"kind":"reference-uniqueness","severity":"warning","paper_ref":"§3.1 (single reference per partition)","node":4,"peer":2,"count":18,"first_t_s":8.39934524653,"last_t_s":10.099222492157,"worst_value_us":0,"limit_us":0,"detail":"two confirmed references (2 and 4) emitted in interval 84 of cluster 0"}],"dropped_records":0,"critical":1,"warnings":24},"recovery":{"records":[{"fault":"clock-fault","node":2,"t_s":12,"reelection_s":null,"reelection_bps":null,"reattach_s":null,"resync_s":0.40000000000000036,"recovered":true}],"packet_faults":{"drops":0,"partition_drops":0,"isolation_drops":0,"duplicates":0,"delayed":384,"reordered":0,"corrupted":0},"rejected_frames":384,"post_fault_steady_max_us":22.436173679307103})json",
    R"json({"records":[{"kind":"lemma1-divergence","severity":"critical","paper_ref":"Lemma 1","node":null,"peer":null,"count":7,"first_t_s":9.4,"last_t_s":10,"worst_value_us":72.92696065083146,"limit_us":50,"detail":"max sync error grew to 51.713 us in a quiet window (reference live, no role churn)"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":0,"peer":1,"count":19,"first_t_s":8.363706407232,"last_t_s":10.122491693218,"worst_value_us":-177043.53878237866,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":0,"peer":2,"count":19,"first_t_s":8.372436936609,"last_t_s":10.162745285164,"worst_value_us":-177745.26321585476,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":0,"peer":3,"count":19,"first_t_s":8.376979568315999,"last_t_s":10.145968357087,"worst_value_us":-179780.17179533094,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":0,"peer":4,"count":20,"first_t_s":8.226548476848,"last_t_s":10.125794215183,"worst_value_us":-179204.0559552256,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":1,"peer":0,"count":19,"first_t_s":8.351641164023,"last_t_s":10.160530772624,"worst_value_us":-165617.55381782167,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":1,"peer":2,"count":19,"first_t_s":8.36504790702,"last_t_s":10.172867003261,"worst_value_us":-179138.68206016906,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":1,"peer":3,"count":19,"first_t_s":8.369510515273,"last_t_s":10.139732779504,"worst_value_us":-178139.92636705376,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":1,"peer":4,"count":20,"first_t_s":8.262212463496,"last_t_s":10.153157615907,"worst_value_us":-178565.8026887793,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":2,"peer":0,"count":19,"first_t_s":8.345268819176,"last_t_s":10.126125564341999,"worst_value_us":-179931.60120734014,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":2,"peer":1,"count":19,"first_t_s":8.376744574124,"last_t_s":10.158577935643999,"worst_value_us":-177760.36120239832,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":2,"peer":3,"count":19,"first_t_s":8.329672357170999,"last_t_s":10.154327708876,"worst_value_us":-172083.42623187602,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":2,"peer":4,"count":20,"first_t_s":8.268243214793,"last_t_s":10.130655245918,"worst_value_us":-178692.7134555038,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":3,"peer":0,"count":19,"first_t_s":8.375735143619,"last_t_s":10.163454396101999,"worst_value_us":-176160.5439049201,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":3,"peer":1,"count":19,"first_t_s":8.338276147485999,"last_t_s":10.158571618894,"worst_value_us":-179705.4833093267,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":3,"peer":2,"count":19,"first_t_s":8.328685755633,"last_t_s":10.173997971244999,"worst_value_us":-176585.38212191872,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":3,"peer":4,"count":20,"first_t_s":8.239692480833,"last_t_s":10.162570295446,"worst_value_us":-172478.8058655318,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":4,"peer":0,"count":19,"first_t_s":8.33380023868,"last_t_s":10.171189454303,"worst_value_us":-173988.65237867832,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":4,"peer":1,"count":19,"first_t_s":8.359739746632,"last_t_s":10.13807236517,"worst_value_us":-177080.20694486238,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":4,"peer":2,"count":19,"first_t_s":8.34753841879,"last_t_s":10.144917712023,"worst_value_us":-179568.1346947588,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"key-disclosure","severity":"warning","paper_ref":"µTESLA security condition, §3.3 check 1","node":4,"peer":3,"count":19,"first_t_s":8.374031361565,"last_t_s":10.129366815867,"worst_value_us":-179806.51719464175,"limit_us":2000,"detail":"beacon claimed an interval whose key may already be disclosed (replay/delay evidence); rejected"},{"kind":"reference-uniqueness","severity":"warning","paper_ref":"§3.1 (single reference per partition)","node":0,"peer":1,"count":18,"first_t_s":8.399337743636,"last_t_s":10.099181578326,"worst_value_us":0,"limit_us":0,"detail":"two confirmed references (1 and 0) emitted in interval 84 of cluster 0"},{"kind":"reference-uniqueness","severity":"warning","paper_ref":"§3.1 (single reference per partition)","node":2,"peer":0,"count":18,"first_t_s":8.399340041596,"last_t_s":10.099193913388,"worst_value_us":0,"limit_us":0,"detail":"two confirmed references (0 and 2) emitted in interval 84 of cluster 0"},{"kind":"reference-uniqueness","severity":"warning","paper_ref":"§3.1 (single reference per partition)","node":3,"peer":4,"count":18,"first_t_s":8.399348779421,"last_t_s":10.099228612166,"worst_value_us":0,"limit_us":0,"detail":"two confirmed references (4 and 3) emitted in interval 84 of cluster 0"},{"kind":"reference-uniqueness","severity":"warning","paper_ref":"§3.1 (single reference per partition)","node":4,"peer":2,"count":18,"first_t_s":8.39934524653,"last_t_s":10.099222492157,"worst_value_us":0,"limit_us":0,"detail":"two confirmed references (2 and 4) emitted in interval 84 of cluster 0"}],"dropped_records":0,"critical":1,"warnings":24})json",
    R"json({"records":[{"fault":"clock-fault","node":2,"t_s":12,"reelection_s":null,"reelection_bps":null,"reattach_s":null,"resync_s":0.40000000000000036,"recovered":true}],"packet_faults":{"drops":0,"partition_drops":0,"isolation_drops":0,"duplicates":0,"delayed":384,"reordered":0,"corrupted":0},"rejected_frames":384,"post_fault_steady_max_us":22.436173679307103})json",
    120, 0x5e4f2eb4761259e0ULL, 4496, 0x72dbd600ff036bbdULL,
};

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

fault::FaultPlan plan(const char* text) {
  std::string error;
  const auto parsed = fault::parse_plan_text(text, &error);
  EXPECT_TRUE(parsed.has_value()) << error;
  return parsed.value_or(fault::FaultPlan{});
}

// Same normalization as discipline_golden_test: the volatile wall_seconds
// value becomes 0 and the host-dependent provenance block is cut off.
std::string normalized_summary(const run::Scenario& s,
                               const run::RunResult& r) {
  std::ostringstream os;
  run::write_summary_jsonl(os, s, r);
  std::string line = os.str();
  if (!line.empty() && line.back() == '\n') line.pop_back();
  line = std::regex_replace(
      line, std::regex("\"wall_seconds\":[-+0-9.eE]+"), "\"wall_seconds\":0");
  const auto prov = line.find(",\"provenance\"");
  if (prov != std::string::npos) line.resize(prov);
  return line;
}

std::string member(const std::string& summary, const char* key) {
  const auto value = obs::json::parse(summary + "}");
  if (!value) return "<unparsable summary>";
  const obs::json::Value* field = value->find(key);
  return field == nullptr ? "<missing>" : obs::json::dump(*field);
}

struct Stream {
  std::size_t lines{0};
  std::uint64_t fnv{0xcbf29ce484222325ULL};
};

Stream digest_file(const std::string& path) {
  Stream d;
  std::ifstream in(path, std::ios::binary);
  std::string line;
  while (std::getline(in, line)) {
    ++d.lines;
    for (const char c : line + '\n') {
      d.fnv ^= static_cast<unsigned char>(c);
      d.fnv *= 0x100000001b3ULL;
    }
  }
  return d;
}

void expect_golden(const Golden& g, const std::string& summary,
                   const std::string& telemetry_path,
                   const std::string& flight_path) {
  EXPECT_EQ(summary, g.summary);
  EXPECT_EQ(member(summary, "audit"), g.audit);
  EXPECT_EQ(member(summary, "recovery"), g.recovery);
  const Stream telemetry = digest_file(telemetry_path);
  EXPECT_EQ(telemetry.lines, g.telemetry_lines);
  EXPECT_EQ(telemetry.fnv, g.telemetry_fnv) << std::hex << telemetry.fnv;
  const Stream flight = digest_file(flight_path);
  EXPECT_EQ(flight.lines, g.flight_lines);
  EXPECT_EQ(flight.fnv, g.flight_fnv) << std::hex << flight.fnv;
}

TEST(ObserversGolden, ClusterGatewayCrashRunByteIdentical) {
  const std::string telemetry = temp_path("golden_cluster_tele.jsonl");
  const std::string flight = temp_path("golden_cluster_flight.jsonl");
  run::Scenario s;
  s.cluster.clusters = 3;
  s.cluster.nodes_per_cluster = 20;
  s.num_nodes = s.cluster.total_nodes();
  s.duration_s = 60.0;
  s.seed = 1;
  s.sstsp.chain_length = 800;
  s.faults = plan(kGatewayCrashPlan);
  s.monitor = true;
  s.telemetry_out = telemetry;
  s.flight_recorder_out = flight;
  {
    run::Network net(s);
    net.run();
    const run::RunResult r = run::collect_result(net, 0.0);
    expect_golden(kClusterGolden, normalized_summary(s, r), telemetry,
                  flight);
  }
  std::remove(telemetry.c_str());
  std::remove(flight.c_str());
}

TEST(ObserversGolden, LoopbackSwarmRunByteIdentical) {
  const std::string telemetry = temp_path("golden_swarm_tele.jsonl");
  const std::string flight = temp_path("golden_swarm_flight.jsonl");
  net::SwarmConfig config;
  config.transport = net::TransportKind::kLoopback;
  config.num_nodes = 5;
  config.duration_s = 20.0;
  config.seed = 7;
  config.sstsp.chain_length = 400;
  config.faults = plan(kSwarmPlan);
  config.monitor = true;
  config.telemetry_out = telemetry;
  config.flight_recorder_out = flight;
  {
    std::string error;
    auto swarm = net::Swarm::create(config, &error);
    ASSERT_NE(swarm, nullptr) << error;
    swarm->run();
    const run::RunResult r = swarm->collect();
    expect_golden(kSwarmGolden,
                  normalized_summary(swarm->config(), r),
                  telemetry, flight);
  }
  std::remove(telemetry.c_str());
  std::remove(flight.c_str());
}

}  // namespace
}  // namespace sstsp

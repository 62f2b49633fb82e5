#include "runner/cli.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <limits>
#include <sstream>
#include <type_traits>

#include "attack/adversary.h"
#include "core/discipline.h"
#include "fault/plan.h"
#include "obs/json.h"

namespace sstsp::run {

namespace {

constexpr unsigned kSim = 1U;
constexpr unsigned kNode = 2U;
constexpr unsigned kSwarm = 4U;
constexpr unsigned kLive = kNode | kSwarm;
constexpr unsigned kAll = kSim | kNode | kSwarm;

unsigned tool_mask(ConfigTool tool) {
  switch (tool) {
    case ConfigTool::kSim:
      return kSim;
    case ConfigTool::kNode:
      return kNode;
    case ConfigTool::kSwarm:
      return kSwarm;
    case ConfigTool::kAny:
      break;
  }
  return kAll;
}

bool parse_double(const std::string& s, double* out) {
  try {
    std::size_t used = 0;
    *out = std::stod(s, &used);
    return used == s.size();
  } catch (...) {
    return false;
  }
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) parts.push_back(item);
  return parts;
}

/// Whole-string integer parse straight into the field's own type, so a
/// value the field cannot hold is rejected rather than narrowed.  Stores
/// only values in [lo, hi].
template <class T>
bool int_in(const std::string& s, T* out,
            std::type_identity_t<T> lo = std::numeric_limits<T>::min(),
            std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  T value{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) return false;
  if (value < lo || value > hi) return false;
  *out = value;
  return true;
}

/// Whole-string real parse; stores only values `ok` accepts.
template <class Ok>
bool real(const std::string& s, double* out, Ok ok) {
  double value = 0;
  if (!parse_double(s, &value) || !ok(value)) return false;
  *out = value;
  return true;
}
constexpr auto kAnyReal = [](double) { return true; };
constexpr auto kNonNegative = [](double d) { return d >= 0; };
constexpr auto kPositive = [](double d) { return d > 0; };
constexpr auto kProbability = [](double d) { return d >= 0 && d < 1; };
constexpr auto kUnitInterval = [](double d) { return d >= 0 && d <= 1; };

bool endpoint(const std::string& s, std::string* host, std::uint16_t* port) {
  const auto colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  if (!int_in(s.substr(colon + 1), port, 1)) return false;
  *host = s.substr(0, colon);
  return true;
}

/// "a, b, c" for an error message's list of valid names.
template <class Names>
std::string joined(const Names& names) {
  std::string out;
  for (const auto& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

std::optional<ProtocolKind> parse_protocol(const std::string& name) {
  if (name == "tsf") return ProtocolKind::kTsf;
  if (name == "atsp") return ProtocolKind::kAtsp;
  if (name == "tatsp") return ProtocolKind::kTatsp;
  if (name == "satsf") return ProtocolKind::kSatsf;
  if (name == "rentel-kunz" || name == "rk") return ProtocolKind::kRentelKunz;
  if (name == "sstsp") return ProtocolKind::kSstsp;
  return std::nullopt;
}

bool store(std::string* field, const std::string& value) {
  *field = value;
  return true;
}
bool on(bool* flag) {
  *flag = true;
  return true;
}

// Printing the trace needs a ring that holds the whole run; the streaming
// outputs (--json-out, --timeline-out) write at record time, so a modest
// ring suffices for them.
void keep_trace(CliOptions& o, std::size_t capacity) {
  o.scenario.trace_capacity = std::max(o.scenario.trace_capacity, capacity);
}
void print_trace(CliOptions& o) {
  o.dump_trace = true;
  keep_trace(o, 1 << 18);
}

using Cli = CliOptions;
using Arg = const std::string&;
using Why = std::string*;

/// One flag of one or more tools.  The setter gets the flag's value (empty
/// for a bare switch; "strict" for --monitor=strict) and returns false on
/// an invalid one, optionally with its own message in *why.
struct Flag {
  std::string_view key;   ///< flag name without "--"; also the config key
  unsigned tools;         ///< kSim | kNode | kSwarm
  std::string_view need;  ///< "": bare switch; else the missing/bad message
  bool (*set)(Cli& o, Arg v, Why why);
};

// The one flag table: every flag of the three tools, and so every config
// key.  Each row applies only to the tools it names; a row shared by
// several tools sets the same field for all of them.
constexpr Flag kFlags[] = {
    // scenario / deployment
    {"protocol", kSim, "--protocol needs a value",
     [](Cli& o, Arg v, Why why) {
       const auto kind = parse_protocol(v);
       if (!kind) {
         *why = "unknown protocol: " + v;
         return false;
       }
       o.scenario.protocol = *kind;
       return true;
     }},
    {"nodes", kAll, "--nodes needs a positive integer (max 1000000)",
     [](Cli& o, Arg v, Why) {
       return int_in(v, &o.scenario.num_nodes, 1, 1000000);
     }},
    {"duration", kAll, "--duration needs a positive number of seconds",
     [](Cli& o, Arg v, Why) {
       return real(v, &o.scenario.duration_s, kPositive);
     }},
    {"seed", kAll, "--seed needs an integer",
     [](Cli& o, Arg v, Why) { return int_in(v, &o.scenario.seed); }},
    {"paper-env", kSim, "",
     [](Cli& o, Arg, Why) {
       Scenario& s = o.scenario;
       s.churn = ChurnSpec{};
       s.duration_s = 1000.0;
       if (s.protocol == ProtocolKind::kSstsp) {
         s.reference_departures_s = {300.0, 500.0, 800.0};
       }
       return true;
     }},
    {"threads", kSim, "--threads needs an integer in [0, 1024]",
     [](Cli& o, Arg v, Why) {
       return int_in(v, &o.scenario.threads, 0, 1024);
     }},
    {"shards", kSim, "--shards needs an integer in [0, 4096]",
     [](Cli& o, Arg v, Why) {
       return int_in(v, &o.scenario.shards, 0, 4096);
     }},
    {"radio-range", kSim, "--radio-range needs a distance in metres >= 0",
     [](Cli& o, Arg v, Why) {
       return real(v, &o.scenario.phy.radio_range_m, kNonNegative);
     }},
    {"placement-radius", kSim,
     "--placement-radius needs a distance in metres > 0",
     [](Cli& o, Arg v, Why) {
       return real(v, &o.scenario.phy.placement_radius_m, kPositive);
     }},
    {"id", kNode, "--id needs a non-negative integer",
     [](Cli& o, Arg v, Why) { return int_in(v, &o.node.config.id); }},
    // protocol parameters
    {"m", kAll, "--m needs a positive integer",
     [](Cli& o, Arg v, Why) { return int_in(v, &o.scenario.sstsp.m, 1); }},
    {"l", kAll, "--l needs a positive integer",
     [](Cli& o, Arg v, Why) { return int_in(v, &o.scenario.sstsp.l, 1); }},
    {"guard", kAll, "--guard needs a positive value in us",
     [](Cli& o, Arg v, Why) {
       return real(v, &o.scenario.sstsp.guard_fine_us, kPositive);
     }},
    {"chain-length", kAll, "--chain-length needs an integer >= 10",
     [](Cli& o, Arg v, Why) {
       return int_in(v, &o.scenario.sstsp.chain_length, 10);
     }},
    {"per", kSim, "--per needs a probability in [0, 1)",
     [](Cli& o, Arg v, Why) {
       return real(v, &o.scenario.phy.packet_error_rate, kProbability);
     }},
    {"preestablished", kSim | kSwarm, "",
     [](Cli& o, Arg, Why) {
       return on(&o.scenario.preestablished_reference);
     }},
    {"reference", kNode, "",
     [](Cli& o, Arg, Why) { return on(&o.node.config.start_as_reference); }},
    // clusters (hierarchical multi-domain sync, DESIGN.md §13)
    {"clusters", kSim, "--clusters needs an integer in [0, 127]",
     [](Cli& o, Arg v, Why) {
       return int_in(v, &o.scenario.cluster.clusters, 0, 0x7f);
     }},
    {"cluster-nodes", kSim, "--cluster-nodes needs an integer >= 2",
     [](Cli& o, Arg v, Why) {
       return int_in(v, &o.scenario.cluster.nodes_per_cluster, 2);
     }},
    {"cluster-gateways", kSim, "--cluster-gateways needs a positive integer",
     [](Cli& o, Arg v, Why) {
       return int_in(v, &o.scenario.cluster.gateways, 1);
     }},
    {"cluster-spacing", kSim,
     "--cluster-spacing needs a distance in metres > 0",
     [](Cli& o, Arg v, Why) {
       return real(v, &o.scenario.cluster.spacing_m, kPositive);
     }},
    {"cluster-radius", kSim, "--cluster-radius needs a distance in metres > 0",
     [](Cli& o, Arg v, Why) {
       return real(v, &o.scenario.cluster.radius_m, kPositive);
     }},
    {"cluster-phase", kSim, "--cluster-phase needs a us value >= 0",
     [](Cli& o, Arg v, Why) {
       return real(v, &o.scenario.cluster.phase_us, kNonNegative);
     }},
    {"cluster-hop-bound", kSim,
     "--cluster-hop-bound needs a positive us value",
     [](Cli& o, Arg v, Why) {
       return real(v, &o.scenario.cluster.hop_bound_us, kPositive);
     }},
    // environment
    {"churn", kSim,
     "--churn needs period,fraction,absence with period > 0, fraction in "
     "[0, 1] and absence >= 0",
     [](Cli& o, Arg v, Why) {
       const auto parts = split(v, ',');
       ChurnSpec churn;
       if (parts.size() != 3 || !real(parts[0], &churn.period_s, kPositive) ||
           !real(parts[1], &churn.fraction, kUnitInterval) ||
           !real(parts[2], &churn.absence_s, kNonNegative)) {
         return false;
       }
       o.scenario.churn = churn;
       return true;
     }},
    {"departures", kSim, "--departures needs t1,t2,...",
     [](Cli& o, Arg v, Why why) {
       auto& times = o.scenario.reference_departures_s;
       times.clear();
       for (const auto& part : split(v, ',')) {
         double t = 0;
         if (!real(part, &t, kNonNegative)) {
           *why = "--departures needs times >= 0";
           return false;
         }
         times.push_back(t);
       }
       return true;
     }},
    {"sample-period", kSim | kSwarm,
     "--sample-period needs a positive number of seconds",
     [](Cli& o, Arg v, Why) {
       return real(v, &o.scenario.sample_period_s, kPositive);
     }},
    {"max-drift", kAll, "--max-drift needs a ppm value >= 0",
     [](Cli& o, Arg v, Why) {
       return real(v, &o.scenario.max_drift_ppm, kNonNegative);
     }},
    {"initial-offset", kAll, "--initial-offset needs a us value >= 0",
     [](Cli& o, Arg v, Why) {
       return real(v, &o.scenario.initial_offset_us, kNonNegative);
     }},
    {"drift", kNode, "--drift needs a value in ppm",
     [](Cli& o, Arg v, Why) {
       o.node.config.emulate_clock = false;
       return real(v, &o.node.config.drift_ppm, kAnyReal);
     }},
    {"offset", kNode, "--offset needs a value in us",
     [](Cli& o, Arg v, Why) {
       o.node.config.emulate_clock = false;
       return real(v, &o.node.config.offset_us, kAnyReal);
     }},
    // attack + faults
    {"attack", kSim, "--attack needs a kind",
     [](Cli& o, Arg v, Why why) {
       if (!attack::adversary_known(v)) {
         *why = "unknown attack: " + v +
                " (known: " + joined(attack::adversary_names()) + ")";
         return false;
       }
       o.scenario.attack = v;
       return true;
     }},
    {"attack-window", kSim, "--attack-window needs start,end",
     [](Cli& o, Arg v, Why why) {
       const auto parts = split(v, ',');
       double a = 0;
       double b = 0;
       if (parts.size() != 2 || !parse_double(parts[0], &a) ||
           !parse_double(parts[1], &b) || b <= a) {
         *why = "--attack-window needs start,end with end > start";
         return false;
       }
       Scenario& s = o.scenario;
       s.tsf_attack.start_s = s.sstsp_attack.start_s = a;
       s.tsf_attack.end_s = s.sstsp_attack.end_s = b;
       return true;
     }},
    {"attack-params", kSim, "--attack-params needs a JSON object",
     [](Cli& o, Arg v, Why why) {
       if (!obs::json::parse(v)) {
         *why = "--attack-params is not valid JSON: " + v;
         return false;
       }
       o.scenario.attack_params_json = v;
       return true;
     }},
    {"skew", kSim, "--skew needs a rate in us/s",
     [](Cli& o, Arg v, Why) {
       return real(v, &o.scenario.sstsp_attack.skew_rate_us_per_s, kAnyReal);
     }},
    {"faults", kAll, "--faults needs a path",
     [](Cli& o, Arg v, Why why) {
       const auto plan = fault::load_plan(v, why);
       if (plan) o.scenario.faults = *plan;
       return plan.has_value();
     }},
    {"faults-json", kAll, "--faults-json needs JSON text",
     [](Cli& o, Arg v, Why why) {
       const auto plan = fault::parse_plan_text(v, why);
       if (!plan) {
         *why = "--faults-json: " + *why;
         return false;
       }
       o.scenario.faults = *plan;
       return true;
     }},
    // clock discipline + oscillator stress (DESIGN.md §14)
    {"discipline", kAll, "--discipline needs a name",
     [](Cli& o, Arg v, Why why) {
       if (!core::discipline_known(v)) {
         *why = "unknown discipline: " + v +
                " (known: " + joined(core::discipline_names()) + ")";
         return false;
       }
       o.scenario.sstsp.discipline.name = v;
       return true;
     }},
    {"discipline-params", kAll, "--discipline-params needs a JSON object",
     [](Cli& o, Arg v, Why why) {
       const auto parsed = obs::json::parse(v);
       if (!parsed) {
         *why = "--discipline-params is not valid JSON: " + v;
         return false;
       }
       if (!core::apply_discipline_json(*parsed, &o.scenario.sstsp, why)) {
         *why = "--discipline-params: " + *why;
         return false;
       }
       return true;
     }},
    {"clock-model", kSim, "--clock-model needs a kind",
     [](Cli& o, Arg v, Why why) {
       const auto kind = clock_model_kind_from_string(v);
       if (!kind) {
         *why = "unknown clock model: " + v +
                " (known: none, temp-ramp, aging, random-walk)";
         return false;
       }
       o.scenario.clock_stress.kind = *kind;
       return true;
     }},
    {"clock-model-params", kSim, "--clock-model-params needs a JSON object",
     [](Cli& o, Arg v, Why why) {
       const auto parsed = obs::json::parse(v);
       if (!parsed) {
         *why = "--clock-model-params is not valid JSON: " + v;
         return false;
       }
       if (!apply_clock_model_json(*parsed, &o.scenario.clock_stress, why)) {
         *why = "--clock-model-params: " + *why;
         return false;
       }
       return true;
     }},
    // live endpoints / pacing
    {"transport", kSwarm, "--transport needs udp | loopback",
     [](Cli& o, Arg v, Why why) {
       if (v == "udp") {
         o.live.transport = net::TransportKind::kUdp;
       } else if (v == "loopback") {
         o.live.transport = net::TransportKind::kLoopback;
       } else {
         *why = "unknown transport: " + v;
         return false;
       }
       return true;
     }},
    {"bind", kLive, "--bind needs an address",
     [](Cli& o, Arg v, Why) { return store(&o.live.bind_address, v); }},
    {"port", kNode, "--port needs a port number",
     [](Cli& o, Arg v, Why) { return int_in(v, &o.node.udp.bind_port); }},
    {"base-port", kSwarm, "--base-port needs a port number",
     [](Cli& o, Arg v, Why) { return int_in(v, &o.live.base_port); }},
    {"peer", kNode, "--peer needs HOST:PORT",
     [](Cli& o, Arg v, Why) {
       net::UdpEndpoint peer;
       if (!endpoint(v, &peer.host, &peer.port)) return false;
       o.node.udp.peers.push_back(peer);
       return true;
     }},
    {"multicast", kNode, "--multicast needs GROUP:PORT",
     [](Cli& o, Arg v, Why) {
       return endpoint(v, &o.node.udp.multicast_group,
                       &o.node.udp.multicast_port);
     }},
    {"mcast-if", kNode, "--mcast-if needs an address",
     [](Cli& o, Arg v, Why) {
       return store(&o.node.udp.multicast_interface, v);
     }},
    {"ttl", kNode, "--ttl needs a value in [0, 255]",
     [](Cli& o, Arg v, Why) {
       return int_in(v, &o.node.udp.multicast_ttl, 0, 255);
     }},
    {"latency", kSwarm, "--latency needs min,max in us",
     [](Cli& o, Arg v, Why why) {
       const auto parts = split(v, ',');
       double lo = 0;
       double hi = 0;
       if (parts.size() != 2 || !parse_double(parts[0], &lo) ||
           !parse_double(parts[1], &hi) || lo < 0 || hi < lo) {
         *why = "--latency needs min,max in us with max >= min >= 0";
         return false;
       }
       o.live.loopback.latency_min = sim::SimTime::from_us_double(lo);
       o.live.loopback.latency_max = sim::SimTime::from_us_double(hi);
       return true;
     }},
    {"wire-latency", kLive, "--wire-latency needs a value in us",
     [](Cli& o, Arg v, Why) {
       return real(v, &o.live.wire_latency_us, kNonNegative);
     }},
    {"diverge-threshold", kSwarm, "--diverge-threshold needs a value in us",
     [](Cli& o, Arg v, Why) {
       return real(v, &o.live.monitor_diverge_us, kNonNegative);
     }},
    {"epoch", kNode, "--epoch needs a UNIX time in seconds",
     [](Cli& o, Arg v, Why) {
       return real(v, &o.node.epoch_unix_s, kNonNegative);
     }},
    // output / checks
    {"csv", kSim | kSwarm, "--csv needs a path",
     [](Cli& o, Arg v, Why) { return store(&o.csv_path, v); }},
    {"chart", kSim | kSwarm, "",
     [](Cli& o, Arg, Why) { return on(&o.ascii_chart); }},
    {"trace", kAll, "",
     [](Cli& o, Arg, Why) {
       print_trace(o);
       return true;
     }},
    {"trace-limit", kAll, "--trace-limit needs a positive integer",
     [](Cli& o, Arg v, Why) {
       if (!int_in(v, &o.trace_limit, 1)) return false;
       print_trace(o);
       return true;
     }},
    {"trace-kind", kAll, "--trace-kind needs an event kind",
     [](Cli& o, Arg v, Why why) {
       const auto kind = trace::kind_from_string(v);
       if (!kind) {
         std::vector<std::string_view> valid;
         for (int k = 0; k < static_cast<int>(trace::kEventKindCount); ++k) {
           valid.push_back(trace::to_string(static_cast<trace::EventKind>(k)));
         }
         *why = "unknown event kind: " + v + " (valid kinds: " +
                joined(valid) + ")";
         return false;
       }
       o.trace_kind = *kind;
       print_trace(o);
       return true;
     }},
    {"json-out", kAll, "--json-out needs a path",
     [](Cli& o, Arg v, Why) {
       o.json_out_path = v;
       keep_trace(o, 1 << 12);
       return true;
     }},
    {"metrics-out", kAll, "--metrics-out needs a path",
     [](Cli& o, Arg v, Why) { return store(&o.metrics_out_path, v); }},
    {"profile", kAll, "",
     [](Cli& o, Arg, Why) { return on(&o.scenario.profile); }},
    {"monitor", kAll, "",
     [](Cli& o, Arg v, Why) {
       o.monitor_strict = o.monitor_strict || v == "strict";
       return on(&o.scenario.monitor);
     }},
    {"expect-sync", kSwarm, "",
     [](Cli& o, Arg, Why) { return on(&o.expect_sync); }},
    // telemetry / flight recorder (DESIGN.md §10)
    {"telemetry-out", kAll, "--telemetry-out needs a path",
     [](Cli& o, Arg v, Why) {
       return store(&o.scenario.telemetry_out, v);
     }},
    {"telemetry-interval", kAll,
     "--telemetry-interval needs a positive number of seconds",
     [](Cli& o, Arg v, Why) {
       return real(v, &o.scenario.telemetry_interval_s, kPositive);
     }},
    {"telemetry-per-node", kSim | kSwarm, "--telemetry-per-node needs 0 or 1",
     [](Cli& o, Arg v, Why) {
       return int_in(v, &o.scenario.telemetry_per_node, 0, 1);
     }},
    {"telemetry-udp", kNode, "--telemetry-udp needs HOST:PORT",
     [](Cli& o, Arg v, Why) {
       return endpoint(v, &o.node.telemetry_udp_host,
                       &o.node.telemetry_udp_port);
     }},
    {"flight-recorder", kAll, "--flight-recorder needs a path",
     [](Cli& o, Arg v, Why) {
       return store(&o.scenario.flight_recorder_out, v);
     }},
    {"flight-capacity", kAll, "--flight-capacity needs an integer >= 16",
     [](Cli& o, Arg v, Why) {
       return int_in(v, &o.scenario.flight_capacity, 16);
     }},
    {"watch", kSwarm, "", [](Cli& o, Arg, Why) { return on(&o.live.watch); }},
    // performance observatory (DESIGN.md §11)
    {"timeline-out", kAll, "--timeline-out needs a path",
     [](Cli& o, Arg v, Why) {
       o.timeline_out_path = v;
       keep_trace(o, 1 << 12);
       return true;
     }},
    {"sampler", kAll, "",
     [](Cli& o, Arg, Why) { return on(&o.scenario.phase_sampler); }},
    {"sampler-interval", kAll,
     "--sampler-interval needs a positive number of seconds",
     [](Cli& o, Arg v, Why) {
       o.scenario.phase_sampler = true;
       return real(v, &o.scenario.phase_sampler_interval_s, kPositive);
     }},
    {"prom-textfile", kAll, "--prom-textfile needs a path",
     [](Cli& o, Arg v, Why) {
       return store(&o.prom_textfile_path, v);
     }},
    {"prom-port", kLive, "--prom-port needs a port number (0 = ephemeral)",
     [](Cli& o, Arg v, Why) {
       return int_in(v, &o.live.prom_port, 0, 65535);
     }},
};

const Flag* find_flag(std::string_view key) {
  for (const Flag& flag : kFlags) {
    if (flag.key == key) return &flag;
  }
  return nullptr;
}

double unix_now_s() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

bool config_key_applies(std::string_view key, ConfigTool tool) {
  const Flag* flag = find_flag(key);
  return flag != nullptr && (flag->tools & tool_mask(tool)) != 0;
}

std::vector<std::string_view> cli_flags(ConfigTool tool) {
  std::vector<std::string_view> keys;
  for (const Flag& flag : kFlags) {
    if ((flag.tools & tool_mask(tool)) != 0) keys.push_back(flag.key);
  }
  return keys;
}

std::optional<CliOptions> parse_cli(const std::vector<std::string>& args,
                                    ConfigTool tool, std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };

  CliOptions o;
  Scenario& s = o.scenario;
  if (tool == ConfigTool::kNode || tool == ConfigTool::kSwarm) {
    s = net::SwarmConfig();  // the live defaults
  } else {
    s.num_nodes = 100;
    s.duration_s = 200.0;
  }
  if (tool == ConfigTool::kNode) {
    // A lone node binds every interface and faces a real UDP hop.
    o.live.bind_address = o.node.udp.bind_address;
    o.live.wire_latency_us = net::kUdpWireLatencyUs;
  }
  s.sstsp.chain_length = 0;  // derived below unless --chain-length sets it
  bool config_loaded = false;

  // --config splices the file's flags in place, so iterate a mutable copy.
  std::vector<std::string> argv = args;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      o.help = true;
      return o;
    }
    if (arg == "--config") {
      if (i + 1 >= argv.size()) return fail("--config needs a path");
      if (config_loaded) return fail("--config may be given only once");
      config_loaded = true;
      std::string cfg_error;
      const auto cfg_args = load_config_args(argv[++i], tool, &cfg_error);
      if (!cfg_args) return fail(cfg_error);
      argv.insert(argv.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  cfg_args->begin(), cfg_args->end());
      continue;
    }
    const bool strict = arg == "--monitor=strict";
    const Flag* flag = arg.rfind("--", 0) == 0
                           ? find_flag(strict ? "monitor" : arg.substr(2))
                           : nullptr;
    if (flag == nullptr || (flag->tools & tool_mask(tool)) == 0) {
      return fail("unknown option: " + arg);
    }
    std::string value = strict ? "strict" : "";
    if (!flag->need.empty()) {
      if (i + 1 >= argv.size()) return fail(std::string(flag->need));
      value = argv[++i];
    }
    std::string why;
    if (!flag->set(o, value, &why)) {
      return fail(why.empty() ? std::string(flag->need) : why);
    }
  }

  if (!s.attack_params_json.empty()) {
    // Read by the adversary they configure, whose --attack may come later.
    if (s.attack.empty()) return fail("--attack-params needs an --attack");
    std::string why;
    if (!attack::configure_adversary(s.attack, s.attack_params_json, {},
                                     &why)) {
      return fail("--attack-params: " + why);
    }
  }
  if (s.sstsp.chain_length == 0) {
    // Size the chain to the run, with slack for the coarse/election phases.
    // A live node's interval indices count from the shared epoch, so its
    // chain also covers the time since then.
    double span_s = s.duration_s;
    if (tool == ConfigTool::kNode && o.node.epoch_unix_s >= 0.0) {
      span_s += std::max(0.0, unix_now_s() - o.node.epoch_unix_s);
    }
    s.sstsp.chain_length = static_cast<std::size_t>(span_s * 10.0) + 200;
  }
  if (s.cluster.enabled()) {
    // The cluster layout fixes the node count; --nodes would silently
    // disagree with the cluster-major id arithmetic otherwise.
    s.num_nodes = s.cluster.total_nodes();
  }
  if (tool == ConfigTool::kNode) {
    if (o.node.config.id >= static_cast<mac::NodeId>(s.num_nodes)) {
      return fail("--id must be < --nodes");
    }
    if (o.node.udp.multicast_group.empty() && o.node.udp.peers.empty()) {
      return fail("need at least one --peer or a --multicast group");
    }
  }
  return o;
}

}  // namespace sstsp::run

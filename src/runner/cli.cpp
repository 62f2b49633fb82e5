#include "runner/cli.h"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "attack/adversary.h"
#include "core/discipline.h"
#include "fault/plan.h"
#include "obs/json.h"
#include "runner/config_file.h"

namespace sstsp::run {

bool parse_double(const std::string& s, double* out) {
  try {
    std::size_t used = 0;
    *out = std::stod(s, &used);
    return used == s.size();
  } catch (...) {
    return false;
  }
}

bool parse_int(const std::string& s, long long* out) {
  const char* begin = s.data();
  const char* end = begin + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) parts.push_back(item);
  return parts;
}

FlagParse parse_observer_flag(const std::vector<std::string>& argv,
                              std::size_t& i, ConfigTool tool,
                              obs::ObserverConfig& o, OutputOptions& out,
                              std::string* error) {
  const std::string& arg = argv[i];
  if (arg.rfind("--", 0) != 0) return FlagParse::kNotMine;
  const std::string key = arg == "--monitor=strict" ? "monitor" : arg.substr(2);
  if (!config_key_applies(key, tool)) return FlagParse::kNotMine;

  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return FlagParse::kFailed;
  };
  auto next = [&](std::string* value) {
    if (i + 1 >= argv.size()) return false;
    *value = argv[++i];
    return true;
  };
  // Printing the trace needs a ring that holds the whole run; the streaming
  // outputs (--json-out, --timeline-out) write at record time, so a modest
  // ring suffices for them.
  auto keep_trace = [&o](std::size_t capacity) {
    o.trace_capacity = std::max(o.trace_capacity, capacity);
  };
  std::string v;
  long long n = 0;
  double d = 0;

  if (arg == "--csv") {
    if (!next(&out.csv_path)) return fail("--csv needs a path");
  } else if (arg == "--chart") {
    out.ascii_chart = true;
  } else if (arg == "--trace") {
    out.dump_trace = true;
    keep_trace(1 << 18);
  } else if (arg == "--trace-limit") {
    if (!next(&v) || !parse_int(v, &n) || n < 1) {
      return fail("--trace-limit needs a positive integer");
    }
    out.trace_limit = static_cast<std::size_t>(n);
    out.dump_trace = true;
    keep_trace(1 << 18);
  } else if (arg == "--trace-kind") {
    if (!next(&v)) return fail("--trace-kind needs an event kind");
    const auto kind = trace::kind_from_string(v);
    if (!kind) {
      std::string valid;
      for (int k = 0; k < static_cast<int>(trace::kEventKindCount); ++k) {
        if (!valid.empty()) valid += ", ";
        valid += trace::to_string(static_cast<trace::EventKind>(k));
      }
      return fail("unknown event kind: " + v + " (valid kinds: " + valid +
                  ")");
    }
    out.trace_kind = *kind;
    out.dump_trace = true;
    keep_trace(1 << 18);
  } else if (arg == "--json-out") {
    if (!next(&out.json_out_path)) return fail("--json-out needs a path");
    keep_trace(1 << 12);
  } else if (arg == "--metrics-out") {
    if (!next(&out.metrics_out_path)) {
      return fail("--metrics-out needs a path");
    }
  } else if (arg == "--profile") {
    o.profile = true;
  } else if (arg == "--monitor" || arg == "--monitor=strict") {
    o.monitor = true;
    if (arg == "--monitor=strict") out.monitor_strict = true;
  } else if (arg == "--telemetry-out") {
    if (!next(&o.telemetry_out)) return fail("--telemetry-out needs a path");
  } else if (arg == "--telemetry-interval") {
    if (!next(&v) || !parse_double(v, &d) || d <= 0) {
      return fail("--telemetry-interval needs a positive number of seconds");
    }
    o.telemetry_interval_s = d;
  } else if (arg == "--telemetry-per-node") {
    if (!next(&v) || !parse_int(v, &n) || n < 0 || n > 1) {
      return fail("--telemetry-per-node needs 0 or 1");
    }
    o.telemetry_per_node = static_cast<int>(n);
  } else if (arg == "--flight-recorder") {
    if (!next(&o.flight_recorder_out)) {
      return fail("--flight-recorder needs a path");
    }
  } else if (arg == "--flight-capacity") {
    if (!next(&v) || !parse_int(v, &n) || n < 16) {
      return fail("--flight-capacity needs an integer >= 16");
    }
    o.flight_capacity = static_cast<std::size_t>(n);
  } else if (arg == "--timeline-out") {
    if (!next(&out.timeline_out_path)) {
      return fail("--timeline-out needs a path");
    }
    keep_trace(1 << 12);
  } else if (arg == "--sampler") {
    o.phase_sampler = true;
  } else if (arg == "--sampler-interval") {
    if (!next(&v) || !parse_double(v, &d) || d <= 0) {
      return fail("--sampler-interval needs a positive number of seconds");
    }
    o.phase_sampler_interval_s = d;
    o.phase_sampler = true;
  } else if (arg == "--prom-textfile") {
    if (!next(&out.prom_textfile_path)) {
      return fail("--prom-textfile needs a path");
    }
  } else {
    return FlagParse::kNotMine;
  }
  return FlagParse::kParsed;
}

namespace {

std::optional<ProtocolKind> parse_protocol(const std::string& name) {
  if (name == "tsf") return ProtocolKind::kTsf;
  if (name == "atsp") return ProtocolKind::kAtsp;
  if (name == "tatsp") return ProtocolKind::kTatsp;
  if (name == "satsf") return ProtocolKind::kSatsf;
  if (name == "rentel-kunz" || name == "rk") return ProtocolKind::kRentelKunz;
  if (name == "sstsp") return ProtocolKind::kSstsp;
  return std::nullopt;
}

}  // namespace

std::string cli_usage() {
  return R"(usage: sstsp_sim [options]

scenario:
  --protocol P          tsf | atsp | tatsp | satsf | rentel-kunz | sstsp
                        (default sstsp)
  --nodes N             honest station count (default 100)
  --duration S          simulated seconds (default 200)
  --threads N           run on the sharded parallel kernel with N worker
                        threads (0 = legacy single-threaded kernel);
                        results are bit-identical for any thread count
  --shards N            shard count for the parallel kernel (default: the
                        thread count); pinning it keeps runs with
                        different --threads byte-identical
  --radio-range M       radio range in metres (0 = single-hop: everyone
                        hears everyone; finite ranges enable the spatial
                        partition large runs need)
  --placement-radius M  deployment disc radius in metres (default 50)
  --seed S              RNG seed; identical seeds reproduce bit-exactly
  --paper-env           the paper's §5 environment: 1000 s, 5% churn every
                        200 s, reference departures at 300/500/800 s

protocol parameters:
  --m M                 SSTSP aggressiveness (default 3)
  --l L                 SSTSP missed-beacon tolerance (default 1)
  --guard US            SSTSP base guard time in us
  --chain-length N      µTESLA chain length (default sized to duration)
  --per P               packet error rate (default 1e-4)
  --preestablished      node 0 boots as the SSTSP reference

clock discipline (DESIGN.md §14):
  --discipline NAME     clock-discipline estimator: paper (the §3.3 span
                        solver, default; bit-identical to the legacy path),
                        rls (recursive least squares with forgetting +
                        innovation gating), holdover (paper solver that
                        coasts on the last fitted rate through droughts)
  --discipline-params JSON
                        discipline overrides as a JSON object, same keys as
                        the config "discipline" block (e.g. '{"name":"rls",
                        "window":16,"forgetting":0.98,
                        "innovation-gate":200,"holdover-max-age":32,
                        "span":8,"k-min":0.95,"k-max":1.05}')
  --clock-model KIND    oscillator stressor beyond the paper's constant
                        drift: none (default) | temp-ramp | aging |
                        random-walk
  --clock-model-params JSON
                        stressor overrides, same keys as the config
                        "clock-model" block (e.g. '{"kind":"temp-ramp",
                        "period":1,"ramp-ppm-per-s":0.5,"ramp-start":0,
                        "ramp-end":-1,"aging-ppm-per-day":25,
                        "walk-sigma-ppm":0.25}')

clusters (hierarchical multi-domain sync, SSTSP only; DESIGN.md §13):
  --clusters N          partition the network into N broadcast-domain
                        clusters chained off a root timescale (0 = off);
                        overrides --nodes with clusters * cluster-nodes
  --cluster-nodes K     nodes per cluster, gateways included (default 20)
  --cluster-gateways G  gateway nodes per non-root cluster (default 1)
  --cluster-spacing M   distance between adjacent cluster centers (default
                        45; the geometry contract needs spacing <= range)
  --cluster-radius M    per-cluster placement disc radius (default 14)
  --cluster-phase US    per-depth schedule phase stagger (default 1500)
  --cluster-hop-bound US
                        documented per-gateway-hop error bound; the monitor
                        checks inter-cluster spread <= bound * max depth

environment:
  --churn P,F,A         period_s, fraction, absence_s (e.g. 200,0.05,50)
  --departures T1,T2    reference departure times (SSTSP)

attack:
  --attack NAME         adversary by registry name: tsf-slow, internal-ref,
                        replay, forge, delayed-disclosure
  --attack-window A,B   active interval in seconds (default 400,600)
  --attack-params JSON  adversary-specific overrides as a JSON object
                        (e.g. '{"skew":80,"delay_us":5000}')
  --skew R              internal-ref skew rate in us/s (default 50)

faults:
  --faults PATH         load a fault plan (JSON; see DESIGN.md §9): packet
                        drop/dup/delay/reorder/corrupt directives,
                        partitions, node crash/pause, clock steps/drift
  --faults-json TEXT    the same plan given inline as JSON text

environment overrides:
  --sample-period S     max-diff sampling cadence (default 0.1)
  --max-drift PPM       hardware drift bound (default 100)
  --initial-offset US   initial clock offset bound (default 112)

config:
  --config PATH         load a run config (JSON object; see README "Config
                        files"): scenario keys plus nested "faults" /
                        "attack" objects; flags after --config override the
                        file

output:
  --csv PATH            write the max-clock-difference series as CSV
  --chart               print an ASCII strip chart of the series
  --trace               record and print the newest protocol events
  --trace-limit N       how many events --trace prints (default 40)
  --trace-kind KIND     only print events of KIND (e.g. adjustment,
                        reject-guard; implies --trace)
  --json-out PATH       stream every protocol event as JSON Lines to PATH,
                        terminated by a {"type":"summary"} record
  --metrics-out PATH    write the run's metrics registry (+ profile when
                        --profile) as one JSON document
  --profile             profile the hot paths; prints the per-phase
                        wall-time breakdown and events/sec after the run
  --monitor[=strict]    online invariant monitor + beacon-lifecycle tracing;
                        violations become audit records in the JSON report.
                        strict: exit 3 when any audit record was produced

telemetry (DESIGN.md §10):
  --telemetry-out PATH  append one JSONL telemetry sample per interval:
                        max/mean offset error, beacon funnel rates, engine
                        load, recovery state (schema v1; feed sstsp_tracetool)
  --telemetry-interval S
                        sampling interval in simulated seconds (default 1)
  --telemetry-per-node 0|1
                        attach per-node error arrays to cluster samples
                        (default: auto, on for runs of <= 64 nodes)
  --flight-recorder PATH
                        keep a ring of recent events + samples per run and
                        dump it to PATH on any new audit record class or on
                        SIGUSR1 (JSONL, "flight_seq"-tagged)
  --flight-capacity N   flight-recorder event ring size (default 512)

performance observatory (DESIGN.md §11):
  --timeline-out PATH   write the run as Chrome-trace-event JSON loadable in
                        ui.perfetto.dev: protocol events per node, beacon
                        flow arrows, profiler phase spans (with --profile),
                        fault/audit marks
  --sampler             phase-sampling profiler: sample current phase,
                        event-queue depth and per-phase exclusive time into
                        the metrics registry (see --metrics-out)
  --sampler-interval S  sampling interval in simulated seconds (default
                        0.001; implies --sampler)
  --prom-textfile PATH  dump the final metrics registry in Prometheus text
                        exposition format (node_exporter textfile shape)
  --help                this text
)";
}

std::optional<CliOptions> parse_cli(const std::vector<std::string>& args,
                                    std::string* error) {
  CliOptions opts;
  Scenario& s = opts.scenario;
  s.num_nodes = 100;
  s.duration_s = 200.0;
  bool chain_set = false;
  bool config_loaded = false;

  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };

  // --config splices the file's flags in place, so iterate a mutable copy.
  std::vector<std::string> argv = args;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string arg = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argv.size()) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;

    const FlagParse shared =
        parse_observer_flag(argv, i, ConfigTool::kSim, s, opts, error);
    if (shared == FlagParse::kFailed) return std::nullopt;
    if (shared == FlagParse::kParsed) continue;

    if (arg == "--help" || arg == "-h") {
      opts.help = true;
      return opts;
    } else if (arg == "--protocol") {
      if (!next(&v)) return fail("--protocol needs a value");
      const auto kind = parse_protocol(v);
      if (!kind) return fail("unknown protocol: " + v);
      s.protocol = *kind;
    } else if (arg == "--nodes") {
      long long n = 0;
      if (!next(&v) || !parse_int(v, &n) || n < 1 || n > 1000000) {
        return fail("--nodes needs a positive integer (max 1000000)");
      }
      s.num_nodes = static_cast<int>(n);
    } else if (arg == "--threads") {
      long long n = 0;
      if (!next(&v) || !parse_int(v, &n) || n < 0 || n > 1024) {
        return fail("--threads needs an integer in [0, 1024]");
      }
      s.threads = static_cast<int>(n);
    } else if (arg == "--shards") {
      long long n = 0;
      if (!next(&v) || !parse_int(v, &n) || n < 0 || n > 4096) {
        return fail("--shards needs an integer in [0, 4096]");
      }
      s.shards = static_cast<int>(n);
    } else if (arg == "--radio-range") {
      double m = 0;
      if (!next(&v) || !parse_double(v, &m) || m < 0) {
        return fail("--radio-range needs a distance in metres >= 0");
      }
      s.phy.radio_range_m = m;
    } else if (arg == "--placement-radius") {
      double m = 0;
      if (!next(&v) || !parse_double(v, &m) || m <= 0) {
        return fail("--placement-radius needs a distance in metres > 0");
      }
      s.phy.placement_radius_m = m;
    } else if (arg == "--duration") {
      double d = 0;
      if (!next(&v) || !parse_double(v, &d) || d <= 0) {
        return fail("--duration needs a positive number of seconds");
      }
      s.duration_s = d;
    } else if (arg == "--seed") {
      long long n = 0;
      if (!next(&v) || !parse_int(v, &n)) return fail("--seed needs an integer");
      s.seed = static_cast<std::uint64_t>(n);
    } else if (arg == "--paper-env") {
      s.churn = ChurnSpec{};
      s.duration_s = 1000.0;
      if (s.protocol == ProtocolKind::kSstsp) {
        s.reference_departures_s = {300.0, 500.0, 800.0};
      }
    } else if (arg == "--m") {
      long long n = 0;
      if (!next(&v) || !parse_int(v, &n) || n < 1) {
        return fail("--m needs a positive integer");
      }
      s.sstsp.m = static_cast<int>(n);
    } else if (arg == "--l") {
      long long n = 0;
      if (!next(&v) || !parse_int(v, &n) || n < 1) {
        return fail("--l needs a positive integer");
      }
      s.sstsp.l = static_cast<int>(n);
    } else if (arg == "--guard") {
      double g = 0;
      if (!next(&v) || !parse_double(v, &g) || g <= 0) {
        return fail("--guard needs a positive value in us");
      }
      s.sstsp.guard_fine_us = g;
    } else if (arg == "--chain-length") {
      long long n = 0;
      if (!next(&v) || !parse_int(v, &n) || n < 10) {
        return fail("--chain-length needs an integer >= 10");
      }
      s.sstsp.chain_length = static_cast<std::size_t>(n);
      chain_set = true;
    } else if (arg == "--per") {
      double p = 0;
      if (!next(&v) || !parse_double(v, &p) || p < 0 || p >= 1) {
        return fail("--per needs a probability in [0, 1)");
      }
      s.phy.packet_error_rate = p;
    } else if (arg == "--preestablished") {
      s.preestablished_reference = true;
    } else if (arg == "--discipline") {
      if (!next(&v)) return fail("--discipline needs a name");
      if (!core::discipline_known(v)) {
        std::string valid;
        for (const auto& name : core::discipline_names()) {
          if (!valid.empty()) valid += ", ";
          valid += name;
        }
        return fail("unknown discipline: " + v + " (known: " + valid + ")");
      }
      s.sstsp.discipline.name = v;
    } else if (arg == "--discipline-params") {
      if (!next(&v)) return fail("--discipline-params needs a JSON object");
      const auto parsed = obs::json::parse(v);
      if (!parsed) {
        return fail("--discipline-params is not valid JSON: " + v);
      }
      std::string dsc_error;
      if (!core::apply_discipline_json(*parsed, &s.sstsp, &dsc_error)) {
        return fail("--discipline-params: " + dsc_error);
      }
    } else if (arg == "--clock-model") {
      if (!next(&v)) return fail("--clock-model needs a kind");
      const auto kind = clock_model_kind_from_string(v);
      if (!kind) {
        return fail("unknown clock model: " + v +
                    " (known: none, temp-ramp, aging, random-walk)");
      }
      s.clock_stress.kind = *kind;
    } else if (arg == "--clock-model-params") {
      if (!next(&v)) return fail("--clock-model-params needs a JSON object");
      const auto parsed = obs::json::parse(v);
      if (!parsed) {
        return fail("--clock-model-params is not valid JSON: " + v);
      }
      std::string clk_error;
      if (!apply_clock_model_json(*parsed, &s.clock_stress, &clk_error)) {
        return fail("--clock-model-params: " + clk_error);
      }
    } else if (arg == "--clusters") {
      long long n = 0;
      if (!next(&v) || !parse_int(v, &n) || n < 0 || n > 0x7f) {
        return fail("--clusters needs an integer in [0, 127]");
      }
      s.cluster.clusters = static_cast<int>(n);
    } else if (arg == "--cluster-nodes") {
      long long n = 0;
      if (!next(&v) || !parse_int(v, &n) || n < 2) {
        return fail("--cluster-nodes needs an integer >= 2");
      }
      s.cluster.nodes_per_cluster = static_cast<int>(n);
    } else if (arg == "--cluster-gateways") {
      long long n = 0;
      if (!next(&v) || !parse_int(v, &n) || n < 1) {
        return fail("--cluster-gateways needs a positive integer");
      }
      s.cluster.gateways = static_cast<int>(n);
    } else if (arg == "--cluster-spacing") {
      double m = 0;
      if (!next(&v) || !parse_double(v, &m) || m <= 0) {
        return fail("--cluster-spacing needs a distance in metres > 0");
      }
      s.cluster.spacing_m = m;
    } else if (arg == "--cluster-radius") {
      double m = 0;
      if (!next(&v) || !parse_double(v, &m) || m <= 0) {
        return fail("--cluster-radius needs a distance in metres > 0");
      }
      s.cluster.radius_m = m;
    } else if (arg == "--cluster-phase") {
      double p = 0;
      if (!next(&v) || !parse_double(v, &p) || p < 0) {
        return fail("--cluster-phase needs a us value >= 0");
      }
      s.cluster.phase_us = p;
    } else if (arg == "--cluster-hop-bound") {
      double b = 0;
      if (!next(&v) || !parse_double(v, &b) || b <= 0) {
        return fail("--cluster-hop-bound needs a positive us value");
      }
      s.cluster.hop_bound_us = b;
    } else if (arg == "--churn") {
      if (!next(&v)) return fail("--churn needs period,fraction,absence");
      const auto parts = split(v, ',');
      ChurnSpec churn;
      if (parts.size() != 3 || !parse_double(parts[0], &churn.period_s) ||
          !parse_double(parts[1], &churn.fraction) ||
          !parse_double(parts[2], &churn.absence_s)) {
        return fail("--churn needs period,fraction,absence");
      }
      s.churn = churn;
    } else if (arg == "--departures") {
      if (!next(&v)) return fail("--departures needs t1,t2,...");
      s.reference_departures_s.clear();
      for (const auto& part : split(v, ',')) {
        double t = 0;
        if (!parse_double(part, &t)) {
          return fail("--departures needs numeric times");
        }
        s.reference_departures_s.push_back(t);
      }
    } else if (arg == "--attack") {
      if (!next(&v)) return fail("--attack needs a kind");
      if (!attack::adversary_known(v)) {
        std::string valid;
        for (const auto& name : attack::adversary_names()) {
          if (!valid.empty()) valid += ", ";
          valid += name;
        }
        return fail("unknown attack: " + v + " (known: " + valid + ")");
      }
      s.attack = v;
    } else if (arg == "--attack-params") {
      if (!next(&v)) return fail("--attack-params needs a JSON object");
      if (!obs::json::parse(v)) {
        return fail("--attack-params is not valid JSON: " + v);
      }
      s.attack_params_json = v;
    } else if (arg == "--faults") {
      if (!next(&v)) return fail("--faults needs a path");
      std::string plan_error;
      const auto plan = fault::load_plan(v, &plan_error);
      if (!plan) return fail(plan_error);
      s.faults = *plan;
    } else if (arg == "--faults-json") {
      if (!next(&v)) return fail("--faults-json needs JSON text");
      std::string plan_error;
      const auto plan = fault::parse_plan_text(v, &plan_error);
      if (!plan) return fail("--faults-json: " + plan_error);
      s.faults = *plan;
    } else if (arg == "--sample-period") {
      double p = 0;
      if (!next(&v) || !parse_double(v, &p) || p <= 0) {
        return fail("--sample-period needs a positive number of seconds");
      }
      s.sample_period_s = p;
    } else if (arg == "--max-drift") {
      double p = 0;
      if (!next(&v) || !parse_double(v, &p) || p < 0) {
        return fail("--max-drift needs a ppm value >= 0");
      }
      s.max_drift_ppm = p;
    } else if (arg == "--initial-offset") {
      double p = 0;
      if (!next(&v) || !parse_double(v, &p) || p < 0) {
        return fail("--initial-offset needs a us value >= 0");
      }
      s.initial_offset_us = p;
    } else if (arg == "--attack-window") {
      if (!next(&v)) return fail("--attack-window needs start,end");
      const auto parts = split(v, ',');
      double a = 0;
      double b = 0;
      if (parts.size() != 2 || !parse_double(parts[0], &a) ||
          !parse_double(parts[1], &b) || b <= a) {
        return fail("--attack-window needs start,end with end > start");
      }
      s.tsf_attack.start_s = a;
      s.tsf_attack.end_s = b;
      s.sstsp_attack.start_s = a;
      s.sstsp_attack.end_s = b;
    } else if (arg == "--skew") {
      double r = 0;
      if (!next(&v) || !parse_double(v, &r)) {
        return fail("--skew needs a rate in us/s");
      }
      s.sstsp_attack.skew_rate_us_per_s = r;
    } else if (arg == "--config") {
      if (!next(&v)) return fail("--config needs a path");
      if (config_loaded) return fail("--config may be given only once");
      config_loaded = true;
      std::string cfg_error;
      const auto cfg_args = load_config_args(v, ConfigTool::kSim, &cfg_error);
      if (!cfg_args) return fail(cfg_error);
      argv.insert(argv.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  cfg_args->begin(), cfg_args->end());
    } else {
      return fail("unknown option: " + arg);
    }
  }

  if (!chain_set) {
    // Size the chain to the run, with slack for the coarse/election phases.
    s.sstsp.chain_length =
        static_cast<std::size_t>(s.duration_s * 10.0) + 200;
  }
  if (s.cluster.enabled()) {
    // The cluster layout fixes the node count; --nodes would silently
    // disagree with the cluster-major id arithmetic otherwise.
    s.num_nodes = s.cluster.total_nodes();
  }
  return opts;
}

}  // namespace sstsp::run

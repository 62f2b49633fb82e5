// perfbench_rep — one repetition of one benchmark workload.
//
// Builds the workload's network through the public run::Network /
// run::ParallelNetwork constructors, runs it, collects it through
// run::collect_result, checks the simulated outcome and prints one JSON
// object on stdout: host timings, simulated results, a digest of the
// simulated statistics, the check verdict and, with --trace, the per-layer
// split.  perfbench/run.py drives repetitions of this program and reduces
// them to the benchmark's metrics; see perfbench/README.md.
//
// Usage:
//   perfbench_rep --workload NAME --seed N [--trace] [--threads T]
//                 [--horizon S] [--observers 0|1] [--setups K]
//                 [--out-dir DIR]
//
// --horizon shortens the simulated run (self-test), --threads overrides the
// sharded workload's worker count (its shard count stays pinned, so the
// simulated output must not change), --observers 0 switches the monitor,
// telemetry and flight recorder off (the paired obs.self_s measurement),
// --setups K constructs the network K times and reports the fastest
// construction time as setup_s.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "runner/experiment.h"
#include "runner/network.h"
#include "runner/parallel_network.h"
#include "runner/scenario.h"

namespace {

using namespace sstsp;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  bool trace{false};
  int threads{-1};
  double horizon_s{-1.0};
  bool observers{true};
  int setups{1};
  std::string out_dir{"."};
};

// ---------------------------------------------------------------- workloads

run::Scenario paper_fig4(std::uint64_t seed) {
  // bench/fig4_sstsp_attack: the paper's §5 environment (churn, reference
  // departures at 300/500/800 s) with an internal attacker holding the
  // reference role over 400-600 s.  Monitor off: strict mode flags two
  // transient reference-uniqueness warnings at the t=300 s re-election.
  auto s = run::Scenario::paper_section5(run::ProtocolKind::kSstsp, 500, seed);
  s.attack = "internal-ref";
  s.sstsp_attack.start_s = 400.0;
  s.sstsp_attack.end_s = 600.0;
  return s;
}

run::Scenario spatial_100k(std::uint64_t seed, int threads) {
  // Dense-contention stress on the sharded kernel (perf_smoke's n=100k
  // lane): never converges, so its check is determinism, not sync.  One
  // worker thread by default: on a shared 4-core host the wall time of 3
  // workers swung by 40 % over ten runs as other tenants' load came and
  // went, since every preempted worker stalls the window barrier.  0.5
  // simulated s keeps a rep near 7 s with contention and elections under
  // way.
  run::Scenario s;
  s.protocol = run::ProtocolKind::kSstsp;
  s.num_nodes = 100000;
  s.duration_s = 0.5;
  s.seed = seed;
  s.sstsp.chain_length = 64;
  s.phy.radio_range_m = 25.0;
  s.phy.placement_radius_m = 50.0 * std::sqrt(s.num_nodes / 100.0);
  s.shards = 8;
  s.threads = threads;
  return s;
}

// The chained-cluster layer raises reference-uniqueness audits on some
// deployments (seeds 1 and 3-6, for instance), so the workload pins one
// audit-clean deployment and draws the fault plan's loss stream from the
// seed instead.
constexpr std::uint64_t kClusterDeploymentSeed = 2006;

// Gateway of cluster 1: its bridge announcements carry the root timescale
// to cluster 2.
constexpr mac::NodeId kClusterGateway = 20;

run::Scenario cluster_faults(std::uint64_t seed, bool observers,
                             const std::string& out_dir) {
  // Three chained clusters of 20 with established references, under a fault
  // plan that exercises re-attach (gateway crash), re-election (reference
  // crash) and bridge-link loss, with every observer on.  The 5 % loss is
  // confined to the gateway's frames: network-wide, it makes members miss
  // l+1 consecutive reference beacons and the monitor then records
  // reference-uniqueness warnings on about half the seeds.
  run::Scenario s;
  s.cluster.clusters = 3;
  s.cluster.nodes_per_cluster = 20;
  s.num_nodes = s.cluster.total_nodes();
  s.duration_s = 600.0;
  s.seed = kClusterDeploymentSeed;
  s.phy.radio_range_m = 50.0;
  s.preestablished_reference = true;
  s.sstsp.chain_length = static_cast<std::size_t>(s.duration_s * 10.0) + 200;

  s.faults.seed = seed;
  fault::PacketFault drop;
  drop.kind = fault::PacketFaultKind::kDrop;
  drop.probability = 0.05;
  drop.start_s = 100.0;
  drop.end_s = 140.0;
  drop.from = kClusterGateway;
  s.faults.packet.push_back(drop);
  fault::NodeFault gateway;
  gateway.node = kClusterGateway;
  gateway.at_s = 120.0;
  gateway.restart_s = 126.0;
  s.faults.node_faults.push_back(gateway);
  fault::NodeFault reference;
  reference.reference = true;
  reference.at_s = 300.0;
  s.faults.node_faults.push_back(reference);

  if (observers) {
    s.monitor = true;
    s.telemetry_out = out_dir + "/cluster-faults.telemetry.jsonl";
    s.telemetry_interval_s = 1.0;
    s.flight_recorder_out = out_dir + "/cluster-faults.flight.jsonl";
  }
  return s;
}

std::optional<run::Scenario> make_scenario(const Options& opt) {
  std::optional<run::Scenario> s;
  if (opt.workload == "paper-fig4") {
    s = paper_fig4(opt.seed);
  } else if (opt.workload == "spatial-100k") {
    s = spatial_100k(opt.seed, opt.threads > 0 ? opt.threads : 1);
  } else if (opt.workload == "cluster-faults") {
    s = cluster_faults(opt.seed, opt.observers, opt.out_dir);
  }
  if (!s) return s;
  if (opt.horizon_s > 0.0) {
    s->duration_s = std::min(s->duration_s, opt.horizon_s);
  }
  // Untraced runs measure the bare hot path; the traced run switches on the
  // program's own profiler and metrics registry.
  s->collect_metrics = opt.trace;
  s->profile = opt.trace;
  return s;
}

// ------------------------------------------------------------------ timing

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double vm_hwm_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double secs(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ------------------------------------------------------------------ digest

// FNV-1a over the simulated statistics.  Host quantities never enter it, so
// it is equal for equal simulated output on any host, thread count or
// tracing mode.  The audit report stays out too: with the observers off
// there is none, and the digest must show that observing changed nothing.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const metrics::Series& series) {
    add(static_cast<std::uint64_t>(series.points().size()));
    for (const auto& p : series.points()) {
      add(p.t_s);
      add(p.value_us);
    }
  }
  void add(const proto::ProtocolStats& s) {
    for (const std::uint64_t v :
         {s.beacons_sent, s.beacons_received, s.adoptions, s.adjustments,
          s.rejected_interval, s.rejected_key, s.rejected_mac,
          s.rejected_guard, s.elections_won, s.demotions, s.coarse_steps,
          s.solver_rejections}) {
      add(v);
    }
  }
  /// Folded to 52 bits so a JSON number carries it exactly.
  [[nodiscard]] std::uint64_t value() const {
    return (h_ ^ (h_ >> 52)) & ((std::uint64_t{1} << 52) - 1);
  }

 private:
  std::uint64_t h_{0xcbf29ce484222325ull};
};

std::uint64_t digest_of(const run::RunResult& r) {
  Digest d;
  d.add(static_cast<std::uint64_t>(r.events_processed));
  for (const std::uint64_t v :
       {r.channel.transmissions, r.channel.collided_transmissions,
        r.channel.deliveries, r.channel.per_drops,
        r.channel.half_duplex_suppressed, r.channel.bytes_on_air}) {
    d.add(v);
  }
  d.add(r.honest);
  if (r.attacker) d.add(*r.attacker);
  d.add(r.max_diff);
  d.add(r.cluster_spread);
  d.add(r.attach_fraction);
  if (r.recovery) {
    for (const auto& rec : r.recovery->records) {
      d.add(rec.fault_t_s);
      d.add(rec.reelection_s);
      d.add(rec.reattach_s);
      d.add(rec.resync_s);
      d.add(static_cast<std::uint64_t>(rec.recovered));
    }
    d.add(r.recovery->packet_faults.drops);
  }
  return d.value();
}

// -------------------------------------------------------------------- JSON

// Key and value, or null when the value is absent.
void kv_opt(obs::json::Writer& w, std::string_view key,
            std::optional<double> v) {
  if (v) {
    w.kv(key, *v);
  } else {
    w.kv_null(key);
  }
}

// ------------------------------------------------------------------- check

struct Check {
  bool ok{true};
  std::string why;

  void require(bool cond, const std::string& what) {
    if (cond) return;
    ok = false;
    if (!why.empty()) why += "; ";
    why += what;
  }
};

double worst_recovery_s(const run::RunResult& r) {
  double worst = 0.0;
  if (!r.recovery) return worst;
  for (const auto& rec : r.recovery->records) {
    worst = std::max({worst, rec.reelection_s, rec.reattach_s, rec.resync_s});
  }
  return worst;
}

// Limit on the honest max clock difference while the internal attacker
// holds the reference role (paper Fig. 4: biased, never desynchronized).
// Seeds 1-10 peak at 15-24 us, the 500 s reference departure included.
constexpr double kAttackWindowLimitUs = 2.0 * run::kSyncThresholdUs;

Check check_result(const std::string& workload, const run::Scenario& s,
                   const run::RunResult& r) {
  Check c;
  c.require(r.events_processed > 0, "no events dispatched");
  if (workload == "paper-fig4") {
    c.require(r.sync_latency_s.has_value(), "never synchronized");
    const double a = s.sstsp_attack.start_s;
    const double b = std::min(s.sstsp_attack.end_s, s.duration_s);
    if (b > a) {
      const auto mx = r.max_diff.max_in(a, b);
      c.require(mx.has_value() && *mx < kAttackWindowLimitUs,
                "max diff unbounded during the attack window");
    }
  } else if (workload == "spatial-100k") {
    // Its main check is determinism, judged across reps by run.py; here only
    // that the stress ran at all.
    c.require(r.channel.transmissions > 0 && r.channel.deliveries > 0,
              "no frames transmitted or delivered");
  } else if (workload == "cluster-faults") {
    if (r.audit) {
      std::string records;
      for (const auto& rec : r.audit->records) {
        std::ostringstream one;
        one << ' ' << obs::to_string(rec.kind) << "@node" << rec.node << "/t"
            << rec.first_t_s;
        records += one.str();
      }
      c.require(r.audit->clean(),
                "invariant monitor raised audit records:" + records);
    }
    c.require(r.recovery.has_value(), "no recovery report");
    if (r.recovery) {
      for (const auto& rec : r.recovery->records) {
        if (rec.fault_t_s < s.duration_s) {
          c.require(rec.recovered, "fault '" + rec.fault + "' never recovered");
        }
      }
    }
    const double bound = s.cluster.cross_cluster_bound_us();
    c.require(r.cluster_steady_max_us.has_value() &&
                  *r.cluster_steady_max_us <= bound,
              "inter-cluster spread exceeds hop bound x depth");
  }
  return c;
}

// ------------------------------------------------------------ per-layer split

struct Phases {
  double dispatch_ns{0}, mac_ns{0}, crypto_ns{0}, core_ns{0}, total_ns{0};
  std::uint64_t crypto_calls{0};
};

Phases phases_of(const run::RunResult& r) {
  Phases p;
  if (!r.profile) return p;
  const auto& ph = r.profile->phases;
  const auto at = [&](obs::Phase f) {
    return ph[static_cast<std::size_t>(f)];
  };
  p.dispatch_ns = static_cast<double>(at(obs::Phase::kDispatch).exclusive_ns);
  p.mac_ns = static_cast<double>(at(obs::Phase::kChannelDelivery).exclusive_ns);
  p.crypto_ns = static_cast<double>(at(obs::Phase::kCryptoVerify).exclusive_ns);
  p.core_ns = static_cast<double>(at(obs::Phase::kFilterEval).exclusive_ns);
  p.total_ns = static_cast<double>(r.profile->total_ns);
  p.crypto_calls = at(obs::Phase::kCryptoVerify).spans;
  return p;
}

std::uint64_t counter(const obs::RegistrySnapshot& m, const std::string& name) {
  for (const auto& [k, v] : m.counters) {
    if (k == name) return v;
  }
  return 0;
}

double gauge(const obs::RegistrySnapshot& m, const std::string& name) {
  for (const auto& [k, v] : m.gauges) {
    if (k == name) return v;
  }
  return 0.0;
}

obs::HistogramSnapshot histogram(const obs::RegistrySnapshot& m,
                                 const std::string& name) {
  for (const auto& [k, v] : m.histograms) {
    if (k == name) return v;
  }
  return {};
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Spans {
  std::uint64_t build_ns{0};
  std::uint64_t arm_ns{0};
  std::uint64_t run_ns{0};
  std::uint64_t collect_ns{0};
  std::uint64_t total_ns{0};
  /// Legacy kernel: sum of the individually timed Simulator::step calls.
  std::uint64_t steps_ns{0};
  obs::Histogram step_ns;
};

void emit_layers(obs::json::Writer& out, const run::Scenario& s,
                 const run::RunResult& r, const Spans& sp, bool sharded) {
  const Phases p = phases_of(r);
  const auto events = static_cast<double>(r.events_processed);
  const auto deliveries = static_cast<double>(r.channel.deliveries);

  // Time spent inside the kernel but outside every profiled callback:
  // event-queue operations and the window loop.  On the legacy kernel the
  // benchmark times each step; on the sharded kernel the executor's busy
  // time per shard is the enclosing span.
  double kernel_ns = static_cast<double>(sp.steps_ns);
  double shard_busy_ns = 0.0;
  double phase_wall_ns = 0.0;
  if (sharded) {
    for (int i = 0; i < s.shards; ++i) {
      shard_busy_ns +=
          gauge(r.metrics, "shard." + std::to_string(i) + ".busy_ns");
    }
    phase_wall_ns = gauge(r.metrics, "shard.phase_wall_ns");
    kernel_ns = shard_busy_ns;
  }
  // Worker-thread time inside the parallel phases not spent on shard work.
  // The executor's per-shard wait (phase wall minus that shard's busy time)
  // would count, on one thread, the other shards' turns as waiting.
  const double barrier_wait_ns = std::max(
      0.0, static_cast<double>(std::max(1, s.threads)) * phase_wall_ns -
               shard_busy_ns);
  const double queue_ns = std::max(0.0, kernel_ns - p.total_ns);
  const double attributed_ns = p.total_ns + queue_ns;

  out.kv("runner.build_s", secs(sp.build_ns));
  out.kv("runner.arm_s", secs(sp.arm_ns));
  out.kv("runner.collect_s", secs(sp.collect_ns));

  out.kv("sim.events", r.events_processed);
  out.kv("sim.events_per_delivery", ratio(events, deliveries));
  out.kv("sim.dispatch_self_ns_per_event", ratio(p.dispatch_ns, events));
  out.kv("sim.queue_self_ns_per_event", ratio(queue_ns, events));
  const auto depth = histogram(r.metrics, "sim.event_queue_depth");
  out.kv("sim.queue_depth_p50", depth.p50);
  out.kv("sim.queue_depth_p99", depth.p99);
  out.kv("sim.step_ns_p50", sp.step_ns.quantile(0.50));
  out.kv("sim.step_ns_p99", sp.step_ns.quantile(0.99));
  out.kv("sim.wall_share", ratio(p.dispatch_ns + queue_ns, attributed_ns));

  out.kv("mac.transmissions", r.channel.transmissions);
  out.kv("mac.deliveries", r.channel.deliveries);
  out.kv("mac.collided_share",
         ratio(static_cast<double>(r.channel.collided_transmissions),
               static_cast<double>(r.channel.transmissions)));
  out.kv("mac.delivery_self_ns_per_delivery", ratio(p.mac_ns, deliveries));
  out.kv("mac.wall_share", ratio(p.mac_ns, attributed_ns));

  const auto rx = static_cast<double>(counter(r.metrics, "event.beacon-rx"));
  const auto auth_ok = static_cast<double>(counter(r.metrics, "event.auth-ok"));
  out.kv("crypto.verifies", p.crypto_calls);
  out.kv("crypto.verify_self_ns_per_call",
         ratio(p.crypto_ns, static_cast<double>(p.crypto_calls)));
  out.kv("crypto.auth_ok_ratio", ratio(auth_ok, rx));
  out.kv("crypto.rejects", r.honest.rejected_key + r.honest.rejected_mac);
  out.kv("crypto.wall_share", ratio(p.crypto_ns, attributed_ns));

  out.kv("core.adjustments", r.honest.adjustments);
  out.kv("core.solve_self_ns_per_adjust",
         ratio(p.core_ns, static_cast<double>(r.honest.adjustments)));
  out.kv("core.elections", r.honest.elections_won);
  out.kv("core.coarse_steps", r.honest.coarse_steps);
  out.kv("core.guard_rejects", r.honest.rejected_guard);
  out.kv("core.wall_share", ratio(p.core_ns, attributed_ns));

  const auto windows = static_cast<double>(counter(r.metrics, "shard.windows"));
  out.kv("shard.windows", windows);
  out.kv("shard.events_per_window", ratio(events, windows));
  out.kv("shard.busy_s", shard_busy_ns * 1e-9);
  out.kv("shard.barrier_wait_s", barrier_wait_ns * 1e-9);
  out.kv("shard.imbalance", gauge(r.metrics, "shard.imbalance"));
  out.kv("shard.serial_s",
         sharded ? std::max(0.0, secs(sp.run_ns) - phase_wall_ns * 1e-9)
                 : 0.0);

  out.kv("obs.audit_records", r.audit ? r.audit->records.size() : 0);
  std::uint64_t drops = 0;
  double recovered = 0.0;
  if (r.recovery) {
    const auto& pf = r.recovery->packet_faults;
    drops = pf.drops + pf.partition_drops + pf.isolation_drops;
    std::size_t ok = 0;
    for (const auto& rec : r.recovery->records) ok += rec.recovered ? 1 : 0;
    recovered = ratio(static_cast<double>(ok),
                      static_cast<double>(r.recovery->records.size()));
  }
  out.kv("fault.packet_drops", drops);
  out.kv("fault.recovered_share", recovered);
  double attach_min = 0.0;
  if (!r.attach_fraction.empty()) {
    attach_min = 1.0;
    for (const auto& pt : r.attach_fraction.points()) {
      if (pt.t_s >= 20.0) attach_min = std::min(attach_min, pt.value_us);
    }
  }
  out.kv("cluster.attach_fraction_min", attach_min);

  // Share of the rep's wall time covered by the benchmark's spans and the
  // measured kernel time (sharded: the executor's parallel phase wall).
  const double covered =
      static_cast<double>(sp.build_ns + sp.arm_ns + sp.collect_ns) +
      (sharded ? phase_wall_ns : static_cast<double>(sp.steps_ns));
  out.kv("trace.attributed_share",
         ratio(covered, static_cast<double>(sp.total_ns)));
}

// --------------------------------------------------------------------- run

struct Timed {
  run::RunResult result;
  Spans spans;
  double setup_s{0.0};  ///< fastest of the constructions
  double cpu_s{0.0};    ///< process CPU seconds of the run phase
  /// Wall and CPU seconds of the run phase, slice by slice (one slice when
  /// the run is not sliced); they sum to run_s and cpu_s.
  std::vector<double> slice_wall_s;
  std::vector<double> slice_cpu_s;
};

// Simulated time slices of an untraced legacy-kernel run.  Reps of one seed
// execute the same events in each slice, so run.py can compare their host
// times slice by slice; 15-35 ms of wall each on the legacy workloads.
constexpr int kSlices = 200;

// Constructs the network `setups` times (each previous one destroyed first)
// and keeps the last; the fastest construction is the rep's setup_s.  The
// legacy networks build in 40-400 us, and the median of a burst moved by up
// to 1.5x with the host's load from run to run, so the rep keeps the
// construction least disturbed by it.
template <typename Net>
std::unique_ptr<Net> build(const run::Scenario& s, int setups, Timed& t,
                           std::uint64_t& last_start) {
  std::unique_ptr<Net> net;
  for (int i = 0; i < std::max(1, setups); ++i) {
    net.reset();
    last_start = now_ns();
    net = std::make_unique<Net>(s);
    t.spans.build_ns = now_ns() - last_start;
    const double took = secs(t.spans.build_ns);
    t.setup_s = i == 0 ? took : std::min(t.setup_s, took);
  }
  return net;
}

// Simulator::run_until, one timed step at a time, aggregated into a
// histogram rather than a span per event.  One clock read per step: each
// step's interval starts where the previous one ended, so it also carries
// the previous record() (a few ns of the ~1 us steps).
void run_stepped(run::Network& net, double horizon_s, Spans& sp) {
  sim::Simulator& sim = net.simulator();
  const auto horizon = sim::SimTime::from_sec_double(horizon_s);
  std::uint64_t a = now_ns();
  for (;;) {
    const bool fired = sim.step(horizon);
    const std::uint64_t b = now_ns();
    if (!fired) break;
    sp.step_ns.record(static_cast<double>(b - a));
    sp.steps_ns += b - a;
    a = b;
  }
  sim.advance_to(horizon);
}

// Network::run as kSlices run_until calls (the first one arms), each timed.
void run_sliced(run::Network& net, double horizon_s, Timed& t) {
  std::uint64_t a = now_ns();
  double c = process_cpu_s();
  for (int k = 1; k <= kSlices; ++k) {
    net.run_until(k == kSlices ? horizon_s : horizon_s * k / kSlices);
    const std::uint64_t b = now_ns();
    const double d = process_cpu_s();
    t.slice_wall_s.push_back(secs(b - a));
    t.slice_cpu_s.push_back(d - c);
    a = b;
    c = d;
  }
}

template <typename Net>
Timed run_timed(const run::Scenario& s, const Options& opt) {
  Timed t;
  std::uint64_t t0 = 0;
  auto net = build<Net>(s, opt.setups, t, t0);
  const std::uint64_t t1 = now_ns();
  const double cpu0 = process_cpu_s();
  if constexpr (std::is_same_v<Net, run::Network>) {
    if (opt.trace) {
      net->arm();
      t.spans.arm_ns = now_ns() - t1;
      run_stepped(*net, s.duration_s, t.spans);
    } else {
      run_sliced(*net, s.duration_s, t);
    }
  } else {
    net->run();  // the sharded network arms itself
  }
  t.cpu_s = process_cpu_s() - cpu0;
  const std::uint64_t t2 = now_ns();
  t.spans.run_ns = t2 - t1;
  if (t.slice_wall_s.empty()) {
    t.slice_wall_s.push_back(secs(t.spans.run_ns));
    t.slice_cpu_s.push_back(t.cpu_s);
  }
  t.result = run::collect_result(*net, secs(t.spans.run_ns));
  t.spans.collect_ns = now_ns() - t2;
  t.spans.total_ns = now_ns() - t0;
  return t;
}

int run_rep(const Options& opt) {
  const auto scenario = make_scenario(opt);
  if (!scenario) {
    std::cerr << "unknown workload: " << opt.workload << '\n';
    return 2;
  }
  const run::Scenario& s = *scenario;
  const bool sharded = s.threads > 0 || s.shards > 0;
  const Timed t = sharded ? run_timed<run::ParallelNetwork>(s, opt)
                          : run_timed<run::Network>(s, opt);
  const run::RunResult& r = t.result;
  const Spans& sp = t.spans;

  const Check check = check_result(opt.workload, s, r);
  const double run_s = secs(sp.run_ns);

  obs::json::Writer out(std::cout);
  out.begin_object();
  out.kv("workload", opt.workload);
  out.kv("seed", opt.seed);
  out.kv("threads", std::max(0, s.threads));
  out.kv("horizon_s", s.duration_s);
  out.kv("traced", opt.trace);
  out.kv("observers", opt.observers);
  out.kv("check_ok", check.ok);
  out.kv("check_why", check.why);
  out.kv("digest", digest_of(r));
  out.kv("setup_s", t.setup_s);
  out.kv("run_s", run_s);
  out.kv("cpu_s", t.cpu_s);
  out.kv("peak_rss_mb", vm_hwm_mb());
  out.kv("node_s", static_cast<double>(s.num_nodes) * s.duration_s);
  for (const auto& [key, slices] :
       {std::pair{"slice_wall_s", &t.slice_wall_s},
        std::pair{"slice_cpu_s", &t.slice_cpu_s}}) {
    out.key(key).begin_array();
    for (const double v : *slices) out.value(v);
    out.end_array();
  }
  kv_opt(out, "sync_latency_s", r.sync_latency_s);
  kv_opt(out, "attack_max_us",
         s.attack.empty() ? std::nullopt
                          : r.max_diff.max_in(s.sstsp_attack.start_s,
                                              s.sstsp_attack.end_s));
  kv_opt(out, "steady_max_us", r.steady_max_us);
  kv_opt(out, "cluster_spread_us", r.cluster_steady_max_us);
  kv_opt(out, "recovery_s",
         r.recovery ? std::optional<double>(worst_recovery_s(r))
                    : std::nullopt);
  out.kv("audit_records", r.audit ? r.audit->records.size() : 0);
  out.kv("events", r.events_processed);
  out.kv("transmissions", r.channel.transmissions);
  out.kv("collisions", r.channel.collided_transmissions);
  out.kv("deliveries", r.channel.deliveries);
  out.kv("adjustments", r.honest.adjustments);
  out.kv("elections", r.honest.elections_won);
  if (opt.trace) emit_layers(out, s, r, sp, sharded);
  out.end_object();
  std::cout << std::endl;
  return 0;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--trace") {
      opt.trace = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return false;
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--threads") {
      opt.threads = std::atoi(v);
    } else if (arg == "--horizon") {
      opt.horizon_s = std::strtod(v, nullptr);
    } else if (arg == "--observers") {
      opt.observers = std::strcmp(v, "0") != 0;
    } else if (arg == "--setups") {
      opt.setups = std::atoi(v);
    } else if (arg == "--out-dir") {
      opt.out_dir = v;
    } else {
      return false;
    }
  }
  return !opt.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::cerr << "usage: perfbench_rep --workload NAME --seed N [--trace] "
                 "[--threads T] [--horizon S] [--observers 0|1] "
                 "[--setups K] [--out-dir DIR]\n";
    return 2;
  }
  try {
    return run_rep(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_rep: " << e.what() << '\n';
    return 1;
  }
}

// The usage texts of sstsp_sim, sstsp_swarm and sstsp_node (--help and
// parse failures).  tests/runner_cli_test.cpp checks that each names
// exactly the flags the table in cli.cpp gives its tool.
#include "runner/cli.h"

namespace sstsp::run {

namespace {

constexpr const char* kSimUsage = R"(usage: sstsp_sim [options]

scenario:
  --protocol P          tsf | atsp | tatsp | satsf | rentel-kunz | sstsp
                        (default sstsp)
  --nodes N             honest station count (default 100)
  --duration S          simulated seconds (default 200)
  --threads N           run on the sharded parallel kernel with N worker
                        threads (0 = legacy single-threaded kernel); it
                        takes every flag the legacy kernel takes, and its
                        output is bit-identical for any thread and shard
                        count (--profile / --sampler figures aside)
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
  --attack-params JSON  overrides as a JSON object of numbers, only keys
                        the --attack adversary reads (README "Config
                        files"; e.g. internal-ref '{"skew":80}')
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

constexpr const char* kSwarmUsage = R"(usage: sstsp_swarm [options]

deployment:
  --nodes N             node count (default 5)
  --duration S          run length in seconds (default 10)
  --seed S              deployment seed: trust anchors, emulated clocks,
                        loopback latency draws
  --transport T         udp (real sockets on 127.0.0.1, wall-clock paced)
                        or loopback (in-process hub, virtual time,
                        bit-reproducible); default udp
  --bind ADDR           UDP bind address (default 127.0.0.1)
  --base-port P         UDP: node i binds P+i (default 0 = ephemeral)
  --latency MIN,MAX     loopback one-way latency bounds in us (default
                        35,45)
  --wire-latency US     expected one-way wire latency compensated on
                        receive (default: loopback model midpoint, or 10
                        for UDP)
  --diverge-threshold US  monitor's Lemma-1 divergence bound (default: 50,
                        or 150 for wall-paced UDP — see DESIGN.md "Live
                        stack" on emulation noise)

protocol:
  --m M                 SSTSP aggressiveness (default 3)
  --l L                 missed-beacon tolerance (default 1)
  --guard US            base guard time in us
  --chain-length N      µTESLA chain length (default sized to duration)
  --max-drift PPM       emulated oscillator drift bound (default 100)
  --initial-offset US   emulated initial offset bound (default 112)
  --preestablished      node 0 boots as the reference
  --sample-period S     max-offset sampling cadence (default 0.1)
  --discipline NAME     clock discipline: paper (default) | rls | holdover
  --discipline-params JSON
                        discipline overrides (same keys as the config
                        "discipline" block; see sstsp_sim --help)

faults:
  --faults PATH         load a fault plan (JSON; same format as sstsp_sim):
                        packet faults apply per arriving datagram, node
                        crash/pause stop/start nodes, clock faults step the
                        emulated oscillators
  --faults-json TEXT    the same plan given inline as JSON text

config:
  --config PATH         load flags from a flat JSON object ({"nodes": 5});
                        flags after --config override the file

output (same semantics as sstsp_sim):
  --csv PATH, --chart, --trace, --trace-limit N, --trace-kind KIND,
  --json-out PATH, --metrics-out PATH, --profile, --monitor[=strict]

telemetry (same schema as sstsp_sim; DESIGN.md §10):
  --telemetry-out PATH  aggregate JSONL stream: cluster samples
                        (source "swarm") + per-node samples published by
                        every node — over a datagram socket on the reactor
                        in UDP mode, in-process on loopback
  --telemetry-interval S  sampling interval in seconds (default 1)
  --telemetry-per-node 0|1  per-node error arrays on cluster samples
                        (default auto: on for <= 64 nodes)
  --flight-recorder PATH  ring of recent events + samples, dumped on new
                        audit record classes, unplanned node failures and
                        SIGUSR1
  --flight-capacity N   flight-recorder event ring size (default 512)
  --watch               live status line on stderr, one refresh per
                        telemetry interval (wall-paced runs)

performance observatory (DESIGN.md §11):
  --timeline-out PATH   write the run as Chrome-trace-event JSON loadable
                        in ui.perfetto.dev (protocol events per node,
                        beacon flow arrows, profiler spans with --profile)
  --sampler             phase-sampling profiler into the metrics registry;
                        wall-paced runs add a SIGPROF statistical sampler
  --sampler-interval S  sampling interval in seconds (default 0.001;
                        implies --sampler)
  --prom-textfile PATH  dump the final metrics registry in Prometheus text
                        exposition format
  --prom-port P         serve a live /metrics endpoint on 127.0.0.1:P from
                        the reactor (udp transport only; 0 = ephemeral,
                        the chosen port is printed at startup)

checks:
  --expect-sync         exit 4 unless a reference holds the role and the
                        final max pairwise adjusted-clock offset is under
                        the guard threshold (CI smoke)
  --help                this text
)";

constexpr const char* kNodeUsage = R"(usage: sstsp_node [options]

identity:
  --id N                this node's id in [0, nodes) (default 0)
  --nodes N             deployment size; every process must agree
                        (default 5)
  --seed S              deployment seed: trust anchors + emulated clocks;
                        every process must agree (default 1)
  --duration S          run length in seconds (default 10)

endpoint (unicast mesh):
  --bind ADDR           bind address (default 0.0.0.0)
  --port P              bind port (default 0 = ephemeral; print and wire
                        peers by hand, or use fixed ports)
  --peer HOST:PORT      a peer endpoint; repeatable

endpoint (multicast, replaces --peer):
  --multicast G:P       join group G, send/receive on port P
  --mcast-if ADDR       interface address to join on (default 127.0.0.1)
  --ttl N               multicast TTL (default 0 = same host)
  --wire-latency US     expected one-way wire latency compensated on
                        receive (default 50, a localhost UDP hop)

timeline:
  --epoch UNIX_S        anchor the protocol timeline at this UNIX time so
                        separately started processes share beacon-period
                        boundaries; default: this process's start

clock emulation:
  --max-drift PPM       emulated drift bound (default 100)
  --initial-offset US   emulated initial offset bound (default 112)
  --drift PPM           explicit drift (disables emulation)
  --offset US           explicit initial offset (disables emulation)

protocol:
  --m M, --l L, --guard US, --chain-length N
                        as in sstsp_sim (chain defaults sized to
                        epoch-elapsed + duration)
  --reference           boot directly in the reference role
  --discipline NAME     clock discipline: paper (default) | rls | holdover
  --discipline-params JSON
                        discipline overrides (same keys as the config
                        "discipline" block; see sstsp_sim --help)

faults:
  --faults PATH         fault plan (JSON; same format as sstsp_sim) —
                        packet directives apply to this node's received
                        datagrams; clock faults hit the emulated oscillator
  --faults-json TEXT    the same plan given inline as JSON text

config:
  --config PATH         load flags from a flat JSON object; flags after
                        --config override the file

output (same semantics as sstsp_sim):
  --json-out PATH, --metrics-out PATH, --trace, --trace-limit N,
  --trace-kind KIND, --profile, --monitor[=strict]

telemetry (same schema as sstsp_sim; DESIGN.md §10):
  --telemetry-out PATH  append this node's JSONL samples (source "node")
  --telemetry-udp HOST:PORT
                        also publish each sample as one UDP datagram (e.g.
                        to a sstsp_swarm collector or `nc -lu`)
  --telemetry-interval S  sampling interval in seconds (default 1)
  --flight-recorder PATH  ring of recent events + samples, dumped on new
                        audit record classes and SIGUSR1
  --flight-capacity N   flight-recorder event ring size (default 512)

performance observatory (DESIGN.md §11):
  --timeline-out PATH   write the run as Chrome-trace-event JSON loadable
                        in ui.perfetto.dev
  --sampler             phase-sampling profiler into the metrics registry
                        (dispatch-gated + SIGPROF statistical sampling)
  --sampler-interval S  sampling interval in seconds (default 0.001;
                        implies --sampler)
  --prom-textfile PATH  dump the final metrics registry in Prometheus text
                        exposition format
  --prom-port P         serve a live /metrics endpoint on 127.0.0.1:P from
                        the reactor (0 = ephemeral, printed at startup)
  --help                this text
)";

}  // namespace

std::string cli_usage(ConfigTool tool) {
  switch (tool) {
    case ConfigTool::kNode:
      return kNodeUsage;
    case ConfigTool::kSwarm:
      return kSwarmUsage;
    case ConfigTool::kSim:
    case ConfigTool::kAny:
      break;
  }
  return kSimUsage;
}

}  // namespace sstsp::run

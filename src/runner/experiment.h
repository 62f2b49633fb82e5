// One-call experiment execution + the derived quantities the paper reports.
#pragma once

#include <cstdint>
#include <optional>

#include "fault/recovery.h"
#include "mac/medium.h"
#include "metrics/series.h"
#include "net/transport.h"
#include "obs/invariants.h"
#include "obs/metrics.h"
#include "obs/observers.h"
#include "obs/profiler.h"
#include "protocols/sync_protocol.h"
#include "runner/scenario.h"

namespace sstsp::run {

/// The industrial expectation the paper adopts: an IBSS of any size counts
/// as synchronized while the max clock difference is under 25 us.
inline constexpr double kSyncThresholdUs = 25.0;

struct RunResult {
  metrics::Series max_diff;
  mac::ChannelStats channel;
  proto::ProtocolStats honest;
  std::optional<proto::ProtocolStats> attacker;

  /// Time from start until the max difference stays below 25 us for >= 1 s
  /// (paper Table 1's "synchronization latency").
  std::optional<double> sync_latency_s;

  /// Post-stabilization max difference: the max over the window starting
  /// 20 s in (or after sync latency, whichever is later) — paper Table 1's
  /// "synchronization error", and the "below 10 us after the protocol
  /// stabilizes" claim of Fig. 2.
  std::optional<double> steady_max_us;
  std::optional<double> steady_p99_us;

  /// Observability: metric values recorded during the run (empty when
  /// Scenario::collect_metrics was off), the per-phase wall-time profile
  /// (present when Scenario::profile was set), and the run's raw cost.
  obs::RegistrySnapshot metrics;
  std::optional<obs::ProfileSnapshot> profile;

  /// Invariant-monitor audit report (present when Scenario::monitor was
  /// set); clean() distinguishes a monitored-and-clean run from an
  /// unmonitored one.
  std::optional<obs::AuditReport> audit;

  /// Cluster runs only (empty / absent otherwise): the inter-cluster
  /// spread series (max - min of per-cluster mean global readings), its
  /// steady-state max over the same window as steady_max_us, and the
  /// per-sample attached fraction.  The cross-cluster Lemma-1 analogue
  /// bounds cluster_steady_max_us by hop_bound_us * max gateway depth.
  metrics::Series cluster_spread;
  metrics::Series attach_fraction;
  std::optional<double> cluster_steady_max_us;

  /// Per-fault recovery accounting (present when the scenario carried a
  /// fault plan): re-election latency after reference loss, re-sync
  /// latency after partition heal / clock faults, forged-frame rejection
  /// counts, and the injector's packet-fault tallies.
  std::optional<fault::RecoveryReport> recovery;
  std::uint64_t events_processed{0};
  double wall_seconds{0.0};

  /// Live-stack wire accounting (net::Swarm / sstsp_node runs); absent for
  /// pure simulation runs.
  std::optional<net::NetRunStats> net;
};

[[nodiscard]] RunResult run_scenario(const Scenario& scenario);

/// Fills the observer-derived parts of a finished run's result — metrics
/// snapshot, profile, audit report, recovery block — and wall_seconds.
/// Every host ends its collection here; set events_processed first.
void collect_observers(RunResult& result, const obs::Observers& observers,
                       double wall_seconds);

class Network;

/// Derives a RunResult from a Network whose run() has completed —
/// run_scenario's second half, exposed for callers (tools/sstsp_sim) that
/// drive the Network themselves to attach trace sinks before running.
/// `wall_seconds` is the caller-measured wall-clock cost of the run.
[[nodiscard]] RunResult collect_result(Network& net, double wall_seconds);

}  // namespace sstsp::run

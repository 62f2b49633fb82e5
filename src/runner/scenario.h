// Scenario description: everything needed to reproduce one simulation run
// of the paper's evaluation (§5), as plain data.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "attack/internal_reference.h"
#include "attack/tsf_attacker.h"
#include "clock/drift_model.h"
#include "cluster/cluster_config.h"
#include "core/sstsp_config.h"
#include "fault/plan.h"
#include "mac/phy_params.h"
#include "obs/observers.h"
#include "protocols/atsp.h"
#include "protocols/rentel_kunz.h"
#include "protocols/satsf.h"
#include "protocols/tatsp.h"

namespace sstsp::run {

enum class ProtocolKind { kTsf, kAtsp, kTatsp, kSatsf, kRentelKunz, kSstsp };

[[nodiscard]] const char* protocol_name(ProtocolKind kind);

/// Periodic churn: `fraction` of the stations leave every `period_s`
/// seconds and return `absence_s` later (paper §5: 5 % at k*200 s, back
/// after 50 s).
struct ChurnSpec {
  double period_s = 200.0;
  double fraction = 0.05;
  double absence_s = 50.0;
};

/// The observer switches (trace, metrics, profile, monitor, telemetry,
/// phase sampler, flight recorder) come from obs::ObserverConfig; the
/// network reads its trace back through Network::trace().
struct Scenario : obs::ObserverConfig {
  ProtocolKind protocol = ProtocolKind::kSstsp;
  int num_nodes = 100;          ///< honest stations (attacker is extra)
  double duration_s = 1000.0;   ///< paper: 1000 s runs
  std::uint64_t seed = 1;

  mac::PhyParams phy{};
  core::SstspConfig sstsp{};
  proto::AtspParams atsp{};
  proto::TatspParams tatsp{};
  proto::SatsfParams satsf{};
  proto::RentelKunzParams rentel_kunz{};

  /// Hardware clocks start offset uniform in (-x, +x) us (paper Table 1
  /// setup uses 112 us) and drift uniform in +/-max_drift_ppm.
  double initial_offset_us = 112.0;
  double max_drift_ppm = 100.0;

  /// When true (SSTSP only) node 0 boots directly in the reference role —
  /// used by convergence experiments that must not mix election time into
  /// the measured latency.
  bool preestablished_reference = false;

  std::optional<ChurnSpec> churn{};

  /// Times at which the current reference departs (SSTSP; paper: 300, 500,
  /// 800 s), returning after `departure_absence_s`.
  std::vector<double> reference_departures_s{};
  double departure_absence_s = 50.0;

  /// Adversary deployed on the extra attacker station, by registry name
  /// ("tsf-slow", "internal-ref", "replay", ...; see attack/adversary.h).
  /// Empty: no attacker.  attack_params_json carries adversary-specific
  /// overrides as a JSON object text ({"start":400,"skew":50,...}).
  std::string attack{};
  std::string attack_params_json{};
  attack::TsfAttackParams tsf_attack{};
  attack::SstspAttackParams sstsp_attack{};

  /// Hierarchical cluster layout (cluster/cluster_config.h).  When
  /// cluster.enabled(), the network is partitioned into
  /// cluster.clusters broadcast domains of cluster.nodes_per_cluster
  /// nodes each (num_nodes must equal their product), every node runs
  /// the ClusterSstsp wrapper, and gateways bridge the root timescale
  /// down the chain.  SSTSP only; incompatible with attackers.
  cluster::ClusterSpec cluster{};

  /// Injected faults (fault/plan.h); empty = pristine environment.  The
  /// same plan drives the simulated channel and the live transports.
  fault::FaultPlan faults{};

  /// Second-order oscillator stressor (clock/drift_model.h): temperature
  /// ramp, aging, or random-walk frequency noise applied per honest node on
  /// a periodic tick.  Disabled by default (the paper's constant-rate
  /// model); enabling it perturbs the seeded event stream.
  clk::DriftStress clock_stress{};

  /// Max-clock-difference sampling cadence.
  double sample_period_s = 0.1;

  /// Sharded parallel kernel (sim::ShardExecutor + mac::ShardedWorld).
  /// threads > 0 or shards > 0 selects it; shards defaults to the thread
  /// count when only threads is given.  Results are bit-identical for any
  /// (threads, shards) combination — including the single-threaded legacy
  /// kernel when PER is 0 and rx latency is fixed; see DESIGN.md §12 for
  /// the exactness contract and the one documented deviation (the
  /// identity-keyed RNG draws).
  int threads = 0;
  int shards = 0;

  /// Convenience: the paper's §5 environment (churn + reference
  /// departures) on top of the defaults.
  [[nodiscard]] static Scenario paper_section5(ProtocolKind protocol,
                                               int num_nodes,
                                               std::uint64_t seed = 1);
};

}  // namespace sstsp::run

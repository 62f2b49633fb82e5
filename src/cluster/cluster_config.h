// Multi-domain cluster topology: configuration and membership helpers.
//
// The network is partitioned into broadcast-domain clusters arranged in a
// chain (cluster c's parent is c-1, the root is cluster 0).  Each cluster
// elects its own SSTSP reference with the unmodified l-BP contention; the
// first `gateways` node ids of every non-root cluster are gateway nodes that
// additionally listen to the parent cluster and bridge its timescale across
// the boundary (see sstsp_cluster.h).  Node ids are cluster-major: cluster c
// owns [c*K, (c+1)*K) with K = nodes_per_cluster.
//
// Domains (mac::Frame::domain):
//   c           — cluster c's member plane (beacons, election, (k,b) solve)
//   0x80 | c    — cluster c's bridge plane (gateway tau announcements)
//
// Geometry contract for a finite radio range R (checked by the runner):
//   2 * radius            <= R   members hear their own reference
//   spacing / 2 + radius  <= R   gateways (placed midway between adjacent
//                                cluster centers) hear both clusters
//   spacing               <= R   cluster c's bridge announcements reach the
//                                gateways of cluster c+1, so the root
//                                timescale can chain down cluster by cluster
#pragma once

#include <cstdint>

#include "mac/phy_params.h"

namespace sstsp::cluster {

struct ClusterSpec {
  /// Number of clusters; 0 disables cluster mode entirely.
  int clusters = 0;
  /// Nodes per cluster, gateways included.
  int nodes_per_cluster = 20;
  /// Gateway nodes per non-root cluster (the root has none).
  int gateways = 1;
  /// Distance between adjacent cluster centers (meters).
  double spacing_m = 45.0;
  /// Placement disc radius around each cluster center (meters).
  double radius_m = 14.0;
  /// Per-depth schedule phase stagger: cluster c's µTESLA schedule origin is
  /// t0 + depth(c) * phase_us.  Small versus BP; it de-correlates the
  /// no-delay reference emissions of adjacent clusters so a gateway sitting
  /// in range of both references is not starved by systematic collisions.
  double phase_us = 1500.0;
  /// Offset of the bridge-plane announcement inside each BP, measured from
  /// the home cluster's nominal emission time (clear of the reference
  /// beacon and the early contention slots).
  double bridge_stagger_us = 4000.0;
  /// Documented per-gateway-hop translation error bound (µs).  The
  /// cross-cluster Lemma-1 analogue asserts that the inter-cluster max
  /// offset stays within hop_bound_us * max gateway depth (DESIGN.md §13).
  double hop_bound_us = 25.0;
  /// Bridge announcements older than this many BPs no longer count as
  /// attachment evidence: the cluster is detached until re-bridged.
  int tau_stale_bps = 8;

  [[nodiscard]] bool enabled() const { return clusters > 0; }
  [[nodiscard]] int total_nodes() const { return clusters * nodes_per_cluster; }
  /// Gateway hops from the root to the deepest cluster.
  [[nodiscard]] int max_depth() const { return clusters > 0 ? clusters - 1 : 0; }
  /// Network-wide inter-cluster offset bound (the Lemma-1 analogue).
  [[nodiscard]] double cross_cluster_bound_us() const {
    return hop_bound_us * static_cast<double>(max_depth());
  }
};

[[nodiscard]] inline int cluster_of(const ClusterSpec& spec, mac::NodeId id) {
  return static_cast<int>(id) / spec.nodes_per_cluster;
}

[[nodiscard]] inline int member_index(const ClusterSpec& spec, mac::NodeId id) {
  return static_cast<int>(id) % spec.nodes_per_cluster;
}

/// Gateways are the first `gateways` ids of every non-root cluster.
[[nodiscard]] inline bool is_gateway(const ClusterSpec& spec, mac::NodeId id) {
  return cluster_of(spec, id) > 0 && member_index(spec, id) < spec.gateways;
}

[[nodiscard]] inline int depth_of(const ClusterSpec& /*spec*/, int cluster) {
  return cluster;  // chain topology: depth equals the cluster index
}

[[nodiscard]] inline int parent_of(const ClusterSpec& /*spec*/, int cluster) {
  return cluster - 1;
}

/// Schedule phase of cluster c's µTESLA/beacon timetable.
[[nodiscard]] inline double phase_of(const ClusterSpec& spec, int cluster) {
  return static_cast<double>(depth_of(spec, cluster)) * spec.phase_us;
}

[[nodiscard]] inline std::uint8_t member_domain(int cluster) {
  return static_cast<std::uint8_t>(cluster);
}

[[nodiscard]] inline std::uint8_t bridge_domain(int cluster) {
  return static_cast<std::uint8_t>(0x80 | cluster);
}

/// Center of cluster c's placement disc (chain laid out along the x axis).
[[nodiscard]] inline mac::Position cluster_center(const ClusterSpec& spec,
                                                  int cluster) {
  return {static_cast<double>(cluster) * spec.spacing_m, 0.0};
}

/// Deterministic gateway placement: midway between the home and parent
/// centers, fanned out on y so co-gateways do not stack on one point.
[[nodiscard]] inline mac::Position gateway_position(const ClusterSpec& spec,
                                                    mac::NodeId id) {
  const int c = cluster_of(spec, id);
  const mac::Position home = cluster_center(spec, c);
  const mac::Position parent = cluster_center(spec, parent_of(spec, c));
  const double y = 2.0 * static_cast<double>(member_index(spec, id));
  return {(home.x_m + parent.x_m) / 2.0, y};
}

}  // namespace sstsp::cluster

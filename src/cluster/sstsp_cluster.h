// Hierarchical cluster synchronization: the multi-domain SSTSP protocol.
//
// One ClusterSstsp per node.  It composes:
//
//   member_   an unmodified core::Sstsp in the node's home-cluster domain —
//             the per-cluster election, guard checks and (k, b) solve run
//             exactly as in single-domain SSTSP (one reference per cluster);
//   uplink_   (gateways only) a *passive* core::Sstsp following the parent
//             cluster's reference — same checks, never transmits, so the
//             gateway's single hash chain is only ever spent on its home
//             schedule;
//   bridge_   (gateways only) the per-BP tau announcer (gateway_bridge.h);
//   tau trackers
//             home_tau_   — every non-root node learns tau(home) from its
//                           cluster's bridge plane;
//             parent_tau_ — gateways at depth >= 2 learn tau(parent) from
//                           the parent cluster's bridge plane (in range by
//                           the spacing <= radio-range geometry contract).
//
// The node's network time is its member clock plus the extrapolated home
// tau (root members: member clock alone; gateways prefer the uplink path —
// one hop fresher).  A node whose tau source has gone stale (gateway crash,
// partition) reports is_synchronized() == false: it is *detached*, drops
// out of the spread metrics, and re-attaches automatically once
// announcements resume — the latency the RecoveryTracker measures.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "cluster/cluster_config.h"
#include "cluster/gateway_bridge.h"
#include "core/sstsp.h"

namespace sstsp::cluster {

class ClusterSstsp : public proto::SyncProtocol, private sim::TickOwner {
 public:
  struct Options {
    ClusterSpec spec{};
    int cluster{0};
    bool gateway{false};
    /// Per-cluster preestablished reference (experiment convenience): the
    /// member half boots holding the home cluster's reference role.
    bool start_as_reference{false};
    bool calibrated_boot{true};
  };

  /// Every domain instance of the node (member, uplink) shares `base_cfg`;
  /// each offsets its schedule by its domain's phase.
  ClusterSstsp(proto::Station& station,
               std::shared_ptr<const core::SstspConfig> base_cfg,
               core::KeyDirectory& directory, Options options);

  void start() override;
  void stop() override;
  void on_receive(const mac::Frame& frame, const mac::RxInfo& rx) override;

  [[nodiscard]] double network_time_us(sim::SimTime real) const override;
  [[nodiscard]] bool is_synchronized() const override;
  [[nodiscard]] bool is_reference() const override {
    return member_->is_reference();
  }
  [[nodiscard]] const proto::StationStats& stats() const override;

  /// Attached: this node currently has a live translation path to the root
  /// timescale (trivially true for root-cluster members).
  [[nodiscard]] bool attached() const;

  [[nodiscard]] int cluster() const { return options_.cluster; }
  [[nodiscard]] int depth() const {
    return depth_of(options_.spec, options_.cluster);
  }
  [[nodiscard]] bool gateway() const { return options_.gateway; }
  [[nodiscard]] const core::Sstsp& member() const { return *member_; }
  [[nodiscard]] const core::Sstsp* uplink() const { return uplink_.get(); }
  [[nodiscard]] const GatewayBridge* bridge() const { return bridge_.get(); }

 private:
  /// The gateway's per-BP announce for interval announce_j_: a tick run
  /// entry (sim::Simulator::tick_at).
  void schedule_announce();
  void on_tick() override { handle_announce(announce_j_); }
  void handle_announce(std::int64_t j);
  /// Root-timescale estimate via the gateway's uplink path, if live.
  [[nodiscard]] std::optional<double> uplink_global_us(sim::SimTime real) const;
  void ingest_bridge(TauTracker& tracker, const clk::AdjustedClock& ctx,
                     const mac::Frame& frame, const mac::RxInfo& rx);

  Options options_;
  crypto::MuTeslaSchedule home_schedule_;
  core::KeyDirectory& directory_;
  std::unique_ptr<core::Sstsp> member_;
  std::unique_ptr<core::Sstsp> uplink_;      // gateways only
  std::unique_ptr<GatewayBridge> bridge_;    // gateways only
  std::optional<TauTracker> home_tau_;       // non-root clusters
  std::optional<TauTracker> parent_tau_;     // gateways at depth >= 2
  double tau_stale_us_{0.0};
  double announce_offset_us_{0.0};
  bool running_{false};
  std::int64_t last_announce_j_{INT64_MIN};
  sim::EventId announce_event_{0};
  std::int64_t announce_j_{0};  ///< the interval announce_event_ is for
  mutable proto::StationStats merged_;
};

}  // namespace sstsp::cluster

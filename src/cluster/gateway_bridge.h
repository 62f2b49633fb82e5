// Gateway bridging: the offset-translation step of the hierarchical cluster
// layer (DESIGN.md §13).
//
// A gateway node is a member of two clusters.  Its *member* half runs the
// unmodified per-cluster SSTSP (election, guard, (k, b) solve) in its home
// cluster; its *uplink* half is a passive SSTSP follower of the parent
// cluster.  Once per BP the gateway broadcasts a µTESLA-signed announcement
// on its home cluster's bridge plane (domain 0x80 | c) whose timestamp is
// the gateway's current estimate of the ROOT cluster's timescale:
//
//   global = uplink_adjusted + tau(parent)        (tau(root) = 0)
//
// Home-cluster members receive these announcements, authenticate them with
// the announcer's ordinary hash chain over the home schedule, and maintain
//
//   tau(home) = global - member_adjusted
//
// as a two-sample linear extrapolation (offset + relative rate).  No
// per-cluster clock is ever steered across the boundary: translation rides
// entirely on top of the unmodified intra-cluster solve, so each hop adds
// its own bounded estimation error and the network-wide inter-cluster
// offset is bounded by per-hop error x gateway depth (the cross-cluster
// Lemma-1 analogue checked by obs/invariants).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "core/beacon_security.h"
#include "core/key_directory.h"
#include "mac/frame.h"
#include "protocols/station.h"

namespace sstsp::cluster {

/// Outcome of feeding one bridge-plane frame to a TauTracker, surfaced so
/// the owning protocol can report trace/monitor events (the tracker itself
/// is station-agnostic and unit-testable in isolation).
struct TauIngest {
  bool interval_ok{false};     ///< passed the µTESLA interval check
  bool key_valid{false};       ///< disclosed key verified against the chain
  std::int64_t disclosed_index{-1};  ///< accepted chain element, -1 if none
  bool sample_accepted{false};  ///< a (local, tau) sample was recorded
};

/// Receiver side of the bridge: authenticates tau announcements from the
/// gateways of one cluster and serves the extrapolated translation offset.
///
/// `local` everywhere below is the *context clock* the tau is relative to:
/// the member adjusted clock for a node learning its home cluster's tau, or
/// the uplink adjusted clock for a gateway learning its parent's.
class TauTracker {
 public:
  TauTracker(core::KeyDirectory& directory, crypto::MuTeslaSchedule schedule,
             double interval_slack_us, double stale_us);

  /// Feeds one bridge-plane beacon body.  `ts_est_us` is the announced
  /// global estimate compensated for propagation; `local_us` is the context
  /// clock at delivery (recorded per interval so the deferred-auth tau
  /// sample pairs the announcement with the exact clock reading at its own
  /// arrival, not at the disclosing frame's).
  TauIngest ingest(const mac::SstspBeaconBody& body, mac::NodeId sender,
                   double arrival_hw_us, double ts_est_us, double local_us,
                   std::uint64_t trace_id);

  /// Drops all announcer state (protocol restart).
  void reset();

  /// A usable, non-stale tau estimate exists at context-clock `local_now`.
  [[nodiscard]] bool fresh(double local_now_us) const;

  /// Extrapolated translation offset at context-clock `local_now`; nullopt
  /// until the first authenticated sample.  Not freshness-gated — callers
  /// decide staleness policy via fresh().
  [[nodiscard]] std::optional<double> tau_us(double local_now_us) const;

  /// Announcer currently serving the estimate (freshest sample wins).
  [[nodiscard]] mac::NodeId announcer() const { return best_; }

  [[nodiscard]] std::uint64_t samples_accepted() const {
    return samples_accepted_;
  }

 private:
  struct Announcer {
    explicit Announcer(const crypto::Digest& anchor) : pipeline(anchor) {}

    core::SenderPipeline pipeline;
    /// Context-clock reading at ingest, keyed by claimed interval: µTESLA
    /// defers authentication by one interval, and evaluating an old hw
    /// instant against the *current* (k, b) would smear the sample by the
    /// parameter change since.
    std::array<std::pair<std::int64_t, double>, 4> local_at{};
    struct Sample {
      double local_us{0.0};
      double tau_us{0.0};
    };
    /// Ring of recent samples spanning (up to) the staleness window.  The
    /// tau line is a least-squares fit over the whole ring: a one-BP
    /// two-point quotient would turn ±10 us of per-sample solve noise into
    /// hundreds of ppm of rate error, and every extrapolated microsecond of
    /// that is re-announced downstream — the depth-2 spread blows through
    /// the hop bound.  An 8-BP baseline divides the same noise to O(10 ppm).
    std::array<Sample, 9> ring{};
    int count{0};
    int head{0};  ///< index of the most recent sample while count > 0

    [[nodiscard]] const Sample& newest() const { return ring[head]; }
    /// Maintains the invariant that ring[0 .. count-1] are exactly the live
    /// samples (head rewinds to 0 on an epoch restart, so a stale pre-gap
    /// slot can never leak into the fit).
    void push(const Sample& s) {
      head = count == 0 ? 0 : (head + 1) % static_cast<int>(ring.size());
      ring[head] = s;
      count = std::min(count + 1, static_cast<int>(ring.size()));
    }
  };

  Announcer* announcer_for(mac::NodeId sender);
  /// Least-squares (offset, rate) of tau vs context clock over the ring.
  struct TauFit {
    double local_us{0.0};  ///< fit pivot (mean context clock)
    double tau_us{0.0};    ///< fitted tau at the pivot
    double rate{0.0};      ///< clamped relative rate
  };
  [[nodiscard]] static TauFit fit_of(const Announcer& a);

  core::KeyDirectory& directory_;
  crypto::MuTeslaSchedule schedule_;
  double interval_slack_us_;
  double stale_us_;
  std::unordered_map<mac::NodeId, Announcer> announcers_;
  mac::NodeId best_{mac::kNoNode};
  std::uint64_t samples_accepted_{0};
};

/// Announcer side: signs and transmits one bridge-plane announcement per BP
/// on the home cluster's schedule, spending the gateway's ordinary hash
/// chain (same key K_j covers the member beacon and the announcement of
/// interval j — both disclose on the same schedule, so neither weakens the
/// other's µTESLA security condition).
class GatewayBridge {
 public:
  struct Config {
    std::uint8_t domain{0};  ///< bridge plane to announce on (0x80 | home)
    std::uint8_t depth{0};   ///< gateway hops from the root (level byte)
  };

  GatewayBridge(proto::Station& station, core::KeyDirectory& directory,
                const crypto::MuTeslaSchedule& home_schedule, Config cfg);

  /// Signs + transmits the announcement for home interval `j` carrying the
  /// gateway's current root-timescale estimate.  Returns false when the
  /// medium is busy (skipped; extrapolation covers the gap).
  bool announce(std::int64_t j, double global_est_us);

  [[nodiscard]] std::uint64_t announcements() const { return announcements_; }

 private:
  proto::Station& station_;
  core::BeaconSigner signer_;
  Config cfg_;
  std::uint64_t announcements_{0};
};

}  // namespace sstsp::cluster

#include "fault/injector.h"

#include <algorithm>
#include <memory>

#include "mac/frame.h"
#include "sim/simulator.h"

namespace sstsp::fault {

namespace {

bool contains(const std::vector<mac::NodeId>& group, mac::NodeId id) {
  return std::find(group.begin(), group.end(), id) != group.end();
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, sim::Rng rng)
    : plan_(std::move(plan)), rng_(rng) {}

bool FaultInjector::link_cut(double now_s, mac::NodeId from,
                             mac::NodeId to) const {
  for (const Partition& p : plan_.partitions) {
    if (now_s < p.start_s || (p.end_s >= 0.0 && now_s > p.end_s)) continue;
    const bool from_a = contains(p.group_a, from);
    const bool to_a = contains(p.group_a, to);
    const auto in_b = [&p](mac::NodeId id, bool in_a) {
      return p.group_b.empty() ? !in_a : contains(p.group_b, id);
    };
    if (from_a && in_b(to, to_a)) return true;  // a -> b always cut
    if (!p.asymmetric && to_a && in_b(from, from_a)) return true;
  }
  return false;
}

FaultStats& FaultStats::operator+=(const FaultStats& o) {
  drops += o.drops;
  partition_drops += o.partition_drops;
  isolation_drops += o.isolation_drops;
  duplicates += o.duplicates;
  delayed += o.delayed;
  reordered += o.reordered;
  corrupted += o.corrupted;
  return *this;
}

DeliveryVerdict FaultInjector::on_delivery(double now_s, mac::NodeId from,
                                           mac::NodeId to, sim::Rng& rng,
                                           FaultStats& stats) const {
  DeliveryVerdict v;
  if (contains(isolated_, from) || contains(isolated_, to)) {
    ++stats.isolation_drops;
    v.drop = true;
    return v;
  }
  if (link_cut(now_s, from, to)) {
    ++stats.partition_drops;
    v.drop = true;
    return v;
  }
  for (const PacketFault& f : plan_.packet) {
    if (now_s < f.start_s || (f.end_s >= 0.0 && now_s > f.end_s)) continue;
    if (f.from != mac::kNoNode && f.from != from) continue;
    if (f.to != mac::kNoNode && f.to != to) continue;
    // p == 1 draws nothing, so always-on directives stay draw-free.
    if (f.probability < 1.0 && !rng.bernoulli(f.probability)) continue;
    switch (f.kind) {
      case PacketFaultKind::kDrop:
        ++stats.drops;
        v.drop = true;
        return v;
      case PacketFaultKind::kDuplicate:
        for (int c = 1; c <= f.copies; ++c) {
          v.duplicate_delays_us.push_back(c * f.copy_spacing_us);
          ++stats.duplicates;
        }
        break;
      case PacketFaultKind::kDelay:
        v.extra_delay_us += rng.uniform(f.delay_min_us, f.delay_max_us);
        ++stats.delayed;
        break;
      case PacketFaultKind::kReorder:
        // Past the next frame on this link by construction: the successor
        // departs one gap later and overtakes this delivery.
        v.extra_delay_us += rng.uniform(f.gap_us, 1.5 * f.gap_us);
        ++stats.reordered;
        break;
      case PacketFaultKind::kCorrupt:
        if (!v.corrupt) ++stats.corrupted;
        v.corrupt = true;
        break;
    }
  }
  return v;
}

void FaultInjector::set_isolated(mac::NodeId node, bool isolated) {
  const auto it = std::find(isolated_.begin(), isolated_.end(), node);
  if (isolated && it == isolated_.end()) {
    isolated_.push_back(node);
  } else if (!isolated && it != isolated_.end()) {
    isolated_.erase(it);
  }
}

mac::Frame corrupt_frame(const mac::Frame& frame) {
  mac::Frame out = frame;
  if (auto* sstsp = std::get_if<mac::SstspBeaconBody>(&out.body)) {
    sstsp->mac[0] ^= 0xFF;  // µTESLA MAC check rejects the copy
  } else if (auto* tsf = std::get_if<mac::TsfBeaconBody>(&out.body)) {
    tsf->timestamp_us ^= 1;  // TSF has no integrity check; skews the stamp
  }
  return out;
}

void corrupt_datagram(std::vector<std::uint8_t>& bytes) {
  if (bytes.empty()) return;
  // The tail of the datagram is inside the authenticated beacon body, so the
  // receiver's key-chain/MAC verification rejects the frame.
  bytes.back() ^= 0xFF;
}

namespace {

/// What the scheduled fault events share.  Each event captures a handle to
/// it plus its fault's index, so the closures stay small enough for the
/// event queue's inline callback storage.
struct ScheduledFaults {
  FaultHooks hooks;
  FaultInjector* injector;
  std::vector<NodeFault> node_faults;
  std::vector<ClockFault> clock_faults;

  [[nodiscard]] std::optional<mac::NodeId> resolve(bool reference,
                                                   mac::NodeId node) const {
    if (!reference) return node;
    if (!hooks.current_reference) return std::nullopt;
    return hooks.current_reference();
  }

  void set_down(const NodeFault& f, mac::NodeId id, bool down) const {
    if (f.kind == NodeFaultKind::kCrash) {
      if (hooks.set_power) hooks.set_power(id, !down);
    } else if (injector != nullptr) {
      injector->set_isolated(id, down);
    }
  }
};

}  // namespace

void schedule_fault_events(sim::Simulator& sim, const FaultPlan& plan,
                           FaultInjector* injector, FaultHooks hooks) {
  const auto shared = std::make_shared<const ScheduledFaults>(ScheduledFaults{
      std::move(hooks), injector, plan.node_faults, plan.clock_faults});

  for (std::size_t i = 0; i < shared->node_faults.size(); ++i) {
    sim.at(sim::SimTime::from_sec_double(shared->node_faults[i].at_s),
           [&sim, shared, i] {
             const NodeFault& f = shared->node_faults[i];
             const auto victim = shared->resolve(f.reference, f.node);
             if (!victim) return;  // no reference to kill right now
             shared->set_down(f, *victim, true);
             if (shared->hooks.on_node_fault) {
               shared->hooks.on_node_fault(f, *victim);
             }
             if (f.restart_s >= 0.0) {
               const mac::NodeId id = *victim;
               sim.at(sim::SimTime::from_sec_double(f.restart_s),
                      [shared, i, id] {
                        const NodeFault& f = shared->node_faults[i];
                        shared->set_down(f, id, false);
                        if (shared->hooks.on_node_restart) {
                          shared->hooks.on_node_restart(f, id);
                        }
                      });
             }
           });
  }

  for (std::size_t i = 0; i < shared->clock_faults.size(); ++i) {
    sim.at(sim::SimTime::from_sec_double(shared->clock_faults[i].at_s),
           [shared, i] {
             const ClockFault& f = shared->clock_faults[i];
             const auto victim = shared->resolve(f.reference, f.node);
             if (!victim) return;
             if (shared->hooks.clock_fault) {
               shared->hooks.clock_fault(*victim, f.step_us,
                                         f.drift_delta_ppm);
             }
             if (shared->hooks.on_clock_fault) {
               shared->hooks.on_clock_fault(f, *victim);
             }
           });
  }
}

}  // namespace sstsp::fault

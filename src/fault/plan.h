// Declarative fault plan: a seeded, timelined description of everything the
// resilience harness may do to a run — packet-level faults (drop, duplicate,
// reorder, delay jitter, corruption), link-level partitions (optionally
// asymmetric), node-level crash/pause/restart, and hardware-clock steps or
// drift changes.
//
// One plan drives both worlds: mac::Channel consults a FaultInjector built
// from the plan in simulation, and fault::FaultyTransport applies the same
// verdicts to live UDP/loopback datagrams.  All randomness comes from a
// dedicated RNG substream seeded by (plan.seed, run seed), so the same plan
// and seed replay bit-identically in the simulator.
//
// JSON shape (all keys optional; see DESIGN.md §9 and README "Fault
// injection"):
//   {
//     "seed": 1,
//     "packet":      [{"kind":"drop","probability":0.1,"start":0,"end":60,
//                      "from":3,"to":7}, ...],
//     "partitions":  [{"start":20,"end":40,"group_a":[0,1],
//                      "group_b":[2,3,4],"asymmetric":false}, ...],
//     "node_faults": [{"kind":"crash","node":"reference","at":30,
//                      "restart":-1}, ...],
//     "clock_faults":[{"node":1,"at":25,"step_us":500,
//                      "drift_delta_ppm":20}, ...]
//   }
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mac/phy_params.h"

namespace sstsp::obs::json {
struct Value;
class Writer;
}  // namespace sstsp::obs::json

namespace sstsp::fault {

/// What a packet-level directive does to each matching delivery.
enum class PacketFaultKind {
  kDrop,       // delivery suppressed
  kDuplicate,  // extra copies delivered after copy_spacing_us each
  kDelay,      // extra latency uniform(delay_min_us, delay_max_us)
  kReorder,    // delayed past the successor frame: uniform(gap, 1.5*gap)
  kCorrupt,    // payload mangled so crypto/validity checks reject it
};

/// One timelined packet directive.  from/to scope the directive to a
/// directed link; mac::kNoNode is a wildcard ("any sender"/"any receiver").
struct PacketFault {
  PacketFaultKind kind{PacketFaultKind::kDrop};
  double start_s{0.0};
  double end_s{-1.0};  // < 0: until the end of the run
  double probability{1.0};
  mac::NodeId from{mac::kNoNode};
  mac::NodeId to{mac::kNoNode};
  // kDelay
  double delay_min_us{0.0};
  double delay_max_us{0.0};
  // kReorder: extra delay uniform(gap_us, 1.5*gap_us); the default of one
  // beacon period guarantees the successor beacon overtakes this one.
  double gap_us{100000.0};
  // kDuplicate
  int copies{1};
  double copy_spacing_us{500.0};
};

/// Link-level partition between two node groups over [start_s, end_s].
/// An empty group_b means "everyone not in group_a".  Asymmetric cuts only
/// the a->b direction (b->a still delivers), modelling one-way links.
struct Partition {
  double start_s{0.0};
  double end_s{-1.0};  // < 0: never heals
  std::vector<mac::NodeId> group_a;
  std::vector<mac::NodeId> group_b;
  bool asymmetric{false};
};

enum class NodeFaultKind {
  kCrash,  // powered off (protocol state lost); optionally restarted
  kPause,  // isolated from the medium, clock and state keep running
};

/// Node-level fault.  reference=true resolves the victim to whichever node
/// holds the reference role when the fault fires (skipped if none).
struct NodeFault {
  NodeFaultKind kind{NodeFaultKind::kCrash};
  bool reference{false};
  mac::NodeId node{mac::kNoNode};
  double at_s{0.0};
  double restart_s{-1.0};  // < 0: never restarts
};

/// Hardware-clock fault: an instantaneous step and/or a permanent drift
/// change applied to one node's oscillator at at_s.
struct ClockFault {
  bool reference{false};
  mac::NodeId node{mac::kNoNode};
  double at_s{0.0};
  double step_us{0.0};
  double drift_delta_ppm{0.0};
};

struct FaultPlan {
  std::uint64_t seed{1};
  std::vector<PacketFault> packet;
  std::vector<Partition> partitions;
  std::vector<NodeFault> node_faults;
  std::vector<ClockFault> clock_faults;

  [[nodiscard]] bool empty() const {
    return packet.empty() && partitions.empty() && node_faults.empty() &&
           clock_faults.empty();
  }
};

/// Parses a plan from a JSON value through obs::json::Reader.  On failure
/// returns nullopt and, when error != nullptr, sets it to a message naming
/// the offending key path under `path` and the source line (e.g. "line 4:
/// plan.node_faults[0].kind: 'melt' is not one of: crash, pause").
[[nodiscard]] std::optional<FaultPlan> parse_plan(
    const obs::json::Value& v, std::string* error,
    std::string_view path = "plan");

/// Parses a plan from JSON text.
[[nodiscard]] std::optional<FaultPlan> parse_plan_text(std::string_view text,
                                                       std::string* error);

/// Loads a plan from a JSON file.
[[nodiscard]] std::optional<FaultPlan> load_plan(const std::string& path,
                                                 std::string* error);

/// Serializes the plan (all fields explicit).  parse(to_json_text(p)) == p.
void append_json(const FaultPlan& plan, obs::json::Writer& w);
[[nodiscard]] std::string to_json_text(const FaultPlan& plan);

[[nodiscard]] const char* to_string(PacketFaultKind kind);
[[nodiscard]] const char* to_string(NodeFaultKind kind);

}  // namespace sstsp::fault

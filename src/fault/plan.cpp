#include "fault/plan.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "obs/json.h"

namespace sstsp::fault {

namespace {

using obs::json::Reader;
using obs::json::Value;
using obs::json::Writer;

// Kind names, in enum order.
constexpr std::string_view kPacketKinds[] = {"drop", "duplicate", "delay",
                                             "reorder", "corrupt"};
constexpr std::string_view kNodeKinds[] = {"crash", "pause"};

template <class Kind, std::size_t N>
Kind kind_named(const std::string_view (&names)[N], std::string_view name) {
  return static_cast<Kind>(std::find(names, names + N, name) - names);
}

bool node_id_from_number(double n, mac::NodeId* out) {
  if (n < 0 || n != std::floor(n) || n > 0xFFFFFFFEu) return false;
  *out = static_cast<mac::NodeId>(n);
  return true;
}

/// "node": <id> | "reference".  Sets *reference when the string form is used.
void read_node(Reader& in, std::string_view key, mac::NodeId* out,
               bool* reference) {
  const Value* v = in.member(key);
  if (v == nullptr) return;
  if (reference != nullptr && v->is_string() && v->string == "reference") {
    *reference = true;
  } else if (!v->is_number() || !node_id_from_number(v->number, out)) {
    in.fail(key, reference != nullptr ? "expected a node id or \"reference\""
                                      : "expected a node id");
  }
}

void read_group(Reader& in, std::string_view key,
                std::vector<mac::NodeId>* out) {
  const Value* v = in.member(key);
  if (v == nullptr) return;
  if (!v->is_array()) {
    in.fail(key, "expected an array of node ids");
    return;
  }
  for (std::size_t i = 0; i < v->array.size(); ++i) {
    const Value& e = v->array[i];
    mac::NodeId id = mac::kNoNode;
    if (!e.is_number() || !node_id_from_number(e.number, &id)) {
      in.fail(e, in.path() + "." + std::string(key) + "[" + std::to_string(i) + "]",
              "expected a node id");
      return;
    }
    out->push_back(id);
  }
}

/// Closes a node or clock fault's reads: a victim, node id or "reference",
/// is required.
void require_victim(Reader& in, bool reference, mac::NodeId node) {
  if (in.done() && !reference && node == mac::kNoNode) {
    in.fail("node", "required (node id or \"reference\")");
  }
}

PacketFault read_packet(Reader& in) {
  PacketFault f;
  std::string kind;
  in.string("kind", &kind, kPacketKinds)
      .number("start", &f.start_s)
      .number("end", &f.end_s)
      .number("probability", &f.probability, 0.0, 1.0)
      .number("delay_min_us", &f.delay_min_us)
      .number("delay_max_us", &f.delay_max_us)
      .number("gap_us", &f.gap_us)
      .integer("copies", &f.copies, 0, 1000000)
      .number("copy_spacing_us", &f.copy_spacing_us);
  read_node(in, "from", &f.from, nullptr);
  read_node(in, "to", &f.to, nullptr);
  if (in.done() && kind.empty()) in.fail("kind", "required string");
  f.kind = kind_named<PacketFaultKind>(kPacketKinds, kind);
  if (f.delay_max_us < f.delay_min_us) f.delay_max_us = f.delay_min_us;
  return f;
}

Partition read_partition(Reader& in) {
  Partition p;
  in.number("start", &p.start_s)
      .number("end", &p.end_s)
      .boolean("asymmetric", &p.asymmetric);
  read_group(in, "group_a", &p.group_a);
  read_group(in, "group_b", &p.group_b);
  if (in.done() && p.group_a.empty()) {
    in.fail("group_a", "required non-empty array");
  }
  return p;
}

NodeFault read_node_fault(Reader& in) {
  NodeFault f;
  std::string kind{kNodeKinds[0]};
  in.string("kind", &kind, kNodeKinds)
      .number("at", &f.at_s)
      .number("restart", &f.restart_s);
  read_node(in, "node", &f.node, &f.reference);
  require_victim(in, f.reference, f.node);
  f.kind = kind_named<NodeFaultKind>(kNodeKinds, kind);
  return f;
}

ClockFault read_clock_fault(Reader& in) {
  ClockFault f;
  in.number("at", &f.at_s)
      .number("step_us", &f.step_us)
      .number("drift_delta_ppm", &f.drift_delta_ppm);
  read_node(in, "node", &f.node, &f.reference);
  require_victim(in, f.reference, f.node);
  return f;
}

/// Reads the array `key` of plan entries into `out`, one nested reader per
/// entry; each entry's reader ends with its done().
template <class Entry>
void read_section(Reader& in, std::string_view key, std::vector<Entry>* out,
                  Entry (*read_entry)(Reader&)) {
  const Value* list = in.member(key);
  if (list == nullptr) return;
  if (!list->is_array()) {
    in.fail(key, "expected an array");
    return;
  }
  for (std::size_t i = 0; i < list->array.size() && in.ok(); ++i) {
    Reader entry(in, list->array[i],
                 in.path() + "." + std::string(key) + "[" + std::to_string(i) +
                     "]");
    out->push_back(read_entry(entry));
  }
}

void append_node(Writer& w, std::string_view key, bool reference,
                 mac::NodeId node) {
  w.key(key);
  if (reference) {
    w.value("reference");
  } else {
    w.value(static_cast<std::uint64_t>(node));
  }
}

}  // namespace

const char* to_string(PacketFaultKind kind) {
  return kPacketKinds[static_cast<std::size_t>(kind)].data();
}

const char* to_string(NodeFaultKind kind) {
  return kNodeKinds[static_cast<std::size_t>(kind)].data();
}

std::optional<FaultPlan> parse_plan(const Value& v, std::string* error,
                                    std::string_view path) {
  Reader in(v, std::string(path), error);
  FaultPlan plan;
  double seed = static_cast<double>(plan.seed);
  in.number("seed", &seed, 0.0, 9007199254740992.0);  // 2^53: exact in JSON
  plan.seed = static_cast<std::uint64_t>(seed);
  read_section(in, "packet", &plan.packet, read_packet);
  read_section(in, "partitions", &plan.partitions, read_partition);
  read_section(in, "node_faults", &plan.node_faults, read_node_fault);
  read_section(in, "clock_faults", &plan.clock_faults, read_clock_fault);
  if (!in.done()) return std::nullopt;
  return plan;
}

std::optional<FaultPlan> parse_plan_text(std::string_view text,
                                         std::string* error) {
  auto v = obs::json::parse(text);
  if (!v) {
    if (error != nullptr) *error = "invalid JSON";
    return std::nullopt;
  }
  return parse_plan(*v, error);
}

std::optional<FaultPlan> load_plan(const std::string& path,
                                   std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string err;
  auto plan = parse_plan_text(buffer.str(), &err);
  if (!plan && error != nullptr) *error = path + ": " + err;
  return plan;
}

void append_json(const FaultPlan& plan, Writer& w) {
  w.begin_object();
  w.kv("seed", static_cast<std::uint64_t>(plan.seed));
  w.key("packet").begin_array();
  for (const PacketFault& f : plan.packet) {
    w.begin_object();
    w.kv("kind", to_string(f.kind));
    w.kv("start", f.start_s);
    w.kv("end", f.end_s);
    w.kv("probability", f.probability);
    if (f.from != mac::kNoNode) w.kv("from", static_cast<std::uint64_t>(f.from));
    if (f.to != mac::kNoNode) w.kv("to", static_cast<std::uint64_t>(f.to));
    if (f.kind == PacketFaultKind::kDelay) {
      w.kv("delay_min_us", f.delay_min_us);
      w.kv("delay_max_us", f.delay_max_us);
    }
    if (f.kind == PacketFaultKind::kReorder) w.kv("gap_us", f.gap_us);
    if (f.kind == PacketFaultKind::kDuplicate) {
      w.kv("copies", f.copies);
      w.kv("copy_spacing_us", f.copy_spacing_us);
    }
    w.end_object();
  }
  w.end_array();
  w.key("partitions").begin_array();
  for (const Partition& p : plan.partitions) {
    w.begin_object();
    w.kv("start", p.start_s);
    w.kv("end", p.end_s);
    w.key("group_a").begin_array();
    for (const mac::NodeId id : p.group_a) {
      w.value(static_cast<std::uint64_t>(id));
    }
    w.end_array();
    w.key("group_b").begin_array();
    for (const mac::NodeId id : p.group_b) {
      w.value(static_cast<std::uint64_t>(id));
    }
    w.end_array();
    w.kv("asymmetric", p.asymmetric);
    w.end_object();
  }
  w.end_array();
  w.key("node_faults").begin_array();
  for (const NodeFault& f : plan.node_faults) {
    w.begin_object();
    w.kv("kind", to_string(f.kind));
    append_node(w, "node", f.reference, f.node);
    w.kv("at", f.at_s);
    w.kv("restart", f.restart_s);
    w.end_object();
  }
  w.end_array();
  w.key("clock_faults").begin_array();
  for (const ClockFault& f : plan.clock_faults) {
    w.begin_object();
    append_node(w, "node", f.reference, f.node);
    w.kv("at", f.at_s);
    w.kv("step_us", f.step_us);
    w.kv("drift_delta_ppm", f.drift_delta_ppm);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string to_json_text(const FaultPlan& plan) {
  std::ostringstream os;
  Writer w(os);
  append_json(plan, w);
  return os.str();
}

}  // namespace sstsp::fault

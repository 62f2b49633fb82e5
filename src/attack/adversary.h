// Adversary registry: one factory-based interface for every attacker the
// runners can deploy, replacing the old per-kind enum + switch plumbing.
//
// An adversary is any proto::SyncProtocol implementation mounted on the
// extra attacker station; the registry maps a stable name ("tsf-slow",
// "internal-ref", "replay", "forge", "delayed-disclosure") to a factory, so
// new adversaries — including fault-driven ones like replay-under-loss
// (replay adversary + a FaultPlan with a drop directive) — plug in without
// touching run::Scenario or the runners.
//
// Builtins are registered explicitly in the registry constructor (not via
// static initializers, which a static library would silently drop).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "attack/internal_reference.h"
#include "attack/tsf_attacker.h"
#include "obs/json.h"

namespace sstsp::proto {
class Station;
class SyncProtocol;
}  // namespace sstsp::proto

namespace sstsp::attack {

/// Scenario-level attack settings an adversary's params override.
struct AdversaryDefaults {
  TsfAttackParams tsf{};
  SstspAttackParams internal{};
};

/// The deployment an adversary is built into.
struct AdversaryContext {
  proto::Station& station;
  core::KeyDirectory& directory;
  const core::SstspConfig& sstsp;
};

/// Builds a configured adversary on the attacker station.
using AdversaryBuild = std::function<std::unique_ptr<proto::SyncProtocol>(
    const AdversaryContext&)>;

struct AdversaryInfo {
  std::string description;
  /// Oscillator the adversary deploys with, as a fraction of the scenario's
  /// max drift (NaN: drawn from the same distribution as honest nodes).
  /// tsf-slow pins 0.9 — worst-case-fast hardware, see tsf_attacker.h.
  double drift_factor;
  /// Reads the adversary's params through `params` (every key it knows is
  /// a number) onto `defaults` and returns the build step.
  std::function<AdversaryBuild(obs::json::Reader& params,
                               const AdversaryDefaults& defaults)>
      configure;
};

class AdversaryRegistry {
 public:
  /// Process-wide registry, pre-populated with the builtins.
  static AdversaryRegistry& instance();

  void add(std::string name, AdversaryInfo info);
  [[nodiscard]] const AdversaryInfo* find(std::string_view name) const;
  /// Registered names, sorted (for error messages and --help).
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  AdversaryRegistry();  // registers builtins

  std::vector<std::pair<std::string, AdversaryInfo>> entries_;
};

/// True when `name` is a registered adversary (empty = no attack, not known).
[[nodiscard]] bool adversary_known(std::string_view name);

/// Sorted registered names.
[[nodiscard]] std::vector<std::string> adversary_names();

/// The adversary's pinned drift factor; NaN when it draws like an honest
/// node (or the name is unknown/empty).
[[nodiscard]] double adversary_drift_factor(std::string_view name);

/// Reads the params block `params` (nullptr: none) of adversary `name` at
/// key path "attack.params" and returns its build step.  An empty function
/// and *error on an unknown name, a non-object, a key the adversary does
/// not read or a non-number ("line 3: attack.params.skw: unknown key ...").
[[nodiscard]] AdversaryBuild configure_adversary(
    std::string_view name, const obs::json::Value* params,
    const AdversaryDefaults& defaults, std::string* error);

/// The same from params JSON text ("": none).
[[nodiscard]] AdversaryBuild configure_adversary(
    std::string_view name, const std::string& params_json,
    const AdversaryDefaults& defaults, std::string* error);

}  // namespace sstsp::attack

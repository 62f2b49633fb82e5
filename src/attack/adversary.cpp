#include "attack/adversary.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "attack/delayed_disclosure.h"
#include "attack/replay.h"
#include "obs/json.h"

namespace sstsp::attack {

namespace {

constexpr double kHonestDrift = std::numeric_limits<double>::quiet_NaN();

using obs::json::Reader;

}  // namespace

AdversaryRegistry::AdversaryRegistry() {
  add("tsf-slow",
      {"TSF slow-beacon attacker: floods contention with slower timestamps "
       "so the honest TSF network free-runs (paper Fig. 3)",
       0.9,  // deploys with worst-case-fast hardware, see tsf_attacker.h
       [](Reader& in, const AdversaryDefaults& d) -> AdversaryBuild {
         TsfAttackParams p = d.tsf;
         in.number("start", &p.start_s)
             .number("end", &p.end_s)
             .number("slow_offset_us", &p.slow_offset_us)
             .number("timer_advance_us", &p.timer_advance_us)
             .integer("burst_count", &p.burst_count, 0, 1000000)
             .number("burst_spacing_us", &p.burst_spacing_us);
         return [p](const AdversaryContext& ctx) {
           return std::make_unique<TsfSlowBeaconAttacker>(ctx.station, p);
         };
       }});
  add("internal-ref",
      {"internal SSTSP attacker: seizes the reference role and drags the "
       "network timeline within guard bounds (paper Fig. 4)",
       kHonestDrift,
       [](Reader& in, const AdversaryDefaults& d) -> AdversaryBuild {
         SstspAttackParams p = d.internal;
         in.number("start", &p.start_s)
             .number("end", &p.end_s)
             .number("advance_us", &p.advance_us)
             .number("skew", &p.skew_rate_us_per_s)
             .number("skew_ramp_s", &p.skew_ramp_s);
         return [p](const AdversaryContext& ctx) {
           return std::make_unique<SstspInternalAttacker>(
               ctx.station, ctx.sstsp, ctx.directory, p);
         };
       }});
  add("replay",
      {"external replay attacker: re-transmits captured beacons some BPs "
       "later; µTESLA's interval check rejects them (§4)",
       kHonestDrift,
       [](Reader& in, const AdversaryDefaults& d) -> AdversaryBuild {
         ReplayParams p;
         p.start_s = d.internal.start_s;
         p.end_s = d.internal.end_s;
         in.number("start", &p.start_s)
             .number("end", &p.end_s)
             .integer("delay_bps", &p.delay_bps, 0, 1000000)
             .number("extra_delay_us", &p.extra_delay_us);
         return [p](const AdversaryContext& ctx) {
           return std::make_unique<ReplayAttacker>(ctx.station, p);
         };
       }});
  add("forge",
      {"external forger: emits SSTSP-shaped beacons with garbage MACs under "
       "an unanchored identity; rejected at the disclosed-key step",
       kHonestDrift,
       [](Reader& in, const AdversaryDefaults&) -> AdversaryBuild {
         ExternalForger::Params p;
         double spoofed = -1.0;
         in.number("period_s", &p.period_s)
             .number("spoofed", &spoofed, 0.0, 4294967294.0);
         if (spoofed >= 0.0) p.spoofed = static_cast<mac::NodeId>(spoofed);
         return [p](const AdversaryContext& ctx) {
           return std::make_unique<ExternalForger>(ctx.station, p);
         };
       }});
  add("delayed-disclosure",
      {"internal delayed-key-disclosure attacker: emits late beacons stamped "
       "on schedule, abusing the µTESLA disclosure delay (§4)",
       kHonestDrift,
       [](Reader& in, const AdversaryDefaults& d) -> AdversaryBuild {
         DelayedDisclosureParams p;
         p.start_s = d.internal.start_s;
         p.end_s = d.internal.end_s;
         in.number("start", &p.start_s)
             .number("end", &p.end_s)
             .number("delay_us", &p.delay_us);
         return [p](const AdversaryContext& ctx) {
           return std::make_unique<DelayedDisclosureAttacker>(
               ctx.station, ctx.sstsp, ctx.directory, p);
         };
       }});
}

AdversaryRegistry& AdversaryRegistry::instance() {
  static AdversaryRegistry registry;
  return registry;
}

void AdversaryRegistry::add(std::string name, AdversaryInfo info) {
  for (auto& [existing, entry] : entries_) {
    if (existing == name) {
      entry = std::move(info);  // latest registration wins
      return;
    }
  }
  entries_.emplace_back(std::move(name), std::move(info));
}

const AdversaryInfo* AdversaryRegistry::find(std::string_view name) const {
  for (const auto& [existing, entry] : entries_) {
    if (existing == name) return &entry;
  }
  return nullptr;
}

std::vector<std::string> AdversaryRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

bool adversary_known(std::string_view name) {
  return AdversaryRegistry::instance().find(name) != nullptr;
}

std::vector<std::string> adversary_names() {
  return AdversaryRegistry::instance().names();
}

double adversary_drift_factor(std::string_view name) {
  const AdversaryInfo* info = AdversaryRegistry::instance().find(name);
  return info == nullptr ? kHonestDrift : info->drift_factor;
}

AdversaryBuild configure_adversary(std::string_view name,
                                   const obs::json::Value* params,
                                   const AdversaryDefaults& defaults,
                                   std::string* error) {
  const AdversaryInfo* info = AdversaryRegistry::instance().find(name);
  if (info == nullptr) {
    if (error != nullptr) *error = "unknown adversary: " + std::string(name);
    return {};
  }
  static const obs::json::Value kNoParams = *obs::json::parse("{}");
  Reader in(params != nullptr ? *params : kNoParams, "attack.params", error);
  AdversaryBuild build = info->configure(in, defaults);
  return in.done() ? build : AdversaryBuild{};
}

AdversaryBuild configure_adversary(std::string_view name,
                                   const std::string& params_json,
                                   const AdversaryDefaults& defaults,
                                   std::string* error) {
  if (params_json.empty()) {
    return configure_adversary(name, nullptr, defaults, error);
  }
  const auto params = obs::json::parse(params_json);
  if (!params) {
    if (error != nullptr) *error = "attack.params: invalid JSON: " + params_json;
    return {};
  }
  return configure_adversary(name, &*params, defaults, error);
}

}  // namespace sstsp::attack

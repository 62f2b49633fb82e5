// Station: one IBSS node — hardware clock, radio attachment, RNG streams,
// power state — mediating between the simulation substrate and the protocol.
#pragma once

#include <memory>
#include <string>

#include "clock/hardware_clock.h"
#include "mac/medium.h"
#include "obs/observers.h"
#include "protocols/sync_protocol.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "trace/event_trace.h"

namespace sstsp::proto {

class Station final : private mac::Receiver {
 public:
  /// `channel` may be the run-wide mac::Channel or one shard of the
  /// parallel kernel — the station only uses the mac::Medium surface.
  Station(sim::Simulator& sim, mac::Medium& channel, mac::NodeId id,
          clk::HardwareClock hw, mac::Position pos);

  Station(const Station&) = delete;
  Station& operator=(const Station&) = delete;

  [[nodiscard]] mac::NodeId id() const { return id_; }
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] mac::Medium& channel() { return channel_; }
  [[nodiscard]] const clk::HardwareClock& hw() const { return hw_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }

  /// Hardware clock reading now.
  [[nodiscard]] double hw_us_now() const { return hw_.read_us(sim_.now()); }

  [[nodiscard]] bool awake() const { return awake_; }

  /// Installs the protocol; must happen before the first power_on().
  void set_protocol(std::unique_ptr<SyncProtocol> proto) {
    proto_ = std::move(proto);
  }
  [[nodiscard]] SyncProtocol& protocol() { return *proto_; }
  [[nodiscard]] const SyncProtocol& protocol() const { return *proto_; }
  [[nodiscard]] bool has_protocol() const { return proto_ != nullptr; }

  void power_on();
  void power_off();

  /// Radio: transmit a frame of the given on-air duration, starting now.
  /// Returns the channel-assigned lifecycle trace ID (see Frame::trace_id).
  std::uint64_t transmit(mac::Frame frame, sim::SimTime duration) {
    return channel_.transmit(channel_index_, std::move(frame), duration);
  }

  /// Carrier sense at time `at` (usually now).
  [[nodiscard]] bool medium_busy(sim::SimTime at) const {
    return channel_.would_detect_busy(channel_index_, at);
  }

  /// Attaches the run's observer bundle (obs/observers.h), shared by every
  /// station of the run (or shard); nullptr — the bundle's for_stations()
  /// on an unobserved run — detaches.
  void set_observers(const obs::Observers* observers) {
    observers_ = observers;
  }
  // The observers protocol code calls directly (null-checked at each site).
  [[nodiscard]] obs::Instruments* instruments() const {
    return observers_ != nullptr ? observers_->instruments() : nullptr;
  }
  [[nodiscard]] obs::Profiler* profiler() const {
    return observers_ != nullptr ? observers_->profiler() : nullptr;
  }

  /// Fault injection: applies a hardware-clock step and/or drift change at
  /// the current instant (fault::ClockFault).  The protocol keeps running on
  /// the perturbed oscillator — exactly what a real glitch looks like.
  void inject_clock_fault(double step_us, double drift_delta_ppm) {
    if (drift_delta_ppm != 0.0) {
      hw_.fault_drift_delta_ppm(drift_delta_ppm, sim_.now());
    }
    if (step_us != 0.0) hw_.fault_step_us(step_us);
  }

  /// Records a protocol event into every attached observer (trace ring,
  /// metrics registry, invariant monitor, lifecycle tracker, recovery
  /// tracker, flight recorder).  Unobserved, the call is a single branch on
  /// the bundle pointer — the event struct is not even built.  `trace_id`
  /// ties the event to a beacon transmission (0 = not beacon-scoped).
  void trace_event(trace::EventKind kind, mac::NodeId peer = mac::kNoNode,
                   double value_us = 0.0, std::uint64_t trace_id = 0) {
    if (observers_ == nullptr) return;
    observers_->on_event(trace::TraceEvent{sim_.now(), id_, kind, peer,
                                           value_us, trace_id});
  }

  /// Hands a monitor check (obs/station_event.h) to the observers, when
  /// one of them consumes checks; `peer` is the counterparty, if any.
  void report(const obs::MonitorCheck& check,
              mac::NodeId peer = mac::kNoNode) {
    if (observers_ == nullptr || !observers_->wants_checks()) return;
    observers_->on_event(obs::StationEvent(
        {.time = sim_.now(), .node = id_, .peer = peer}, check));
  }

 private:
  /// The channel's delivery: an awake station hands it to its protocol.
  void receive(const mac::Frame& frame, const mac::RxInfo& rx) override {
    if (awake_ && proto_) proto_->on_receive(frame, rx);
  }

  sim::Simulator& sim_;
  mac::Medium& channel_;
  mac::NodeId id_;
  bool awake_{false};
  clk::HardwareClock hw_;
  sim::Rng rng_;
  std::size_t channel_index_;
  std::unique_ptr<SyncProtocol> proto_;
  const obs::Observers* observers_{nullptr};
};

}  // namespace sstsp::proto

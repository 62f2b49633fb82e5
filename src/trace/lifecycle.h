// Causal beacon-lifecycle tracking.
//
// Consumes the trace-ID-stamped event stream (Station::trace_event fans
// every event here when a tracker is attached) and reassembles each
// transmitted beacon's span tree:
//
//   beacon-tx #id ──┬─ beacon-rx #id      (per receiver)
//                   ├─ auth-ok #id        (deferred µTESLA MAC passed)
//                   ├─ adjustment #id     (the beacon became a (k, b) solve)
//                   └─ reject-* #id       (dropped by a §3.3 check)
//
// Per-stage latencies (tx -> rx, tx -> auth, tx -> adjust) feed the shared
// metrics registry as histograms, and outcome counters expose the funnel
// (how many transmitted beacons were delivered / authenticated / used).
// Note the deferred-authentication shape: µTESLA authenticates the beacon
// of interval j only when interval j+1's key discloses, so tx->auth and
// tx->adjust run about one beacon period — the histograms make that
// protocol property directly measurable.
//
// Memory is bounded: the tracker keeps the newest `capacity` in-flight
// transmissions (FIFO eviction); events for evicted or pre-attachment
// IDs only bump the outcome counters.  Every event costs one flat-table
// probe; the span table and the eviction ring grow on demand up to the
// capacity.
#pragma once

#include <cstdint>

#include "obs/flat_map.h"
#include "obs/metrics.h"
#include "obs/ring.h"
#include "trace/event_trace.h"

namespace sstsp::trace {

class BeaconLifecycle {
 public:
  /// Keeps the newest max(capacity, 1) spans.
  explicit BeaconLifecycle(obs::Registry& registry,
                           std::size_t capacity = 4096);

  BeaconLifecycle(const BeaconLifecycle&) = delete;
  BeaconLifecycle& operator=(const BeaconLifecycle&) = delete;

  /// Every traced protocol event (fans out from Station::trace_event).
  void on_event(const TraceEvent& event);

  [[nodiscard]] std::uint64_t tracked() const { return tracked_; }

 private:
  struct TxSpan {
    sim::SimTime tx_time;
    mac::NodeId sender{mac::kNoNode};
  };

  void note_tx(const TraceEvent& event);

  obs::FlatMap<TxSpan> spans_;
  obs::Ring<std::uint64_t> order_;  // FIFO eviction
  std::uint64_t tracked_{0};

  // Pre-resolved handles (obs::Instruments discipline).
  obs::Counter* traced_;
  obs::Counter* rx_;
  obs::Counter* auth_ok_;
  obs::Counter* adjust_;
  obs::Counter* rejected_;
  obs::Histogram* tx_to_rx_us_;
  obs::Histogram* tx_to_auth_us_;
  obs::Histogram* tx_to_adjust_us_;
};

}  // namespace sstsp::trace

#include "trace/lifecycle.h"

#include <algorithm>

namespace sstsp::trace {

BeaconLifecycle::BeaconLifecycle(obs::Registry& registry,
                                 std::size_t capacity)
    : order_(std::max<std::size_t>(capacity, 1)),
      traced_(&registry.counter("beacon.traced")),
      rx_(&registry.counter("beacon.rx")),
      auth_ok_(&registry.counter("beacon.auth_ok")),
      adjust_(&registry.counter("beacon.adjust")),
      rejected_(&registry.counter("beacon.rejected")),
      tx_to_rx_us_(&registry.histogram("beacon.tx_to_rx_us")),
      tx_to_auth_us_(&registry.histogram("beacon.tx_to_auth_us")),
      tx_to_adjust_us_(&registry.histogram("beacon.tx_to_adjust_us")) {}

void BeaconLifecycle::note_tx(const TraceEvent& event) {
  ++tracked_;
  traced_->inc();
  if (order_.full()) spans_.erase(order_.front());
  order_.push_back(event.trace_id);  // overwrites the evicted front
  spans_.insert_or_assign(event.trace_id, TxSpan{event.time, event.node});
}

void BeaconLifecycle::on_event(const TraceEvent& event) {
  if (event.trace_id == 0) return;
  switch (event.kind) {
    case EventKind::kBeaconTx:
      note_tx(event);
      break;
    case EventKind::kBeaconRx:
      rx_->inc();
      if (const TxSpan* tx = spans_.find(event.trace_id)) {
        tx_to_rx_us_->record((event.time - tx->tx_time).to_us());
      }
      break;
    case EventKind::kAuthOk:
      auth_ok_->inc();
      if (const TxSpan* tx = spans_.find(event.trace_id)) {
        tx_to_auth_us_->record((event.time - tx->tx_time).to_us());
      }
      break;
    case EventKind::kAdjustment:
      adjust_->inc();
      if (const TxSpan* tx = spans_.find(event.trace_id)) {
        tx_to_adjust_us_->record((event.time - tx->tx_time).to_us());
      }
      break;
    case EventKind::kRejectGuard:
    case EventKind::kRejectInterval:
    case EventKind::kRejectKey:
    case EventKind::kRejectMac:
      rejected_->inc();
      break;
    default:
      break;
  }
}

}  // namespace sstsp::trace

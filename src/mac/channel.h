// Single-kernel broadcast channel: one instance owns every station and runs
// on the one simulator of the run.
//
// The reception rule is mac::RadioMedium's (radio_medium.h).  This channel
// adds what is its own: transmission ids from one global counter, the
// end-of-frame event that decides a frame's receivers at its end, one
// sequential RNG stream ("channel") for every PER and receive-latency draw,
// in ascending receiver order per frame, and the fault injector's own
// sequential stream for its verdicts.
#pragma once

#include <cstdint>

#include "mac/radio_medium.h"
#include "sim/rng.h"

namespace sstsp::mac {

class Channel final : public RadioMedium {
 public:
  Channel(sim::Simulator& sim, const PhyParams& phy);

  std::uint64_t transmit(std::size_t idx, Frame frame,
                         sim::SimTime duration) override;

 private:
  [[nodiscard]] NodeId next_station_id() const override {
    return static_cast<NodeId>(stations_.size());
  }
  /// The injector's own sequential substream, in delivery order.
  [[nodiscard]] fault::DeliveryVerdict fault_verdict(const Tx& tx,
                                                     NodeId rx) override {
    return fault_->on_delivery(tx.end.to_sec(), tx.frame->sender, rx);
  }

  std::uint64_t next_tx_id_{1};
  sim::Rng rng_;
};

}  // namespace sstsp::mac

// A transmission's receptions as one event-queue entry.
//
// mac::RadioMedium::evaluate (radio_medium.h), run by both simulated
// channels, visits a frame's receivers in ascending station order and
// add()s each one that gets the frame.  The batch then goes to the
// simulator whole (Simulator::schedule_batch), which dispatches the entries
// in the order one Simulator::at call per add() would have.  The batch
// holds one reference to the frame and at most one corrupted copy, shared
// by every receiver a fault plan corrupts.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "fault/injector.h"
#include "mac/frame.h"
#include "mac/medium.h"
#include "obs/instruments.h"
#include "sim/delivery_batch.h"

namespace sstsp::mac {

struct RadioStation;

/// `stations`, the channel's station records, must outlive the batch.
class FanOut final : public sim::DeliveryBatch {
 public:
  FanOut(const std::vector<RadioStation>& stations,
         std::shared_ptr<const Frame> frame, double nominal_delay_us,
         sim::SimTime tx_start, std::size_t expected)
      : sim::DeliveryBatch(expected),
        stations_(stations),
        frame_(std::move(frame)),
        nominal_delay_us_(nominal_delay_us),
        tx_start_(tx_start) {}

  /// Adds station `s`'s reception at `delivered` with a fault verdict
  /// applied: its extra delay, a corrupted copy, then one more reception
  /// per duplicate.  Counts each reception in `stats` and `instruments`.
  void add(std::size_t s, sim::SimTime delivered,
           const fault::DeliveryVerdict& verdict, ChannelStats& stats,
           obs::Instruments* instruments) {
    if (verdict.extra_delay_us > 0.0) {
      delivered += sim::SimTime::from_us_double(verdict.extra_delay_us);
    }
    std::uint32_t copy = 0;
    if (verdict.corrupt) {
      if (!corrupted_) corrupted_.emplace(fault::corrupt_frame(*frame_));
      copy = 1;
    }
    const auto rx = static_cast<std::uint32_t>(s);
    sim::DeliveryBatch::add(delivered, rx, copy);
    count(delivered, stats, instruments);
    for (const double dup_delay_us : verdict.duplicate_delays_us) {
      const sim::SimTime dup =
          delivered + sim::SimTime::from_us_double(dup_delay_us);
      sim::DeliveryBatch::add(dup, rx, copy);
      count(dup, stats, instruments);
    }
  }

 private:
  void deliver(const Entry& e) override;  // radio_medium.cpp

  void count(sim::SimTime delivered, ChannelStats& stats,
             obs::Instruments* instruments) const {
    ++stats.deliveries;
    if (instruments != nullptr) {
      instruments->on_delivery((delivered - tx_start_).to_us());
    }
  }

  const std::vector<RadioStation>& stations_;
  std::shared_ptr<const Frame> frame_;
  std::optional<Frame> corrupted_;
  double nominal_delay_us_;
  sim::SimTime tx_start_;
};

}  // namespace sstsp::mac

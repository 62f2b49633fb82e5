#include "mac/channel.h"

#include "obs/profiler.h"

namespace sstsp::mac {

Channel::Channel(sim::Simulator& sim, const PhyParams& phy)
    : RadioMedium(sim, phy), rng_(sim.substream("channel", 0)) {}

std::uint64_t Channel::transmit(std::size_t idx, Frame frame,
                                sim::SimTime duration) {
  // Every time on air gets its own lifecycle ID, even for a byte-identical
  // replayed frame: the receivers' events describe *this* transmission.
  Tx& tx = send(idx, next_tx_id_++, std::move(frame), duration);
  // The record stays in place until it is evaluated and pruned.
  sim_.at(tx.end, [this, &tx] {
    obs::Span span(profiler_, obs::Phase::kChannelDelivery);
    const bool lost = evaluate(
        tx, [this](std::uint64_t, NodeId) -> sim::Rng& { return rng_; });
    if (lost) ++stats_.collided_transmissions;
    prune(sim_.now());
  });
  return tx.id;
}

}  // namespace sstsp::mac

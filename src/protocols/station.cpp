#include "protocols/station.h"

#include <cassert>

namespace sstsp::proto {

Station::Station(sim::Simulator& sim, mac::Medium& channel, mac::NodeId id,
                 clk::HardwareClock hw, mac::Position pos)
    : sim_(sim),
      channel_(channel),
      id_(id),
      hw_(hw),
      rng_(sim.substream("station", id)) {
  channel_index_ = channel_.add_station(pos, *this);
  channel_.set_listening(channel_index_, false);
}

void Station::power_on() {
  assert(proto_ && "set_protocol() before power_on()");
  if (awake_) return;
  awake_ = true;
  channel_.set_listening(channel_index_, true);
  proto_->start();
}

void Station::power_off() {
  if (!awake_) return;
  awake_ = false;
  channel_.set_listening(channel_index_, false);
  proto_->stop();
}

}  // namespace sstsp::proto

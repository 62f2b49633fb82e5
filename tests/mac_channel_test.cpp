#include "mac/channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/rng.h"
#include "sim/simulator.h"

namespace sstsp::mac {
namespace {

using sim::SimTime;
using namespace sstsp::sim::literals;

struct Recorder final : Receiver {
  std::vector<Frame> frames;
  std::vector<RxInfo> infos;

  void receive(const Frame& f, const RxInfo& i) override {
    frames.push_back(f);
    infos.push_back(i);
  }
};

/// A station whose receptions the test does not look at.
Receiver& ignored() {
  static struct final : Receiver {
    void receive(const Frame&, const RxInfo&) override {}
  } none;
  return none;
}

Frame tsf_frame(NodeId sender, std::int64_t ts) {
  Frame f;
  f.sender = sender;
  f.air_bytes = 56;
  f.body = TsfBeaconBody{ts};
  return f;
}

PhyParams no_loss_phy() {
  PhyParams phy;
  phy.packet_error_rate = 0.0;
  return phy;
}

TEST(Channel, DeliversToAllListenersExceptSender) {
  sim::Simulator sim(1);
  Channel ch(sim, no_loss_phy());
  Recorder r0;
  Recorder r1;
  Recorder r2;
  const auto s0 = ch.add_station({0, 0}, r0);
  ch.add_station({10, 0}, r1);
  ch.add_station({0, 20}, r2);

  sim.at(1_ms, [&] { ch.transmit(s0, tsf_frame(0, 42), 36_us); });
  sim.run_until(1_sec);

  EXPECT_TRUE(r0.frames.empty());  // sender does not hear itself
  ASSERT_EQ(r1.frames.size(), 1u);
  ASSERT_EQ(r2.frames.size(), 1u);
  EXPECT_EQ(r1.frames[0].tsf().timestamp_us, 42);
  EXPECT_EQ(ch.stats().deliveries, 2u);
}

TEST(Channel, DeliveryTimingWindow) {
  sim::Simulator sim(2);
  PhyParams phy = no_loss_phy();
  Channel ch(sim, phy);
  Recorder rx;
  const auto s0 = ch.add_station({0, 0}, ignored());
  ch.add_station({30, 0}, rx);

  const SimTime start = 1_ms;
  sim.at(start, [&] { ch.transmit(s0, tsf_frame(0, 1), 36_us); });
  sim.run_until(1_sec);

  ASSERT_EQ(rx.infos.size(), 1u);
  const SimTime prop = propagation_delay({0, 0}, {30, 0});
  const SimTime lo = start + 36_us + prop + phy.rx_latency_min;
  const SimTime hi = start + 36_us + prop + phy.rx_latency_max;
  EXPECT_GE(rx.infos[0].delivered, lo);
  EXPECT_LE(rx.infos[0].delivered, hi);
  EXPECT_EQ(rx.infos[0].tx_start, start);
}

TEST(Channel, NominalDelayCompensatesWithinEpsilon) {
  // |estimated delay - actual delay| must stay below the paper's 5 us bound.
  sim::Simulator sim(3);
  PhyParams phy = no_loss_phy();
  Channel ch(sim, phy);
  Recorder rx;
  const auto s0 = ch.add_station({0, 0}, ignored());
  ch.add_station({40, 0}, rx);

  for (int i = 0; i < 200; ++i) {
    sim.at(SimTime::from_ms(i + 1), [&, i] {
      (void)i;
      ch.transmit(s0, tsf_frame(0, 0), 36_us);
    });
  }
  sim.run_until(1_sec);
  ASSERT_EQ(rx.infos.size(), 200u);
  for (const RxInfo& info : rx.infos) {
    const double actual_us = (info.delivered - info.tx_start).to_us();
    EXPECT_LT(std::abs(actual_us - info.nominal_delay_us), 5.0);
  }
}

TEST(Channel, OverlappingTransmissionsCollide) {
  sim::Simulator sim(4);
  Channel ch(sim, no_loss_phy());
  Recorder rx;
  const auto s0 = ch.add_station({0, 0}, ignored());
  const auto s1 = ch.add_station({5, 0}, ignored());
  ch.add_station({10, 0}, rx);

  sim.at(1_ms, [&] { ch.transmit(s0, tsf_frame(0, 1), 36_us); });
  sim.at(1_ms + 10_us, [&] { ch.transmit(s1, tsf_frame(1, 2), 36_us); });
  sim.run_until(1_sec);

  EXPECT_TRUE(rx.frames.empty());  // both corrupted
  EXPECT_EQ(ch.stats().collided_transmissions, 2u);
}

TEST(Channel, BackToBackTransmissionsDoNotCollide) {
  sim::Simulator sim(5);
  Channel ch(sim, no_loss_phy());
  Recorder rx;
  const auto s0 = ch.add_station({0, 0}, ignored());
  const auto s1 = ch.add_station({5, 0}, ignored());
  ch.add_station({10, 0}, rx);

  sim.at(1_ms, [&] { ch.transmit(s0, tsf_frame(0, 1), 36_us); });
  sim.at(1_ms + 40_us, [&] { ch.transmit(s1, tsf_frame(1, 2), 36_us); });
  sim.run_until(1_sec);

  EXPECT_EQ(rx.frames.size(), 2u);
  EXPECT_EQ(ch.stats().collided_transmissions, 0u);
}

TEST(Channel, OnlyOverlappingTransmissionsCollide) {
  sim::Simulator sim(6);
  Channel ch(sim, no_loss_phy());
  std::vector<std::size_t> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(ch.add_station({static_cast<double>(i), 0},
                                 ignored()));
  }
  Recorder rx;
  ch.add_station({20, 0}, rx);
  sim.at(1_ms, [&] { ch.transmit(ids[0], tsf_frame(0, 1), 36_us); });
  sim.at(1_ms + 5_us, [&] { ch.transmit(ids[1], tsf_frame(1, 2), 36_us); });
  sim.at(1_ms + 50_us, [&] { ch.transmit(ids[2], tsf_frame(2, 3), 36_us); });
  sim.run_until(1_sec);
  // First two overlap ([0, 36us] and [5us, 41us]) and collide; the third
  // starts at +50us, clear of both, and is delivered intact.
  EXPECT_EQ(ch.stats().collided_transmissions, 2u);
  ASSERT_EQ(rx.frames.size(), 1u);
  EXPECT_EQ(rx.frames[0].tsf().timestamp_us, 3);
}

TEST(Channel, PacketErrorRateDropsIndependently) {
  sim::Simulator sim(7);
  PhyParams phy = no_loss_phy();
  phy.packet_error_rate = 0.3;
  Channel ch(sim, phy);
  Recorder rx;
  const auto s0 = ch.add_station({0, 0}, ignored());
  ch.add_station({10, 0}, rx);
  constexpr int kSends = 2000;
  for (int i = 0; i < kSends; ++i) {
    sim.at(SimTime::from_ms(1 + i), [&] {
      ch.transmit(s0, tsf_frame(0, 0), 36_us);
    });
  }
  sim.run_until(10_sec);
  const double rate = static_cast<double>(rx.frames.size()) / kSends;
  EXPECT_NEAR(rate, 0.7, 0.05);
  EXPECT_EQ(ch.stats().per_drops, kSends - rx.frames.size());
}

TEST(Channel, NotListeningReceivesNothingAndResumes) {
  sim::Simulator sim(8);
  Channel ch(sim, no_loss_phy());
  Recorder rx;
  const auto s0 = ch.add_station({0, 0}, ignored());
  const auto s1 = ch.add_station({10, 0}, rx);
  ch.set_listening(s1, false);
  sim.at(1_ms, [&] { ch.transmit(s0, tsf_frame(0, 1), 36_us); });
  sim.at(10_ms, [&] { ch.set_listening(s1, true); });
  sim.at(20_ms, [&] { ch.transmit(s0, tsf_frame(0, 2), 36_us); });
  sim.run_until(1_sec);
  ASSERT_EQ(rx.frames.size(), 1u);
  EXPECT_EQ(rx.frames[0].tsf().timestamp_us, 2);
}

TEST(Channel, HalfDuplexSuppression) {
  sim::Simulator sim(9);
  Channel ch(sim, no_loss_phy());
  Recorder r0;
  Recorder r1;
  const auto s0 = ch.add_station({0, 0}, r0);
  const auto s1 = ch.add_station({5, 0}, r1);
  // Overlapping: both collide, and even aside from corruption neither may
  // hear the other while transmitting.
  sim.at(1_ms, [&] { ch.transmit(s0, tsf_frame(0, 1), 36_us); });
  sim.at(1_ms + 1_us, [&] { ch.transmit(s1, tsf_frame(1, 2), 36_us); });
  sim.run_until(1_sec);
  EXPECT_TRUE(r0.frames.empty());
  EXPECT_TRUE(r1.frames.empty());
}

TEST(Channel, CarrierSenseDetectionWindow) {
  sim::Simulator sim(10);
  PhyParams phy = no_loss_phy();
  Channel ch(sim, phy);
  const auto s0 = ch.add_station({0, 0}, ignored());
  const auto s1 = ch.add_station({3, 0}, ignored());

  const SimTime start = 1_ms;
  sim.at(start, [&] { ch.transmit(s0, tsf_frame(0, 1), 36_us); });
  sim.run_until(10_sec);

  const SimTime prop = propagation_delay({0, 0}, {3, 0});
  // Within CCA latency of tx start: undetectable.
  EXPECT_FALSE(ch.would_detect_busy(s1, start + prop + 2_us));
  // After CCA latency: busy.
  EXPECT_TRUE(ch.would_detect_busy(s1, start + prop + 5_us));
  // During the frame: busy.
  EXPECT_TRUE(ch.would_detect_busy(s1, start + 30_us));
  // Just after the frame, within the IFS guard: still busy.
  EXPECT_TRUE(ch.would_detect_busy(s1, start + 36_us + prop + 10_us));
  // Well after: idle.
  EXPECT_FALSE(ch.would_detect_busy(s1, start + 36_us + prop +
                                            phy.ifs_guard + 1_us));
}

TEST(Channel, BytesOnAirAccounting) {
  sim::Simulator sim(11);
  Channel ch(sim, no_loss_phy());
  const auto s0 = ch.add_station({0, 0}, ignored());
  ch.add_station({1, 0}, ignored());
  sim.at(1_ms, [&] { ch.transmit(s0, tsf_frame(0, 1), 36_us); });
  sim.run_until(1_sec);
  EXPECT_EQ(ch.stats().bytes_on_air, 56u);
  EXPECT_EQ(ch.stats().transmissions, 1u);
}

// The finite-range fast path (uniform grid over station positions) must
// select exactly the same receiver sets as the brute-force distance test at
// arbitrary random placements — including stations sitting on cell
// boundaries, duplicated positions, and ranges close to the cell size.
TEST(Channel, GridMatchesBruteForceAtRandomPlacements) {
  for (const double range_m : {40.0, 120.0, 350.0}) {
    sim::Simulator sim(13);
    PhyParams phy = no_loss_phy();
    phy.radio_range_m = range_m;
    Channel ch(sim, phy);

    std::uint64_t mix = 99;
    std::vector<Position> pos;
    std::deque<Recorder> rx;  // stable addresses for the channel
    constexpr int kStations = 60;
    for (int i = 0; i < kStations; ++i) {
      Position p;
      if (i == 7) {
        p = pos[3];  // exact duplicate: distance 0 must stay in range
      } else if (i == 11) {
        p = {range_m, 0.0};  // exactly range_m from any station at origin
      } else if (i == 12) {
        p = {0.0, 0.0};
      } else {
        p = {static_cast<double>(sim::splitmix64(mix) % 5000) / 10.0,
             static_cast<double>(sim::splitmix64(mix) % 5000) / 10.0};
      }
      pos.push_back(p);
      rx.emplace_back();
      ch.add_station(p, rx.back());
    }

    // One transmission per station, spaced far apart so nothing collides.
    for (int i = 0; i < kStations; ++i) {
      sim.at(SimTime::from_ms(2 * (i + 1)),
             [&ch, i] { ch.transmit(static_cast<std::size_t>(i),
                                    tsf_frame(static_cast<NodeId>(i), i),
                                    36_us); });
    }
    sim.run_until(1_sec);

    for (int receiver = 0; receiver < kStations; ++receiver) {
      std::vector<int> expected;
      for (int sender = 0; sender < kStations; ++sender) {
        if (sender == receiver) continue;
        if (distance_m(pos[static_cast<std::size_t>(sender)],
                       pos[static_cast<std::size_t>(receiver)]) <= range_m) {
          expected.push_back(sender);
        }
      }
      std::vector<int> got;
      for (const Frame& f :
           rx[static_cast<std::size_t>(receiver)].frames) {
        got.push_back(static_cast<int>(f.tsf().timestamp_us));
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << "range " << range_m << " receiver "
                               << receiver;
    }
  }
}

// Carrier sense must honor the same range cut-off as delivery.
TEST(Channel, FiniteRangeLimitsCarrierSense) {
  sim::Simulator sim(14);
  PhyParams phy = no_loss_phy();
  phy.radio_range_m = 100.0;
  Channel ch(sim, phy);
  const auto s0 = ch.add_station({0, 0}, ignored());
  const auto near = ch.add_station({50, 0},
                                   ignored());
  const auto far = ch.add_station({150, 0},
                                  ignored());
  sim.at(1_ms, [&] { ch.transmit(s0, tsf_frame(0, 1), 36_us); });
  sim.run_until(10_ms);
  EXPECT_TRUE(ch.would_detect_busy(near, 1_ms + 20_us));
  EXPECT_FALSE(ch.would_detect_busy(far, 1_ms + 20_us));
}

TEST(Propagation, SpeedOfLight) {
  EXPECT_NEAR(propagation_delay({0, 0}, {299.792458, 0}).to_us(), 1.0, 1e-9);
  EXPECT_EQ(propagation_delay({5, 5}, {5, 5}).ps, 0);
  EXPECT_NEAR(distance_m({0, 0}, {3, 4}), 5.0, 1e-12);
}

}  // namespace
}  // namespace sstsp::mac

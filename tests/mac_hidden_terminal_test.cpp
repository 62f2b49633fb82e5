// Range-limited channel semantics: reception range, per-receiver
// interference (hidden terminal), and range-aware carrier sense — on the
// single kernel, and at the exact range boundaries on both kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

#include "mac/channel.h"
#include "mac/sharded_channel.h"
#include "sim/shard_exec.h"
#include "sim/simulator.h"

namespace sstsp::mac {
namespace {

using namespace sstsp::sim::literals;

struct Recorder final : Receiver {
  std::vector<Frame> frames;
  void receive(const Frame& f, const RxInfo&) override { frames.push_back(f); }
};

/// A station whose receptions the test does not look at.
Receiver& ignored() {
  static struct final : Receiver {
    void receive(const Frame&, const RxInfo&) override {}
  } none;
  return none;
}

Frame beacon(NodeId sender, std::int64_t ts) {
  Frame f;
  f.sender = sender;
  f.air_bytes = 56;
  f.body = TsfBeaconBody{ts};
  return f;
}

PhyParams ranged_phy(double range_m) {
  PhyParams phy;
  phy.packet_error_rate = 0.0;
  phy.radio_range_m = range_m;
  return phy;
}

TEST(RangedChannel, OutOfRangeStationsHearNothing) {
  sim::Simulator sim(1);
  Channel ch(sim, ranged_phy(50.0));
  Recorder near;
  Recorder far;
  const auto tx = ch.add_station({0, 0}, ignored());
  ch.add_station({40, 0}, near);
  ch.add_station({80, 0}, far);
  sim.at(1_ms, [&] { ch.transmit(tx, beacon(0, 1), 36_us); });
  sim.run_until(1_sec);
  EXPECT_EQ(near.frames.size(), 1u);
  EXPECT_TRUE(far.frames.empty());
}

TEST(RangedChannel, HiddenTerminalCollidesOnlyInTheMiddle) {
  // Classic A --- M --- B line: A and B cannot hear each other (hidden),
  // M hears both.  Simultaneous transmissions from A and B are corrupted
  // at M but received intact by A's and B's *own* neighbours.
  sim::Simulator sim(2);
  Channel ch(sim, ranged_phy(50.0));
  Recorder at_m;
  Recorder near_a;
  Recorder near_b;
  const auto a = ch.add_station({0, 0}, ignored());
  const auto b = ch.add_station({80, 0}, ignored());
  ch.add_station({40, 0}, at_m);    // hears both A and B
  ch.add_station({-30, 0}, near_a);  // hears only A
  ch.add_station({110, 0}, near_b);  // hears only B

  sim.at(1_ms, [&] { ch.transmit(a, beacon(0, 1), 36_us); });
  sim.at(1_ms + 5_us, [&] { ch.transmit(b, beacon(1, 2), 36_us); });
  sim.run_until(1_sec);

  EXPECT_TRUE(at_m.frames.empty());  // corrupted by the overlap
  ASSERT_EQ(near_a.frames.size(), 1u);
  EXPECT_EQ(near_a.frames[0].sender, 0u);
  ASSERT_EQ(near_b.frames.size(), 1u);
  EXPECT_EQ(near_b.frames[0].sender, 1u);
}

TEST(RangedChannel, CarrierSenseIsRangeLimited) {
  sim::Simulator sim(3);
  Channel ch(sim, ranged_phy(50.0));
  const auto tx = ch.add_station({0, 0}, ignored());
  const auto near = ch.add_station({30, 0}, ignored());
  const auto far = ch.add_station({90, 0}, ignored());
  sim.at(1_ms, [&] { ch.transmit(tx, beacon(0, 1), 36_us); });
  sim.run_until(2_sec);
  const sim::SimTime mid = 1_ms + 20_us;
  EXPECT_TRUE(ch.would_detect_busy(near, mid));
  EXPECT_FALSE(ch.would_detect_busy(far, mid));  // cannot sense: hidden
}

// The range is inclusive: a station exactly at the radio range receives,
// one just past it does not, and with no range everyone receives.
TEST(RangedChannel, ReceptionRangeIsInclusive) {
  sim::Simulator sim(4);
  Channel limited(sim, ranged_phy(50.0));
  Channel unlimited(sim, ranged_phy(0.0));
  Recorder at_range;
  Recorder past_range;
  Recorder far;
  const auto tx =
      limited.add_station({0, 0}, ignored());
  limited.add_station({50, 0}, at_range);
  limited.add_station({50.1, 0}, past_range);
  const auto tx2 =
      unlimited.add_station({0, 0}, ignored());
  unlimited.add_station({1e6, 0}, far);
  sim.at(1_ms, [&] {
    limited.transmit(tx, beacon(0, 1), 36_us);
    unlimited.transmit(tx2, beacon(0, 2), 36_us);
  });
  sim.run_until(1_sec);
  EXPECT_EQ(at_range.frames.size(), 1u);
  EXPECT_TRUE(past_range.frames.empty());
  EXPECT_EQ(far.frames.size(), 1u);
}

TEST(RangedChannel, SpatialReuseDeliversBothFrames) {
  // Two far-apart transmitters overlapping in time: each neighbourhood
  // receives its own frame (no global collision).
  sim::Simulator sim(5);
  Channel ch(sim, ranged_phy(50.0));
  Recorder left;
  Recorder right;
  const auto a = ch.add_station({0, 0}, ignored());
  const auto b = ch.add_station({300, 0}, ignored());
  ch.add_station({20, 0}, left);
  ch.add_station({320, 0}, right);
  sim.at(1_ms, [&] { ch.transmit(a, beacon(0, 1), 36_us); });
  sim.at(1_ms, [&] { ch.transmit(b, beacon(1, 2), 36_us); });
  sim.run_until(1_sec);
  EXPECT_EQ(left.frames.size(), 1u);
  EXPECT_EQ(right.frames.size(), 1u);
  EXPECT_EQ(ch.stats().collided_transmissions, 0u);
}

// ---- boundary cases, mac::Channel vs a one-shard ShardedWorld -------------
//
// The shared reception code (mac::RadioMedium) narrows its interference
// scan to senders within 2r of the frame's sender and its carrier-sense
// scan to records inside a time window; both cuts must be exact, and a
// frame evaluated at a shard's barrier must fare as one evaluated at its
// end.  Each case runs the same script on both kernels and requires
// identical receptions, collision counts and probes.

constexpr double kRange = 50.0;

struct ScriptedTx {
  std::size_t station;
  sim::SimTime at;
};

struct Probe {
  std::size_t station;
  sim::SimTime at;
};

/// Appends the sender of every frame a station receives to its list.
struct SenderLog final : Receiver {
  explicit SenderLog(std::vector<NodeId>& out) : heard(&out) {}
  void receive(const Frame& f, const RxInfo&) override {
    heard->push_back(f.sender);
  }
  std::vector<NodeId>* heard;
};

struct Outcome {
  std::vector<std::vector<NodeId>> heard;  ///< per station: senders heard
  std::uint64_t collided{0};
  std::vector<bool> busy;  ///< per probe
  std::deque<SenderLog> logs;  ///< the stations' receivers, into `heard`
};

bool operator==(const Outcome& a, const Outcome& b) {
  return a.heard == b.heard && a.collided == b.collided && a.busy == b.busy;
}

struct Script {
  std::vector<Position> stations;
  std::vector<ScriptedTx> txs;
  std::vector<Probe> probes;
};

constexpr sim::SimTime kFrame = sim::SimTime::from_us(36);

/// Adds the script's stations to `ch` and schedules its transmissions and
/// carrier-sense probes on `sim`, recording into `out`.
void arm(const Script& script, Medium& ch, sim::Simulator& sim, Outcome& out) {
  out.heard.resize(script.stations.size());
  out.busy.resize(script.probes.size());
  for (std::size_t i = 0; i < script.stations.size(); ++i) {
    ch.add_station(script.stations[i], out.logs.emplace_back(out.heard[i]));
  }
  for (const ScriptedTx& t : script.txs) {
    sim.at(t.at, [&ch, t] {
      ch.transmit(t.station, beacon(static_cast<NodeId>(t.station), 1),
                  kFrame);
    });
  }
  for (std::size_t k = 0; k < script.probes.size(); ++k) {
    const Probe p = script.probes[k];
    sim.at(p.at, [&ch, &out, k, p] {
      out.busy[k] = ch.would_detect_busy(p.station, p.at);
    });
  }
}

Outcome run_legacy(const Script& script) {
  sim::Simulator sim(7);
  Channel ch(sim, ranged_phy(kRange));
  Outcome out;
  arm(script, ch, sim, out);
  sim.run_until(1_sec);
  out.collided = ch.stats().collided_transmissions;
  return out;
}

Outcome run_sharded(const Script& script) {
  const PhyParams phy = ranged_phy(kRange);
  sim::ShardExecutor::Options opt;
  opt.lookahead = std::min(phy.cca_time, phy.rx_latency_min);
  sim::ShardExecutor exec(opt, 7);
  ShardedWorld world(phy, {&exec.shard(0)});
  world.partition(script.stations);
  Outcome out;
  arm(script, world.channel(0), exec.shard(0), out);
  exec.run(
      1_sec, [&](sim::SimTime end) { world.exchange(end); },
      [&](int s, sim::SimTime end) { world.settle(s, end); },
      [&](sim::SimTime end) { world.commit(end); });
  out.collided = world.stats().collided_transmissions;
  return out;
}

Outcome run_both(const Script& script) {
  const Outcome legacy = run_legacy(script);
  const Outcome sharded = run_sharded(script);
  EXPECT_TRUE(legacy == sharded);
  return legacy;
}

// Sender A, receiver M at the midpoint, interferer B exactly 2r from A: B
// is exactly in range of M and must corrupt A's frame there.
TEST(RangeBoundary, InterfererAtTwiceTheRangeCorruptsTheMidpoint) {
  Script s;
  s.stations = {{0, 0}, {kRange, 0}, {2 * kRange, 0}};
  s.txs = {{0, 1_ms}, {2, 1_ms + 5_us}};
  const Outcome o = run_both(s);
  EXPECT_TRUE(o.heard[1].empty());
  EXPECT_EQ(o.collided, 2u);  // both frames are lost at M
}

TEST(RangeBoundary, InterfererJustPastTheMidpointsRangeDoesNot) {
  Script s;
  s.stations = {{0, 0}, {kRange, 0}, {2 * kRange + 1e-6, 0}};
  s.txs = {{0, 1_ms}, {2, 1_ms + 5_us}};
  const Outcome o = run_both(s);
  ASSERT_EQ(o.heard[1].size(), 1u);
  EXPECT_EQ(o.heard[1][0], 0u);
  EXPECT_EQ(o.collided, 0u);
}

// The same line at many angles: the distances now carry rounding, and the
// kernels must still agree on every verdict.
TEST(RangeBoundary, RotatedLinesAgreeAcrossKernels) {
  for (int k = 0; k < 48; ++k) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const double theta = 0.1309 * k;
    const double ux = std::cos(theta);
    const double uy = std::sin(theta);
    Script s;
    s.stations = {{0, 0}, {kRange * ux, kRange * uy},
                  {2 * kRange * ux, 2 * kRange * uy}};
    s.txs = {{0, 1_ms}, {2, 1_ms + 5_us}};
    (void)run_both(s);
  }
}

// M transmits across the start of A's frame and starts its next frame at
// the very instant A's ends.  The frame that was on the air during A's
// decides half duplex: M heard nothing, and nothing collided at M.
TEST(RangeBoundary, HalfDuplexSeesTheFrameOnAirDuringTheReception) {
  Script s;
  s.stations = {{0, 0}, {10, 0}};
  s.txs = {{1, 1_ms - 30_us}, {0, 1_ms}, {1, 1_ms + 36_us}};
  const Outcome o = run_both(s);
  EXPECT_TRUE(o.heard[1].empty());
  EXPECT_EQ(o.collided, 0u);
}

// Carrier sense at a station exactly at range: busy from start + prop + cca
// through end + prop + ifs_guard inclusive, idle one tick outside.
TEST(RangeBoundary, CarrierSenseEdgesAtExactRange) {
  const PhyParams phy = ranged_phy(kRange);
  const sim::SimTime start = 1_ms;
  const sim::SimTime prop = propagation_from_distance(kRange);
  const sim::SimTime from = start + prop + phy.cca_time;
  const sim::SimTime until = start + kFrame + prop + phy.ifs_guard;
  const sim::SimTime tick{1};
  Script s;
  s.stations = {{0, 0}, {kRange, 0}, {kRange + 1e-6, 0}};
  s.txs = {{0, start}};
  s.probes = {{1, from - tick}, {1, from}, {1, until}, {1, until + tick},
              {2, from}, {2, until}};
  const Outcome o = run_both(s);
  EXPECT_EQ(o.busy,
            (std::vector<bool>{false, true, true, false, false, false}));
}

}  // namespace
}  // namespace sstsp::mac

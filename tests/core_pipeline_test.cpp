#include "core/beacon_security.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <new>
#include <string>
#include <vector>

#include "core/discipline.h"
#include "core/sstsp.h"
#include "crypto/hash_chain.h"
#include "obs/observers.h"
#include "sim/rng.h"
#include "support/hand_net.h"
#include "trace/event_trace.h"

// The allocation test counts calls of the global operator new.  Sanitizer
// runtimes supply their own allocator, which a replacement here would
// clash with, so sanitized builds skip the count.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SSTSP_SANITIZED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define SSTSP_SANITIZED_ALLOCATOR 1
#endif
#endif

#ifndef SSTSP_SANITIZED_ALLOCATOR
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC flags free() on memory from operator new once it inlines these; here
// that pairing is the point.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

namespace sstsp::core {
namespace {

constexpr double kBpUs = 1e5;
constexpr mac::NodeId kSender = 7;

struct Fixture {
  crypto::ChainParams chain{crypto::derive_seed(1, kSender), 64};
  crypto::MuTeslaSchedule schedule{0.0, kBpUs, 64};
  BeaconSigner signer{chain, schedule};
  SenderPipeline pipeline{chain.anchor()};

  mac::SstspBeaconBody beacon(std::int64_t j) {
    return signer.sign(j, static_cast<std::int64_t>(j * kBpUs), kSender);
  }

  PipelineResult feed(const mac::SstspBeaconBody& b) {
    return pipeline.ingest({schedule}, b, kSender,
                           static_cast<double>(b.interval) * kBpUs,
                           static_cast<double>(b.timestamp_us) + 40.0);
  }
};

TEST(SenderPipeline, FirstBeaconBuffersWithoutAuth) {
  Fixture fx;
  const auto r = fx.feed(fx.beacon(1));
  EXPECT_TRUE(r.key_valid);  // j == 1: nothing useful disclosed
  EXPECT_FALSE(r.authenticated.has_value());
  EXPECT_FALSE(r.mac_failed);
}

TEST(SenderPipeline, SecondBeaconAuthenticatesFirst) {
  Fixture fx;
  (void)fx.feed(fx.beacon(1));
  const auto r = fx.feed(fx.beacon(2));
  EXPECT_TRUE(r.key_valid);
  ASSERT_TRUE(r.authenticated.has_value());
  EXPECT_EQ(r.authenticated->interval, 1);
  EXPECT_NEAR(r.authenticated->ts_est_us, 1 * kBpUs + 40.0, 1e-9);
}

TEST(SenderPipeline, SteadyStreamAuthenticatesEachPredecessor) {
  Fixture fx;
  (void)fx.feed(fx.beacon(1));
  for (std::int64_t j = 2; j <= 20; ++j) {
    const auto r = fx.feed(fx.beacon(j));
    EXPECT_TRUE(r.key_valid) << j;
    ASSERT_TRUE(r.authenticated.has_value()) << j;
    EXPECT_EQ(r.authenticated->interval, j - 1);
  }
}

TEST(SenderPipeline, GapDoesNotOrphanStoredBeacon) {
  Fixture fx;
  (void)fx.feed(fx.beacon(1));
  (void)fx.feed(fx.beacon(2));
  // Beacon 3 lost.  Beacon 4's disclosure K_3 hash-derives K_2, so the
  // stored interval-2 beacon still authenticates despite the gap.
  const auto r4 = fx.feed(fx.beacon(4));
  EXPECT_TRUE(r4.key_valid);
  ASSERT_TRUE(r4.authenticated.has_value());
  EXPECT_EQ(r4.authenticated->interval, 2);
  // Beacon 5 authenticates 4 normally.
  const auto r5 = fx.feed(fx.beacon(5));
  ASSERT_TRUE(r5.authenticated.has_value());
  EXPECT_EQ(r5.authenticated->interval, 4);
}

TEST(SenderPipeline, StaleStoredBeaconIsPurgedNotAuthenticated) {
  Fixture fx;
  (void)fx.feed(fx.beacon(1));
  (void)fx.feed(fx.beacon(2));
  // A sender heard again only after a long silence: the stored interval-2
  // beacon's timestamp belongs to a long-gone clock epoch, so it must be
  // discarded rather than handed to the solver as a fresh sample.
  const auto r = fx.feed(fx.beacon(30));
  EXPECT_TRUE(r.key_valid);
  EXPECT_FALSE(r.authenticated.has_value());
  EXPECT_FALSE(r.mac_failed);
  // The post-silence beacon itself re-seeds the buffer normally.
  const auto r31 = fx.feed(fx.beacon(31));
  ASSERT_TRUE(r31.authenticated.has_value());
  EXPECT_EQ(r31.authenticated->interval, 30);
}

TEST(SenderPipeline, TamperedStoredBeaconFailsMac) {
  Fixture fx;
  auto b1 = fx.beacon(1);
  b1.timestamp_us += 50;  // attacker shifted the stored beacon's timestamp
  (void)fx.feed(b1);
  const auto r = fx.feed(fx.beacon(2));
  EXPECT_TRUE(r.key_valid);
  EXPECT_FALSE(r.authenticated.has_value());
  EXPECT_TRUE(r.mac_failed);
}

TEST(SenderPipeline, ForgedDisclosedKeyRejected) {
  Fixture fx;
  (void)fx.feed(fx.beacon(1));
  auto b2 = fx.beacon(2);
  b2.disclosed_key[3] ^= 0xFF;
  const auto r = fx.feed(b2);
  EXPECT_FALSE(r.key_valid);
  EXPECT_FALSE(r.authenticated.has_value());
}

TEST(SenderPipeline, WrongSenderIdentityFailsMac) {
  Fixture fx;
  (void)fx.feed(fx.beacon(1));
  // Verify against a different claimed sender: the MAC covers the sender id
  // through the serialized body.
  auto b2 = fx.beacon(2);
  const auto r = fx.pipeline.ingest({fx.schedule}, b2, /*sender=*/kSender + 1,
                                    2 * kBpUs, 2 * kBpUs + 40.0);
  // Key still chains to the anchor (same chain), but beacon 1's MAC check
  // re-serializes with the wrong sender and fails.
  EXPECT_TRUE(r.key_valid);
  EXPECT_TRUE(r.mac_failed);
  EXPECT_FALSE(r.authenticated.has_value());
}

TEST(SenderPipeline, ReplayedOldIntervalDoesNotRewind) {
  Fixture fx;
  for (std::int64_t j = 1; j <= 5; ++j) (void)fx.feed(fx.beacon(j));
  // Replaying interval 3's beacon: its disclosed key (K_2) is stale.
  const auto r = fx.feed(fx.beacon(3));
  EXPECT_FALSE(r.key_valid);
}

TEST(BeaconSigner, ProducesVerifiableFrames) {
  Fixture fx;
  const auto body = fx.beacon(10);
  EXPECT_EQ(body.interval, 10);
  const auto bytes =
      mac::serialize_unsecured_beacon(body.timestamp_us, kSender);
  crypto::MuTeslaSigner signer(fx.chain, fx.schedule);
  EXPECT_TRUE(crypto::MuTeslaVerifier::verify_mac(
      signer.key_for_interval(10), 10,
      std::span<const std::uint8_t>(bytes.data(), bytes.size()), body.mac));
  EXPECT_EQ(body.disclosed_key, signer.disclosed_key(10));
}

TEST(BeaconSigner, SignsIntervalsBeforeItsFirstOneExactly) {
  Fixture fx;
  const crypto::MuTeslaSigner full(fx.chain, fx.schedule);
  // The first sign() walks the chain only down to interval 30's key; the
  // intervals signed after it include earlier ones, which need positions
  // above that walk, and the chain's last interval.
  for (const std::int64_t j : {30, 31, 29, 10, 1, 30, 64, 2}) {
    const auto body = fx.beacon(j);
    const auto bytes =
        mac::serialize_unsecured_beacon(body.timestamp_us, kSender);
    const auto want = full.sign(
        j, std::span<const std::uint8_t>(bytes.data(), bytes.size()));
    EXPECT_EQ(body.mac, want.mac) << "j=" << j;
    EXPECT_EQ(body.disclosed_key, want.disclosed_key) << "j=" << j;
  }
}

TEST(SerializeBeacon, EncodesTimestampSenderAndLevel) {
  const auto a = mac::serialize_unsecured_beacon(1234567, 1);
  const auto b = mac::serialize_unsecured_beacon(1234567, 2);
  const auto c = mac::serialize_unsecured_beacon(1234568, 1);
  const auto d = mac::serialize_unsecured_beacon(1234567, 1, /*level=*/3);
  EXPECT_EQ(a.size(), 13u);  // 8 B timestamp + 4 B sender + 1 B level
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

bool same_result(const PipelineResult& a, const PipelineResult& b) {
  if (a.key_valid != b.key_valid || a.mac_failed != b.mac_failed ||
      a.authenticated.has_value() != b.authenticated.has_value()) {
    return false;
  }
  if (!a.authenticated) return true;
  const auto& x = *a.authenticated;
  const auto& y = *b.authenticated;
  return x.interval == y.interval && x.arrival_hw_us == y.arrival_hw_us &&
         x.ts_est_us == y.ts_est_us && x.level == y.level &&
         x.trace_id == y.trace_id;
}

/// The deque-based SenderPipeline::ingest that the inline two-slot buffer
/// replaced, kept as written as the oracle for it.
class DequePipeline {
 public:
  DequePipeline(crypto::Digest anchor, crypto::MuTeslaSchedule schedule)
      : verifier_(anchor), schedule_(schedule) {}

  PipelineResult ingest(const mac::SstspBeaconBody& body, mac::NodeId sender,
                        double arrival_hw_us, double ts_est_us,
                        std::uint64_t trace_id) {
    PipelineResult result;
    const std::int64_t j = body.interval;

    if (j == 1) {
      result.key_valid = true;
    } else {
      result.key_valid =
          verifier_.verify_key({schedule_}, j - 1, body.disclosed_key);
      if (!result.key_valid) return result;

      constexpr std::int64_t kMaxAuthWalk = 2;
      while (!buffer_.empty() &&
             buffer_.front().interval + kMaxAuthWalk < j - 1) {
        buffer_.pop_front();
      }
      for (auto it = buffer_.rbegin(); it != buffer_.rend(); ++it) {
        const StoredBeacon& stored = *it;
        if (stored.interval >= j) continue;
        const auto distance =
            static_cast<std::size_t>((j - 1) - stored.interval);
        const crypto::Digest key =
            distance == 0 ? body.disclosed_key
                          : crypto::hash_times(body.disclosed_key, distance);
        const auto bytes = mac::serialize_unsecured_beacon(
            stored.timestamp_us, sender, stored.level);
        if (crypto::MuTeslaVerifier::check_mac(
                nullptr, key, stored.interval,
                std::span<const std::uint8_t>(bytes.data(), bytes.size()),
                stored.mac)) {
          result.authenticated = PipelineResult::Authenticated{
              stored.interval, stored.arrival_hw_us, stored.ts_est_us,
              stored.level, stored.trace_id};
        } else {
          result.mac_failed = true;
        }
        buffer_.erase(buffer_.begin(), it.base());
        break;
      }
    }

    buffer_.push_back(StoredBeacon{j, body.timestamp_us, body.level, body.mac,
                                   arrival_hw_us, ts_est_us, trace_id});
    while (buffer_.size() > 2) buffer_.pop_front();
    return result;
  }

 private:
  struct StoredBeacon {
    std::int64_t interval;
    std::int64_t timestamp_us;
    std::uint8_t level;
    crypto::Digest128 mac;
    double arrival_hw_us;
    double ts_est_us;
    std::uint64_t trace_id;
  };

  crypto::MuTeslaVerifier verifier_;
  crypto::MuTeslaSchedule schedule_;
  std::deque<StoredBeacon> buffer_;
};

TEST(SenderPipeline, MatchesTheDequeOracleOnRandomBeaconSequences) {
  constexpr std::size_t kChain = 96;
  const crypto::ChainParams chain{crypto::derive_seed(3, kSender), kChain};
  const crypto::MuTeslaSchedule schedule{0.0, kBpUs, kChain};
  const crypto::Digest anchor = chain.anchor();
  // Every interval's honest beacon, signed once; levels vary so the stored
  // level is part of what must come back out.
  BeaconSigner signer{chain, schedule};
  std::vector<mac::SstspBeaconBody> honest(kChain + 1);
  for (std::size_t j = 1; j <= kChain; ++j) {
    const auto ji = static_cast<std::int64_t>(j);
    honest[j] = signer.sign(ji, ji * static_cast<std::int64_t>(kBpUs) + 17,
                            kSender, static_cast<std::uint8_t>(j % 3));
  }

  sim::Rng rng(20261018);
  std::uint64_t steps = 0, auths = 0, mac_failures = 0, key_rejects = 0;
  for (int seq = 0; seq < 10000; ++seq) {
    SenderPipeline lean(anchor);
    DequePipeline oracle(anchor, schedule);
    std::vector<mac::SstspBeaconBody> sent;
    auto j = static_cast<std::int64_t>(rng.uniform_int(1, 8));
    const auto length = rng.uniform_int(4, 32);
    for (std::uint64_t k = 0;
         k < length && j <= static_cast<std::int64_t>(kChain); ++k) {
      mac::SstspBeaconBody body = honest[static_cast<std::size_t>(j)];
      mac::NodeId sender = kSender;
      switch (rng.uniform_int(0, 11)) {
        case 0:  // replay of anything sent earlier in the sequence
          if (!sent.empty()) {
            body = sent[rng.uniform_int(0, sent.size() - 1)];
          }
          break;
        case 1:  // stale interval
          body = honest[static_cast<std::size_t>(std::max<std::int64_t>(
              1, j - static_cast<std::int64_t>(rng.uniform_int(1, 5))))];
          break;
        case 2:  // tampered MAC
          body.mac[rng.uniform_int(0, body.mac.size() - 1)] ^=
              static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
          break;
        case 3:  // tampered timestamp: the stored MAC will not match
          body.timestamp_us +=
              static_cast<std::int64_t>(rng.uniform_int(1, 100));
          break;
        case 4:  // forged disclosed key
          body.disclosed_key[rng.uniform_int(0, 31)] ^=
              static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
          break;
        case 5:  // a claimed sender that did not sign it
          sender = kSender + 1;
          break;
        default:
          break;
      }
      const double arrival = rng.uniform(0.0, 1e7);
      const double ts_est = rng.uniform(0.0, 1e7);
      const std::uint64_t trace_id = rng();
      const PipelineResult got =
          lean.ingest({schedule}, body, sender, arrival, ts_est, trace_id);
      const PipelineResult want =
          oracle.ingest(body, sender, arrival, ts_est, trace_id);
      ASSERT_TRUE(same_result(got, want))
          << "sequence " << seq << ", step " << k << ", interval "
          << body.interval;
      ++steps;
      auths += got.authenticated.has_value() ? 1 : 0;
      mac_failures += got.mac_failed ? 1 : 0;
      key_rejects += got.key_valid ? 0 : 1;
      sent.push_back(body);
      j += static_cast<std::int64_t>(rng.uniform_int(0, 4));
    }
  }
  // Every outcome the buffer decides on is exercised many times.
  EXPECT_GT(steps, 100000u);
  EXPECT_GT(auths, 10000u);
  EXPECT_GT(mac_failures, 10000u);
  EXPECT_GT(key_rejects, 10000u);
}

TEST(SenderPipeline, SteadyStateIngestAndSampleAllocateNothing) {
#ifdef SSTSP_SANITIZED_ALLOCATOR
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#else
  constexpr std::size_t kWarmup = 64;
  constexpr std::size_t kCounted = 10000;
  constexpr std::size_t kChain = kWarmup + kCounted + 400;
  const crypto::ChainParams chain{crypto::derive_seed(4, kSender), kChain};
  const crypto::MuTeslaSchedule schedule{0.0, kBpUs, kChain};
  BeaconSigner signer{chain, schedule};
  std::vector<mac::SstspBeaconBody> bodies(kChain + 1);
  for (std::size_t j = 1; j <= kChain; ++j) {
    const auto ji = static_cast<std::int64_t>(j);
    bodies[j] =
        signer.sign(ji, ji * static_cast<std::int64_t>(kBpUs) + 40, kSender);
  }

  for (const std::string name : {"paper", "rls", "holdover"}) {
    SstspConfig cfg;
    cfg.discipline.name = name;
    const auto disc = make_discipline(cfg);
    SenderPipeline pipeline(chain.anchor());
    std::size_t j = 1;
    std::uint64_t samples = 0;
    // One beacon drought every 1 000 intervals, longer than any window's
    // age-out horizon, so the counted stretch also prunes whole epochs.
    auto feed = [&] {
      if (j % 1000 == 0) j += 24;
      const auto& body = bodies[j];
      const double arrival = static_cast<double>(j) * kBpUs * (1.0 + 2e-5);
      const PipelineResult res = pipeline.ingest(
          {schedule}, body, kSender, arrival, static_cast<double>(body.timestamp_us), j);
      if (res.authenticated) {
        (void)disc->add_sample(RefSample{res.authenticated->arrival_hw_us,
                                         res.authenticated->ts_est_us},
                               kBpUs);
        ++samples;
      }
      ++j;
    };
    for (std::size_t i = 0; i < kWarmup; ++i) feed();
    const std::uint64_t before = g_allocations.load();
    for (std::size_t i = 0; i < kCounted; ++i) feed();
    EXPECT_EQ(g_allocations.load() - before, 0u) << name;
    EXPECT_GT(samples, kCounted * 9 / 10) << name;
  }
#endif
}

/// One SSTSP follower fed signed beacons by hand from more senders than it
/// keeps tracks for, every sender once per interval in rotation.
struct RotationCell : rig::HandNet {
  static constexpr mac::NodeId kSenders = 10;
  static constexpr std::size_t kChain = 400;

  obs::Observers observers{trace_only(), {}, sim};
  proto::Station& receiver = add_station(0.0, 0.0);
  Sstsp* sstsp{nullptr};
  crypto::MuTeslaSchedule schedule;
  std::vector<BeaconSigner> signers;
  std::uint64_t next_trace_id{1};

  static obs::ObserverConfig trace_only() {
    obs::ObserverConfig config;
    config.trace_capacity = 1 << 16;
    config.collect_metrics = false;
    return config;
  }

  RotationCell() : HandNet(21, mac::PhyParams{}, kChain) {
    schedule = {cfg.t0_us, phy.beacon_period.to_us(), kChain};
    register_chain(0);
    signers.reserve(kSenders);
    for (mac::NodeId s = 1; s <= kSenders; ++s) {
      const crypto::ChainParams chain{crypto::derive_seed(21, s), kChain};
      directory.register_node(s);
      signers.emplace_back(chain, schedule);
    }
    receiver.set_observers(observers.for_stations());
    auto proto =
        std::make_unique<Sstsp>(receiver, cfg, directory, Sstsp::Options{});
    sstsp = proto.get();
    receiver.set_protocol(std::move(proto));
    receiver.power_on();
  }

  [[nodiscard]] std::uint64_t auth_ok() const {
    return observers.trace()->count(trace::EventKind::kAuthOk);
  }

  /// Delivers sender s's interval-j beacon as the k-th frame of interval
  /// j, a few hundred microseconds after its nominal emission time.
  void deliver(mac::NodeId s, std::int64_t j, int k) {
    const auto at_us = static_cast<std::int64_t>(schedule.emission_time(j)) +
                       200 + 20 * k;
    const sim::SimTime at = sim::SimTime::from_us(at_us);
    sim.run_until(at);
    mac::Frame frame;
    frame.sender = s;
    frame.trace_id = next_trace_id++;
    frame.body = signers[s - 1].sign(j, at_us, s);
    sstsp->on_receive(frame, mac::RxInfo{at, 0.0, at});
  }

  /// Runs one interval of the rotation, every sender once in turn.  A
  /// delivery authenticates exactly one beacon when its sender is still
  /// tracked (the track holds the sender's interval j-1 beacon, which this
  /// beacon's key authenticates) and none when it finds no track: a fresh
  /// track starts from the sender's anchor with an empty buffer.  Returns
  /// the deliveries that found no track.
  int rotate(std::int64_t j) {
    int fresh = 0;
    for (int k = 0; k < static_cast<int>(kSenders); ++k) {
      const auto s = static_cast<mac::NodeId>(
          1 + (j + k) % static_cast<std::int64_t>(kSenders));
      const std::uint64_t before = auth_ok();
      deliver(s, j, k);
      const std::uint64_t authenticated = auth_ok() - before;
      EXPECT_LE(authenticated, 1u) << "sender " << s << ", interval " << j;
      if (authenticated == 0) {
        ++fresh;
      } else if (was_fresh[s]) {
        ++reverified;  // tracked afresh last interval, verified from its anchor
      }
      was_fresh[s] = authenticated == 0;
    }
    return fresh;
  }

  /// Per sender: did its last delivery find no track?
  std::array<bool, kSenders + 1> was_fresh{};
  /// Deliveries that authenticated right after a fresh track's first one.
  int reverified{0};
};

TEST(SenderTracks, EvictedSenderIsVerifiedAgainFromItsAnchor) {
  RotationCell cell;
  ASSERT_EQ(cell.sstsp->state(), Sstsp::State::kFollower);
  // Interval 1 meets every sender for the first time.
  EXPECT_EQ(cell.rotate(1), static_cast<int>(RotationCell::kSenders));
  cell.was_fresh.fill(false);  // from here on a fresh track means eviction
  // Ten senders over eight tracks: at the start of each later interval two
  // senders are untracked, and each track made for them evicts another.
  constexpr int kUntracked =
      static_cast<int>(RotationCell::kSenders - Sstsp::kMaxSenderTracks);
  for (std::int64_t j = 2; j <= 40; ++j) {
    EXPECT_GE(cell.rotate(j), kUntracked) << "interval " << j;
  }
  // Evicted senders came back, and their next beacons authenticated
  // against their anchors.
  EXPECT_GT(cell.reverified, 0);

  // A restart drops every track.  The returning senders are first heard
  // in the coarse scan, then tracked afresh.
  cell.receiver.power_off();
  cell.receiver.power_on();
  std::int64_t j = 41;
  for (; j < 80; ++j) {
    cell.sim.run_until(
        sim::SimTime::from_us(static_cast<std::int64_t>(
            cell.schedule.emission_time(j))));
    if (cell.sstsp->state() != Sstsp::State::kCoarse) break;
    for (int k = 0; k < static_cast<int>(RotationCell::kSenders); ++k) {
      cell.deliver(static_cast<mac::NodeId>(1 + k), j, k);
    }
  }
  ASSERT_EQ(cell.sstsp->state(), Sstsp::State::kFollower);
  EXPECT_EQ(cell.rotate(j), static_cast<int>(RotationCell::kSenders));
  for (const std::int64_t end = j + 20; ++j < end;) {
    EXPECT_GE(cell.rotate(j), kUntracked) << "interval " << j;
  }

  const proto::ProtocolStats& stats = cell.sstsp->stats();
  EXPECT_EQ(stats.rejected_key, 0u);
  EXPECT_EQ(stats.rejected_mac, 0u);
  EXPECT_EQ(stats.rejected_interval, 0u);
  EXPECT_EQ(stats.rejected_guard, 0u);
}

}  // namespace
}  // namespace sstsp::core

// Micro-benchmarks for the crypto substrate: the on-the-fly-hash premise.
//
// The paper's design rests on hash operations being "three to four orders
// of magnitude faster than asymmetric operations" and cheap enough to run
// per beacon with no measurable delay.  These benchmarks quantify every
// cryptographic step on the beacon path.
#include <benchmark/benchmark.h>

#include <cstring>

#include "crypto/hash_chain.h"
#include "crypto/mutesla.h"
#include "mac/frame.h"

namespace {

using namespace sstsp;

void BM_Sha256_32B(benchmark::State& state) {
  crypto::Digest input{};
  input[0] = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hash_once(input));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_Sha256_32B);

void BM_Sha256_1KiB(benchmark::State& state) {
  std::vector<std::uint8_t> buf(1024, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::Sha256::hash(std::span<const std::uint8_t>(buf)));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_HmacSha256_BeaconBody(benchmark::State& state) {
  const auto body = mac::serialize_unsecured_beacon(123456789, 42);
  crypto::Digest key{};
  key[5] = 9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256_128(
        std::span<const std::uint8_t>(key.data(), key.size()),
        std::span<const std::uint8_t>(body.data(), body.size())));
  }
}
BENCHMARK(BM_HmacSha256_BeaconBody);

void BM_ChainElement_Checkpointed(benchmark::State& state) {
  const crypto::ChainParams params{crypto::derive_seed(1, 1),
                                   static_cast<std::size_t>(state.range(0))};
  crypto::CheckpointedChain chain(params, 128);
  std::size_t i = params.length;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.element(--i));
    if (i == 0) i = params.length;
  }
}
BENCHMARK(BM_ChainElement_Checkpointed)->Arg(12000);

void BM_FractalTraversalStep(benchmark::State& state) {
  const crypto::ChainParams params{crypto::derive_seed(1, 2),
                                   static_cast<std::size_t>(state.range(0))};
  auto traversal = std::make_unique<crypto::FractalTraversal>(params);
  for (auto _ : state) {
    if (traversal->exhausted()) {
      state.PauseTiming();
      traversal = std::make_unique<crypto::FractalTraversal>(params);
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(traversal->next());
  }
}
BENCHMARK(BM_FractalTraversalStep)->Arg(4096)->Arg(12000);

void BM_MuTeslaVerifyStep(benchmark::State& state) {
  const std::size_t n = 12000;
  const crypto::ChainParams params{crypto::derive_seed(1, 3), n};
  const crypto::MuTeslaSchedule schedule{0.0, 1e5, n};
  crypto::MuTeslaSigner signer(params, schedule);
  // Pre-derive sequential keys so the loop measures only verification.
  std::vector<crypto::Digest> keys;
  keys.reserve(2000);
  for (std::int64_t j = 1; j <= 2000; ++j) {
    keys.push_back(signer.key_for_interval(j));
  }
  crypto::MuTeslaVerifier verifier(signer.anchor());
  std::int64_t j = 0;
  for (auto _ : state) {
    if (j == 2000) {
      state.PauseTiming();
      verifier = crypto::MuTeslaVerifier(signer.anchor());
      j = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(
        verifier.verify_key({schedule}, j + 1,
                            keys[static_cast<std::size_t>(j)]));
    ++j;
  }
}
BENCHMARK(BM_MuTeslaVerifyStep);

void BM_BeaconSign(benchmark::State& state) {
  const std::size_t n = 12000;
  const crypto::ChainParams params{crypto::derive_seed(1, 4), n};
  const crypto::MuTeslaSchedule schedule{0.0, 1e5, n};
  crypto::MuTeslaSigner signer(params, schedule);
  const auto body = mac::serialize_unsecured_beacon(987654321, 7);
  std::int64_t j = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer.mac(
        j, std::span<const std::uint8_t>(body.data(), body.size())));
    j = (j % 10000) + 1;
  }
}
BENCHMARK(BM_BeaconSign);

}  // namespace

BENCHMARK_MAIN();

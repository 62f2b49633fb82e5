#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

// x86 SHA extensions: compiled in whenever the compiler supports per-function
// target attributes, selected at runtime via CPUID so the same binary runs on
// machines without SHA-NI.  The accelerated path is bit-identical to the
// scalar one (FIPS 180-4 either way); tests/crypto_sha256_test exercises the
// known-answer vectors on whichever path the host machine dispatches to.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SSTSP_SHA_NI_POSSIBLE 1
#include <immintrin.h>
#endif

namespace sstsp::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

[[nodiscard]] constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

#if defined(SSTSP_SHA_NI_POSSIBLE)

/// One SHA-256 compression using the SHA-NI instructions.  Structure follows
/// the canonical Intel schedule: state held as two 128-bit lanes (ABEF/CDGH),
/// message quads advanced with sha256msg1/sha256msg2 while sha256rnds2
/// retires four rounds per pair of calls.  Round constants are loaded from
/// kRoundConstants (lane order matches the array order).
__attribute__((target("sha,ssse3,sse4.1"))) void process_block_shani(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* block) {
  const auto* kptr = kRoundConstants.data();
  const auto k = [kptr](int i) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(kptr + i));
  };
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  // Load a..h and swizzle into the ABEF / CDGH lane layout.
  __m128i tmp =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data()));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);        // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);             // CDGH
  const __m128i abef_save = state0;
  const __m128i cdgh_save = state1;

  __m128i msg;
  // Rounds 0-3
  __m128i msg0 = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block)), kByteSwap);
  msg = _mm_add_epi32(msg0, k(0));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

  // Rounds 4-7
  __m128i msg1 = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16)),
      kByteSwap);
  msg = _mm_add_epi32(msg1, k(4));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  msg0 = _mm_sha256msg1_epu32(msg0, msg1);

  // Rounds 8-11
  __m128i msg2 = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 32)),
      kByteSwap);
  msg = _mm_add_epi32(msg2, k(8));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  msg1 = _mm_sha256msg1_epu32(msg1, msg2);

  // Rounds 12-15
  __m128i msg3 = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 48)),
      kByteSwap);
  msg = _mm_add_epi32(msg3, k(12));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmp = _mm_alignr_epi8(msg3, msg2, 4);
  msg0 = _mm_add_epi32(msg0, tmp);
  msg0 = _mm_sha256msg2_epu32(msg0, msg3);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  msg2 = _mm_sha256msg1_epu32(msg2, msg3);

  // Rounds 16-51: steady-state schedule, message quads rotating through
  // msg0..msg3.
  __m128i* quads[4] = {&msg0, &msg1, &msg2, &msg3};
  for (int round = 16; round < 52; round += 4) {
    const int q = (round / 4) & 3;
    __m128i& cur = *quads[q];
    __m128i& nxt = *quads[(q + 1) & 3];
    __m128i& prv = *quads[(q + 3) & 3];
    msg = _mm_add_epi32(cur, k(round));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(cur, prv, 4);
    nxt = _mm_add_epi32(nxt, tmp);
    nxt = _mm_sha256msg2_epu32(nxt, cur);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    prv = _mm_sha256msg1_epu32(prv, cur);
  }

  // Rounds 52-55
  msg = _mm_add_epi32(msg1, k(52));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmp = _mm_alignr_epi8(msg1, msg0, 4);
  msg2 = _mm_add_epi32(msg2, tmp);
  msg2 = _mm_sha256msg2_epu32(msg2, msg1);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

  // Rounds 56-59
  msg = _mm_add_epi32(msg2, k(56));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmp = _mm_alignr_epi8(msg2, msg1, 4);
  msg3 = _mm_add_epi32(msg3, tmp);
  msg3 = _mm_sha256msg2_epu32(msg3, msg2);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

  // Rounds 60-63
  msg = _mm_add_epi32(msg3, k(60));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

  state0 = _mm_add_epi32(state0, abef_save);
  state1 = _mm_add_epi32(state1, cdgh_save);

  // Swizzle ABEF/CDGH back to a..h and store.
  tmp = _mm_shuffle_epi32(state0, 0x1B);     // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);  // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data() + 4), state1);
}

[[nodiscard]] bool host_has_sha_ni() {
  return __builtin_cpu_supports("sha") != 0;
}

const bool kUseShaNi = host_has_sha_ni();

#endif  // SSTSP_SHA_NI_POSSIBLE

}  // namespace

void Sha256::reset() {
  state_ = kInitialState;
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha256::process_block(const std::uint8_t* block) {
#if defined(SSTSP_SHA_NI_POSSIBLE)
  if (kUseShaNi) {
    process_block_shani(state_, block);
    return;
  }
#endif
  std::array<std::uint32_t, 64> w;
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Digest Sha256::finish() {
  // One update with the whole tail: 0x80, zeros up to 56 mod 64, then the
  // big-endian bit length.  That is 9..72 bytes, ending on a block boundary.
  const std::uint64_t bit_len = total_bytes_ * 8;
  const std::size_t zeros = (buffered_ < 56 ? 55 : 119) - buffered_;
  std::array<std::uint8_t, 72> tail{};
  tail[0] = 0x80;
  for (std::size_t i = 0; i < 8; ++i) {
    tail[1 + zeros + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(std::span<const std::uint8_t>(tail.data(), 1 + zeros + 8));

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  reset();
  return out;
}

Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Digest Sha256::hash(std::string_view s) {
  Sha256 ctx;
  ctx.update(s);
  return ctx.finish();
}

Digest128 truncate128(const Digest& d) {
  Digest128 out;
  std::copy_n(d.begin(), out.size(), out.begin());
  return out;
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string s;
  s.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    s.push_back(kHex[b >> 4]);
    s.push_back(kHex[b & 0xF]);
  }
  return s;
}

}  // namespace sstsp::crypto

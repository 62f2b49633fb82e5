#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace sstsp::crypto {
namespace {

std::string hex_of(std::string_view msg) {
  const Digest d = Sha256::hash(msg);
  return to_hex(std::span<const std::uint8_t>(d.data(), d.size()));
}

// FIPS 180-4 / NIST CAVP reference vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_of(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_of("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  const Digest d = ctx.finish();
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "block boundaries in interesting ways.";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 ctx;
    ctx.update(std::string_view(msg).substr(0, split));
    ctx.update(std::string_view(msg).substr(split));
    EXPECT_EQ(ctx.finish(), Sha256::hash(msg)) << "split=" << split;
  }
}

TEST(Sha256, ExactBlockBoundaries) {
  // 55/56/64/119/120 bytes hit the padding edge cases.
  for (const std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 ctx;
    for (const char c : msg) {
      ctx.update(std::string_view(&c, 1));
    }
    EXPECT_EQ(ctx.finish(), Sha256::hash(msg)) << "len=" << len;
  }
}

TEST(Sha256, PaddingEdgeKnownAnswers) {
  // Fixed digests of 'x' * len (computed with Python's hashlib) at the
  // lengths where the padding fits, just fits, or spills into a new block.
  const std::vector<std::pair<std::size_t, std::string>> cases = {
      {55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072"},
      {56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e"},
      {63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2"},
      {64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c"},
      {119,
       "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c"},
  };
  for (const auto& [len, digest] : cases) {
    EXPECT_EQ(hex_of(std::string(len, 'x')), digest) << "len=" << len;
  }
}

TEST(Sha256, ContextReusableAfterFinish) {
  Sha256 ctx;
  ctx.update("abc");
  const Digest first = ctx.finish();
  ctx.update("abc");
  EXPECT_EQ(ctx.finish(), first);
}

TEST(Sha256, Truncate128TakesPrefix) {
  const Digest d = Sha256::hash("abc");
  const Digest128 t = truncate128(d);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], d[i]);
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>(t.data(), t.size())),
            "ba7816bf8f01cfea414140de5dae2223");
}

TEST(Sha256, ToHexFormatting) {
  const std::vector<std::uint8_t> bytes{0x00, 0x0f, 0xa5, 0xff};
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>(bytes.data(), bytes.size())),
            "000fa5ff");
}

}  // namespace
}  // namespace sstsp::crypto

#include "crypto/keccak.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "types/address.hpp"

namespace blockpilot::crypto {
namespace {

std::string hex(const Digest& d) {
  return blockpilot::hex_encode(std::span(d));
}

TEST(Keccak, EmptyInput) {
  // The canonical Keccak-256("") digest — also Ethereum's empty code hash.
  EXPECT_EQ(hex(keccak256("")),
            "0xc5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
}

TEST(Keccak, Abc) {
  EXPECT_EQ(hex(keccak256("abc")),
            "0x4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
}

TEST(Keccak, QuickBrownFox) {
  EXPECT_EQ(hex(keccak256("The quick brown fox jumps over the lazy dog")),
            "0x4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15");
}

TEST(Keccak, EmptyRlpString) {
  // keccak256(0x80): the canonical empty-MPT root.
  const std::uint8_t byte = 0x80;
  EXPECT_EQ(hex(keccak256(std::span(&byte, 1))),
            "0x56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421");
}

TEST(Keccak, IncrementalMatchesOneShot) {
  const std::string payload(1000, 'x');
  Keccak256 h;
  // Feed in awkward chunk sizes crossing the 136-byte rate boundary.
  std::size_t pos = 0;
  for (const std::size_t chunk : {1ul, 7ul, 135ul, 136ul, 137ul, 500ul}) {
    const std::size_t take = std::min(chunk, payload.size() - pos);
    h.update(std::span(reinterpret_cast<const std::uint8_t*>(payload.data()) + pos,
                       take));
    pos += take;
  }
  h.update(std::span(reinterpret_cast<const std::uint8_t*>(payload.data()) + pos,
                     payload.size() - pos));
  EXPECT_EQ(h.finalize(), keccak256(payload));
}

TEST(Keccak, FinalizeResetsState) {
  Keccak256 h;
  h.update(std::span(reinterpret_cast<const std::uint8_t*>("abc"), 3));
  (void)h.finalize();
  EXPECT_EQ(h.finalize(), keccak256(""));  // fresh state after finalize
}

TEST(Keccak, RateBoundaryLengths) {
  // Exactly rate-sized and rate+-1 inputs exercise the padding edge cases.
  for (const std::size_t len : {135ul, 136ul, 137ul, 271ul, 272ul, 273ul}) {
    const std::string payload(len, 'q');
    Keccak256 h;
    h.update(std::span(reinterpret_cast<const std::uint8_t*>(payload.data()),
                       payload.size()));
    EXPECT_EQ(h.finalize(), keccak256(payload)) << "len=" << len;
  }
}

TEST(Keccak, MultiBlockGoldenDigests) {
  // Pinned digests around the one- and two-block rate boundaries, so a
  // rewrite of the permutation is checked against fixed answers, not only
  // against itself.  Payload byte i is (31 * i + 7) mod 256.
  const std::pair<std::size_t, const char*> kGolden[] = {
      {135, "0xadee8145bb33dc0320ad44945eeeb391e4668f0f7c69ccbbf6550a7cba245e52"},
      {136, "0xeaccfc5aa7bf6bf1941809ef7cc9ee6a2fa306a7dd1de3f2e8504849b0a5e3c4"},
      {137, "0xea0e0b9657469f0b4f53604f1068ab4bd4a5e7b0a458d24a78f1fe2ec7bd4db0"},
      {271, "0x407871b419dca15e033dd9777154af2116326a7849eacadbc46b1618055ee0a2"},
      {272, "0xc62d6a60780d4e03408834062e58004a549cff1c7487c0b9a130810621b0fcae"},
      {273, "0xb47ca693c8d675afa3b0b644da6dc96613f07c6f8971f9a0077ed6b7c994561d"},
  };
  for (const auto& [len, digest] : kGolden) {
    std::vector<std::uint8_t> payload(len);
    for (std::size_t i = 0; i < len; ++i)
      payload[i] = static_cast<std::uint8_t>(31 * i + 7);
    EXPECT_EQ(hex(keccak256(std::span<const std::uint8_t>(payload))), digest)
        << "len=" << len;
  }
}

TEST(Keccak, DistinctInputsDistinctDigests) {
  EXPECT_NE(keccak256("a"), keccak256("b"));
  EXPECT_NE(keccak256(""), keccak256(std::string(1, '\0')));
}

}  // namespace
}  // namespace blockpilot::crypto

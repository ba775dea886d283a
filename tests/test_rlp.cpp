#include "rlp/rlp.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "chain/codec.hpp"
#include "support/rng.hpp"

namespace blockpilot::rlp {
namespace {

std::string hex(const Bytes& b) {
  return blockpilot::hex_encode(std::span(b));
}

Bytes str_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

Bytes to_bytes(std::span<const std::uint8_t> s) {
  return Bytes(s.begin(), s.end());
}

// Canonical vectors from the Ethereum RLP specification.
TEST(Rlp, SpecVectors) {
  Encoder dog;
  dog.add("dog");
  EXPECT_EQ(hex(dog.take()), "0x83646f67");

  Encoder list;
  list.begin_list().add("cat").add("dog").end_list();
  EXPECT_EQ(hex(list.take()), "0xc88363617483646f67");

  Encoder empty;
  empty.add("");
  EXPECT_EQ(hex(empty.take()), "0x80");

  Encoder zero;
  zero.add(std::uint64_t{0});
  EXPECT_EQ(hex(zero.take()), "0x80");  // integer 0 == empty string

  Encoder fifteen;
  fifteen.add(std::uint64_t{15});
  EXPECT_EQ(hex(fifteen.take()), "0x0f");

  Encoder k1024;
  k1024.add(std::uint64_t{1024});
  EXPECT_EQ(hex(k1024.take()), "0x820400");

  Encoder empty_list;
  empty_list.begin_list().end_list();
  EXPECT_EQ(hex(empty_list.take()), "0xc0");

  // Set-theoretic nesting: [ [], [[]], [ [], [[]] ] ].
  Encoder nested;
  nested.begin_list()
      .begin_list().end_list()
      .begin_list().begin_list().end_list().end_list()
      .begin_list()
          .begin_list().end_list()
          .begin_list().begin_list().end_list().end_list()
      .end_list()
      .end_list();
  EXPECT_EQ(hex(nested.take()), "0xc7c0c1c0c3c0c1c0");
}

TEST(Rlp, LongString) {
  // 56 bytes crosses the short/long string boundary: 0xb8 prefix.
  const std::string lorem =
      "Lorem ipsum dolor sit amet, consectetur adipisicing elit";
  ASSERT_EQ(lorem.size(), 56u);
  Encoder enc;
  enc.add(lorem);
  const Bytes out = enc.take();
  EXPECT_EQ(out[0], 0xb8);
  EXPECT_EQ(out[1], 56);
  EXPECT_EQ(out.size(), 58u);
}

TEST(Rlp, BoundaryLengths) {
  for (const std::size_t len : {0ul, 1ul, 55ul, 56ul, 255ul, 256ul, 1000ul}) {
    const std::string payload(len, 'z');
    Encoder enc;
    enc.add(payload);
    const Bytes encoded = enc.take();
    Reader in{std::span(encoded)};
    EXPECT_FALSE(in.next_is_list());
    EXPECT_EQ(to_bytes(in.bytes()), str_bytes(payload)) << "len=" << len;
    in.finish();
    EXPECT_TRUE(in.ok());
  }
}

TEST(Rlp, SingleByteBelow0x80EncodesItself) {
  for (unsigned b = 0; b < 0x80; ++b) {
    const std::uint8_t byte = static_cast<std::uint8_t>(b);
    Encoder enc;
    enc.add(std::span(&byte, 1));
    const Bytes out = enc.take();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], byte);
  }
}

TEST(Rlp, IntegerRoundTrip) {
  for (const std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 255ull, 256ull, 0xffffffffull,
        0xdeadbeefcafebabeull}) {
    const Bytes encoded = encode(v);
    Reader in{std::span(encoded)};
    EXPECT_EQ(in.u64(), v);
    in.finish();
    EXPECT_TRUE(in.ok());
  }
}

TEST(Rlp, U256RoundTrip) {
  const U256 big = U256::from_hex(
      "0xffeeddccbbaa99887766554433221100ffeeddccbbaa998877665544332211");
  const Bytes encoded = encode(big);
  Reader in{std::span(encoded)};
  EXPECT_EQ(in.u256(), big);
  EXPECT_TRUE(in.ok());
}

TEST(Rlp, NestedListDecode) {
  Encoder enc;
  enc.begin_list()
      .add("hello")
      .begin_list().add(std::uint64_t{1}).add(std::uint64_t{2}).end_list()
      .add(std::uint64_t{3})
      .end_list();
  const Bytes encoded = enc.take();
  Reader in{std::span(encoded)};
  ASSERT_TRUE(in.next_is_list());
  Reader top = in.list();
  EXPECT_EQ(top.count(), 3u);
  EXPECT_EQ(to_bytes(top.bytes()), str_bytes("hello"));
  ASSERT_TRUE(top.next_is_list());
  Reader inner = top.list();
  EXPECT_EQ(inner.u64(), 1u);
  EXPECT_EQ(inner.u64(), 2u);
  EXPECT_TRUE(inner.at_end());
  EXPECT_EQ(top.u64(), 3u);
  EXPECT_TRUE(top.at_end());
  in.finish();
  EXPECT_TRUE(in.ok());
}

TEST(Rlp, AddressAndHashRoundTrip) {
  const Address addr = Address::from_id(0xabcdef);
  const Hash256 h = Hash256::of(std::span<const std::uint8_t>{});
  Encoder enc;
  enc.begin_list().add(addr).add(h).end_list();
  const Bytes encoded = enc.take();
  Reader in{std::span(encoded)};
  Reader list = in.list();
  EXPECT_EQ(list.address(), addr);
  EXPECT_EQ(list.hash(), h);
  list.finish();
  EXPECT_TRUE(in.ok());
}

// Property sweep: random nested structures must round-trip.
class RlpFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RlpFuzzTest, RandomStringListsRoundTrip) {
  Xoshiro256 rng(GetParam());
  for (int iter = 0; iter < 100; ++iter) {
    const std::size_t count = rng.below(8);
    std::vector<Bytes> strings;
    Encoder enc;
    enc.begin_list();
    for (std::size_t i = 0; i < count; ++i) {
      Bytes s(rng.below(120), 0);
      for (auto& b : s) b = static_cast<std::uint8_t>(rng.below(256));
      enc.add(std::span(s));
      strings.push_back(std::move(s));
    }
    enc.end_list();
    const Bytes encoded = enc.take();
    Reader in{std::span(encoded)};
    Reader list = in.list();
    ASSERT_EQ(list.count(), count);
    for (std::size_t i = 0; i < count; ++i)
      EXPECT_EQ(to_bytes(list.bytes()), strings[i]);
    EXPECT_TRUE(list.at_end());
    // raw() hands back an item's whole encoding, prefix included.
    Reader again{std::span(encoded)};
    EXPECT_EQ(to_bytes(again.raw()), encoded);
    again.finish();
    EXPECT_TRUE(in.ok() && again.ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RlpFuzzTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

Bytes concat(Bytes head, std::size_t filler) {
  head.insert(head.end(), filler, 0xaa);
  return head;
}

// Malformed input never throws or aborts the reader: the first bad read
// clears ok(), and from then on the reader is at its end.
TEST(RlpReader, MalformedInputFailsCleanly) {
  const auto read_bytes = [](Reader& r) { r.bytes(); };
  const struct Case {
    const char* name;
    Bytes input;
    std::function<void(Reader&)> read;
  } cases[] = {
      // The 8-byte length wraps `pos + len` around to a small number.
      {"overflowing long-string length",
       concat({0xbf, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf8}, 16),
       read_bytes},
      {"truncated string", {0x83, 0x61, 0x62}, read_bytes},
      {"truncated length", {0xb9, 0x01}, read_bytes},
      {"list payload overrun", {0xc2, 0x83, 0x61, 0x62, 0x63},
       [](Reader& r) { r.list().bytes(); }},
      {"trailing bytes after the top item", {0x80, 0x00}, read_bytes},
      {"u64 wider than 8 bytes", concat({0x89}, 9),
       [](Reader& r) { r.u64(); }},
      {"19-byte address", concat({0x93}, 19), [](Reader& r) { r.address(); }},
      {"33-byte hash", concat({0xa1}, 33), [](Reader& r) { r.hash(); }},
      {"non-minimal long form", concat({0xb8, 0x05}, 5), read_bytes},
      {"non-minimal single byte", {0x81, 0x05}, read_bytes},
      {"list where a string is due", {0xc0}, read_bytes},
      {"empty input", {}, read_bytes},
  };
  for (const Case& c : cases) {
    Reader in{std::span(c.input)};
    EXPECT_NO_THROW(c.read(in)) << c.name;
    in.finish();
    EXPECT_FALSE(in.ok()) << c.name;
    EXPECT_TRUE(in.at_end()) << c.name;
    EXPECT_TRUE(in.bytes().empty()) << c.name;
    EXPECT_EQ(in.u64(), 0u) << c.name;
  }
}

TEST(RlpReader, SubReaderFailureReachesItsParent) {
  Encoder enc;
  enc.begin_list().add("not an address").end_list().add("next");
  const Bytes encoded = enc.take();
  Reader in{std::span(encoded)};
  Reader list = in.list();
  list.address();
  EXPECT_FALSE(in.ok());
  EXPECT_TRUE(in.at_end());  // a decode loop over `in` ends here
  EXPECT_TRUE(in.bytes().empty());
}

// `depth` lists, each the only item of the next: [[[...[]...]]].
Bytes nested_lists(std::size_t depth) {
  std::vector<Bytes> prefixes;
  std::size_t payload = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    Bytes prefix;
    if (payload <= 55) {
      prefix.push_back(static_cast<std::uint8_t>(0xc0 + payload));
    } else {
      for (std::size_t v = payload; v != 0; v >>= 8)
        prefix.insert(prefix.begin(), static_cast<std::uint8_t>(v));
      prefix.insert(prefix.begin(),
                    static_cast<std::uint8_t>(0xf7 + prefix.size()));
    }
    payload += prefix.size();
    prefixes.push_back(std::move(prefix));
  }
  Bytes out;
  for (auto it = prefixes.rbegin(); it != prefixes.rend(); ++it)
    out.insert(out.end(), it->begin(), it->end());
  return out;
}

// The codec walks a fixed schema, so nesting depth costs no stack: a deep
// list fails the schema at its first level and aborts on the top-level
// check instead of overflowing the stack.
TEST(RlpReaderDeathTest, DeepListAbortsOnTheAssertNotTheStack) {
  const Bytes deep = nested_lists(200'000);
  ASSERT_GT(deep.size(), 700'000u);
  EXPECT_DEATH(chain::decode_announcement(std::span(deep)),
               "malformed block announcement");
}

}  // namespace
}  // namespace blockpilot::rlp

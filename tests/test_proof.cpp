#include "trie/proof.hpp"

#include <gtest/gtest.h>

#include "rlp/rlp.hpp"
#include "state/world_state.hpp"
#include "support/rng.hpp"

namespace blockpilot::trie {
namespace {

Bytes bytes(std::string_view s) { return Bytes(s.begin(), s.end()); }

struct ProofFixture : ::testing::Test {
  MerklePatriciaTrie trie;
  Hash256 root;

  void SetUp() override {
    for (const auto& [k, v] : std::vector<std::pair<std::string, std::string>>{
             {"do", "verb"},
             {"dog", "puppy"},
             {"doge", "coin"},
             {"horse", "stallion"},
             {"dodge", "car"}}) {
      const Bytes kb = bytes(k), vb = bytes(v);
      trie.put(std::span(kb), std::span(vb));
    }
    root = trie.root_hash();
  }

  ProofVerdict round_trip(std::string_view key) {
    const Bytes kb = bytes(key);
    const Proof proof = prove(trie, std::span(kb));
    return verify_proof(root, std::span(kb), proof);
  }
};

TEST_F(ProofFixture, MembershipProofsVerify) {
  for (const auto& [k, v] : std::vector<std::pair<std::string, std::string>>{
           {"do", "verb"}, {"dog", "puppy"}, {"doge", "coin"},
           {"horse", "stallion"}, {"dodge", "car"}}) {
    const ProofVerdict verdict = round_trip(k);
    EXPECT_TRUE(verdict.ok) << k;
    ASSERT_TRUE(verdict.value.has_value()) << k;
    EXPECT_EQ(*verdict.value, bytes(v)) << k;
  }
}

TEST_F(ProofFixture, AbsenceProofsVerify) {
  for (const char* missing : {"cat", "dogs", "d", "dodgeball", "zebra"}) {
    const ProofVerdict verdict = round_trip(missing);
    EXPECT_TRUE(verdict.ok) << missing;
    EXPECT_FALSE(verdict.value.has_value()) << missing;
  }
}

TEST_F(ProofFixture, WrongRootRejected) {
  const Bytes kb = bytes("dog");
  const Proof proof = prove(trie, std::span(kb));
  Hash256 bad_root = root;
  bad_root.bytes[0] ^= 1;
  EXPECT_FALSE(verify_proof(bad_root, std::span(kb), proof).ok);
}

TEST_F(ProofFixture, TamperedNodeRejected) {
  const Bytes kb = bytes("dog");
  Proof proof = prove(trie, std::span(kb));
  ASSERT_FALSE(proof.nodes.empty());
  proof.nodes.back()[0] ^= 0x01;
  const ProofVerdict verdict = verify_proof(root, std::span(kb), proof);
  EXPECT_TRUE(!verdict.ok || !verdict.value.has_value());
}

TEST_F(ProofFixture, ProofForOtherKeyDoesNotProveThisKey) {
  const Bytes dog = bytes("dog");
  const Bytes horse = bytes("horse");
  const Proof dog_proof = prove(trie, std::span(dog));
  const ProofVerdict verdict =
      verify_proof(root, std::span(horse), dog_proof);
  // The dog proof cannot demonstrate horse's membership.
  EXPECT_FALSE(verdict.ok && verdict.value.has_value());
}

TEST_F(ProofFixture, TruncatedProofRejected) {
  const Bytes kb = bytes("dog");
  Proof proof = prove(trie, std::span(kb));
  ASSERT_GT(proof.nodes.size(), 1u);
  proof.nodes.pop_back();
  const ProofVerdict verdict = verify_proof(root, std::span(kb), proof);
  EXPECT_FALSE(verdict.ok && verdict.value.has_value());
}

// Proof bytes come from outside the process: a malformed node that even
// hashes to the claimed root is a failed verification, not an abort.
TEST(Proof, MalformedNodeFailsVerification) {
  Bytes overflowing = {0xbf, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf8};
  overflowing.resize(overflowing.size() + 16, 0xaa);
  Bytes branch_with_trailing_byte(1, 0xd1);  // 17 empty strings, then 0x00
  branch_with_trailing_byte.resize(18, 0x80);
  branch_with_trailing_byte.push_back(0x00);
  const std::vector<std::pair<const char*, Bytes>> bad_nodes = {
      {"list header with no payload", {0xc1}},
      {"overflowing long-string length", overflowing},
      {"3-item list", {0xc3, 0x80, 0x80, 0x80}},
      {"leaf with an empty path", {0xc2, 0x80, 0x80}},
      {"string instead of a list", {0x83, 0x61, 0x62, 0x63}},
      {"truncated branch", {0xd1, 0x80, 0x80}},
      {"branch with a trailing byte", branch_with_trailing_byte},
  };
  const Bytes key = bytes("dog");
  for (const auto& [name, bad] : bad_nodes) {
    const Hash256 root = Hash256::of(std::span(bad));
    const ProofVerdict verdict =
        verify_proof(root, std::span(key), Proof{{bad}});
    EXPECT_FALSE(verdict.ok) << name;
    EXPECT_FALSE(verdict.value.has_value()) << name;
  }
}

TEST(Proof, EmptyTrieAbsence) {
  MerklePatriciaTrie trie;
  const Bytes kb = bytes("anything");
  const Proof proof = prove(trie, std::span(kb));
  EXPECT_TRUE(proof.nodes.empty());
  const ProofVerdict verdict =
      verify_proof(trie.root_hash(), std::span(kb), proof);
  EXPECT_TRUE(verdict.ok);
  EXPECT_FALSE(verdict.value.has_value());
}

TEST(Proof, SingleEntryTrie) {
  MerklePatriciaTrie trie;
  const Bytes k = bytes("solo"), v = bytes("value");
  trie.put(std::span(k), std::span(v));
  const Proof proof = prove(trie, std::span(k));
  const ProofVerdict verdict =
      verify_proof(trie.root_hash(), std::span(k), proof);
  EXPECT_TRUE(verdict.ok);
  ASSERT_TRUE(verdict.value.has_value());
  EXPECT_EQ(*verdict.value, v);
}

TEST(Proof, WorldStateAccountProof) {
  // End-to-end: prove an account's balance cell out of a world-state-sized
  // secure-trie-like structure (raw MPT here; SecureTrie hashes keys, so we
  // prove over the hashed key exactly as a light client would).
  MerklePatriciaTrie accounts;
  Xoshiro256 rng(4242);
  for (int i = 0; i < 500; ++i) {
    const U256 key{rng()};
    const auto kb = key.to_be_bytes();
    const U256 value{rng()};
    const auto enc = rlp::encode(value);
    accounts.put(std::span(kb), std::span(enc));
  }
  const U256 target{0xDEADBEEFu};
  const auto target_bytes = target.to_be_bytes();
  const auto enc = rlp::encode(U256{777});
  accounts.put(std::span(target_bytes), std::span(enc));

  const Hash256 root = accounts.root_hash();
  const Proof proof = prove(accounts, std::span(target_bytes));
  const ProofVerdict verdict =
      verify_proof(root, std::span(target_bytes), proof);
  ASSERT_TRUE(verdict.ok);
  ASSERT_TRUE(verdict.value.has_value());
  rlp::Reader value{std::span(*verdict.value)};
  EXPECT_EQ(value.u256(), U256{777});
  value.finish();
  EXPECT_TRUE(value.ok());
  // Proof is logarithmic, not linear, in the trie size.
  EXPECT_LT(proof.nodes.size(), 12u);
}

// Property sweep: proofs for every key (and some absent keys) of random
// tries must verify against the root.
class ProofFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProofFuzz, AllKeysProvable) {
  Xoshiro256 rng(GetParam());
  MerklePatriciaTrie trie;
  std::vector<Bytes> keys;
  for (int i = 0; i < 120; ++i) {
    Bytes key(rng.below(5) + 1, 0);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.below(8));
    Bytes value(rng.below(50) + 1, 0);
    for (auto& b : value) b = static_cast<std::uint8_t>(rng.below(256));
    trie.put(std::span(key), std::span(value));
    keys.push_back(std::move(key));
  }
  const Hash256 root = trie.root_hash();

  for (const Bytes& key : keys) {
    const Proof proof = prove(trie, std::span(key));
    const ProofVerdict verdict = verify_proof(root, std::span(key), proof);
    EXPECT_TRUE(verdict.ok);
    ASSERT_TRUE(verdict.value.has_value());
    EXPECT_EQ(*verdict.value, *trie.get(std::span(key)));
  }
  for (int i = 0; i < 40; ++i) {
    Bytes key(rng.below(6) + 1, 0);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.below(16));
    if (trie.get(std::span(key)).has_value()) continue;
    const Proof proof = prove(trie, std::span(key));
    const ProofVerdict verdict = verify_proof(root, std::span(key), proof);
    EXPECT_TRUE(verdict.ok);
    EXPECT_FALSE(verdict.value.has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProofFuzz,
                         ::testing::Values(3u, 1337u, 99991u));

}  // namespace
}  // namespace blockpilot::trie

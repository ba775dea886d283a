#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <unordered_map>
#include <vector>

#include "state/exec_buffer.hpp"
#include "state/read_view.hpp"
#include "state/versioned_state.hpp"
#include "state/world_state.hpp"
#include "support/rng.hpp"

namespace blockpilot::state {
namespace {

const Address kAlice = Address::from_id(1);
const Address kBob = Address::from_id(2);

TEST(WorldState, DefaultsAreZero) {
  WorldState ws;
  EXPECT_EQ(ws.get(StateKey::balance(kAlice)), U256{});
  EXPECT_EQ(ws.get(StateKey::nonce(kAlice)), U256{});
  EXPECT_EQ(ws.get(StateKey::storage(kAlice, U256{7})), U256{});
  EXPECT_EQ(ws.code(kAlice), nullptr);
}

TEST(WorldState, SetAndGetRoundTrip) {
  WorldState ws;
  ws.set(StateKey::balance(kAlice), U256{1000});
  ws.set(StateKey::nonce(kAlice), U256{3});
  ws.set(StateKey::storage(kAlice, U256{7}), U256{42});
  EXPECT_EQ(ws.get(StateKey::balance(kAlice)), U256{1000});
  EXPECT_EQ(ws.get(StateKey::nonce(kAlice)), U256{3});
  EXPECT_EQ(ws.get(StateKey::storage(kAlice, U256{7})), U256{42});
}

TEST(WorldState, EmptyStateRootIsEmptyTrieRoot) {
  WorldState ws;
  EXPECT_EQ(ws.state_root().to_hex(),
            "0x56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421");
}

TEST(WorldState, RootChangesWithState) {
  WorldState ws;
  const Hash256 empty = ws.state_root();
  ws.set(StateKey::balance(kAlice), U256{1});
  const Hash256 one = ws.state_root();
  EXPECT_NE(empty, one);
  ws.set(StateKey::balance(kBob), U256{2});
  const Hash256 two = ws.state_root();
  EXPECT_NE(one, two);
  // Removing Bob's balance restores the earlier root (empty accounts prune).
  ws.set(StateKey::balance(kBob), U256{});
  EXPECT_EQ(ws.state_root(), one);
}

TEST(WorldState, RootIsContentDeterministic) {
  WorldState a, b;
  a.set(StateKey::balance(kAlice), U256{5});
  a.set(StateKey::storage(kBob, U256{1}), U256{9});
  b.set(StateKey::storage(kBob, U256{1}), U256{9});
  b.set(StateKey::balance(kAlice), U256{5});
  EXPECT_EQ(a.state_root(), b.state_root());
}

TEST(WorldState, ZeroStorageWritePrunes) {
  WorldState ws;
  ws.set(StateKey::storage(kAlice, U256{1}), U256{5});
  const Hash256 with_slot = ws.state_root();
  ws.set(StateKey::storage(kAlice, U256{1}), U256{});
  WorldState fresh;
  EXPECT_EQ(ws.state_root(), fresh.state_root());
  EXPECT_NE(with_slot, ws.state_root());
}

TEST(WorldState, CodeAffectsRoot) {
  WorldState plain, coded;
  plain.set(StateKey::balance(kAlice), U256{1});
  coded.set(StateKey::balance(kAlice), U256{1});
  coded.set_code(kAlice, {0x60, 0x00});
  EXPECT_NE(plain.state_root(), coded.state_root());
  // The incremental root encodes the code_hash memo; the oracle hashes the
  // code itself.  Empty code encodes keccak("") like no code at all.
  EXPECT_EQ(coded.state_root(), coded.state_root_full_rebuild());
  WorldState empty_code = plain;
  empty_code.set_code(kAlice, {});
  EXPECT_EQ(empty_code.state_root(), plain.state_root());
  EXPECT_EQ(empty_code.state_root(), empty_code.state_root_full_rebuild());
}

TEST(StateKey, EqualityAndHash) {
  const StateKey b1 = StateKey::balance(kAlice);
  const StateKey b2 = StateKey::balance(kAlice);
  const StateKey n = StateKey::nonce(kAlice);
  const StateKey s1 = StateKey::storage(kAlice, U256{1});
  const StateKey s2 = StateKey::storage(kAlice, U256{2});
  EXPECT_EQ(b1, b2);
  EXPECT_FALSE(b1 == n);
  EXPECT_FALSE(s1 == s2);
  // Balance/nonce keys ignore the slot field.
  StateKey weird = b1;
  weird.slot = U256{99};
  EXPECT_EQ(weird, b1);
  EXPECT_EQ(std::hash<StateKey>{}(b1), std::hash<StateKey>{}(b2));
}

TEST(StateKeyHash, CachedHashMatchesRecompute) {
  const StateKey s = StateKey::storage(kAlice, U256{12345});
  EXPECT_EQ(s.hash, StateKey::compute_hash(s.addr, s.field, s.slot));
  EXPECT_EQ(std::hash<StateKey>{}(s), s.hash);
  StateKey mutated = s;
  mutated.slot = U256{54321};
  mutated.rehash();
  EXPECT_EQ(mutated.hash,
            StateKey::compute_hash(mutated.addr, mutated.field, mutated.slot));
  EXPECT_NE(mutated.hash, s.hash);
}

TEST(StateKeyHash, SlotIgnoredForAccountFields) {
  // operator== ignores the slot for balance/nonce keys; the hash must too,
  // or equal keys would land in different buckets/stripes.
  StateKey b = StateKey::balance(kAlice);
  b.slot = U256{99};
  b.rehash();
  EXPECT_EQ(b, StateKey::balance(kAlice));
  EXPECT_EQ(b.hash, StateKey::balance(kAlice).hash);
}

TEST(StateKeyHash, SequentialStorageSlotsSpreadAcrossStripes) {
  // The sharded store uses hash & 63 as its stripe index.  Sequential
  // storage slots of one hot contract are the worst realistic case: without
  // an avalanche finalizer they would cluster into a few stripes and
  // serialize the executor threads.
  constexpr std::size_t kStripes = 64;
  constexpr std::size_t kKeys = 4096;  // 64 expected per stripe
  std::array<std::size_t, kStripes> counts{};
  for (std::size_t s = 0; s < kKeys; ++s)
    ++counts[StateKey::storage(kAlice, U256{s}).hash & (kStripes - 1)];
  for (std::size_t i = 0; i < kStripes; ++i) {
    EXPECT_GT(counts[i], 0u) << "stripe " << i << " empty";
    EXPECT_LT(counts[i], 160u) << "stripe " << i << " overloaded";
  }
}

TEST(StateKeyHash, SequentialAccountIdsSpreadAcrossStripes) {
  constexpr std::size_t kStripes = 64;
  constexpr std::size_t kKeys = 2048;  // 32 expected per stripe
  std::array<std::size_t, kStripes> counts{};
  for (std::size_t a = 0; a < kKeys; ++a)
    ++counts[StateKey::balance(Address::from_id(a + 1)).hash & (kStripes - 1)];
  for (std::size_t i = 0; i < kStripes; ++i) {
    EXPECT_GT(counts[i], 0u) << "stripe " << i << " empty";
    EXPECT_LT(counts[i], 112u) << "stripe " << i << " overloaded";
  }
}

TEST(StateKeyHash, SingleBitFlipsAvalanche) {
  // Flipping one input bit should flip ~32 of the 64 output bits.  Checks
  // both address bits and slot bits; guards the stamp-slot bit-slice
  // ((hash >> 6) & 0x3fff) as well as the stripe bits.
  double total_flips = 0;
  std::size_t samples = 0;
  const StateKey base_key = StateKey::storage(kAlice, U256{7});
  for (std::size_t byte = 0; byte < base_key.addr.bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      StateKey flipped = base_key;
      flipped.addr.bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
      flipped.rehash();
      const int flips = std::popcount(base_key.hash ^ flipped.hash);
      EXPECT_GE(flips, 8) << "byte " << byte << " bit " << bit;
      total_flips += flips;
      ++samples;
    }
  }
  for (int bit = 0; bit < 256; ++bit) {
    std::uint64_t limbs[4] = {0, 0, 0, 0};
    limbs[bit / 64] = 1ULL << (bit % 64);
    StateKey flipped = base_key;
    flipped.slot =
        base_key.slot ^ U256{limbs[3], limbs[2], limbs[1], limbs[0]};
    flipped.rehash();
    const int flips = std::popcount(base_key.hash ^ flipped.hash);
    EXPECT_GE(flips, 8) << "slot bit " << bit;
    total_flips += flips;
    ++samples;
  }
  const double avg = total_flips / static_cast<double>(samples);
  EXPECT_GT(avg, 26.0);
  EXPECT_LT(avg, 38.0);
}

// MvMemory as the OCC-WSI proposer drives it: the transaction committed as
// version v records at block position v - 1, a snapshot at version s reads
// at index s, and Table[key] > s is written_from(key, s).

TEST(MvMemory, WrittenFromMatchesLatestWriter) {
  // On a quiescent memory, written_from(key, s) must agree with the latest
  // position that wrote the key, for every key and snapshot — including
  // keys that share a stripe.
  WorldState base;
  constexpr std::uint32_t kPositions = 40;
  MvMemory mv(base, kPositions);
  Xoshiro256 rng(0x7E57);
  std::vector<StateKey> keys;
  for (std::size_t a = 0; a < 64; ++a) {
    keys.push_back(StateKey::balance(Address::from_id(a + 1)));
    keys.push_back(StateKey::storage(Address::from_id(a + 1), U256{a}));
  }
  // latest[k] = 1 + last position that wrote k (0 = never written), i.e.
  // the key's latest committed version.
  std::unordered_map<StateKey, std::uint32_t> latest;
  for (std::uint32_t pos = 0; pos < kPositions; ++pos) {
    std::vector<std::pair<StateKey, U256>> ws;
    std::unordered_map<StateKey, bool> seen;
    while (ws.size() < 4) {
      const StateKey& k = keys[rng.below(keys.size())];
      if (seen.try_emplace(k, true).second) ws.emplace_back(k, U256{pos});
    }
    mv.record(pos, 0, ws);
    for (const auto& [k, v] : ws) latest[k] = pos + 1;
  }
  for (const StateKey& k : keys) {
    const std::uint32_t v = latest.contains(k) ? latest[k] : 0;
    const std::uint32_t snaps[] = {0, v > 0 ? v - 1 : 0, v, v + 1,
                                   kPositions, 99};
    for (const std::uint32_t snap : snaps) {
      EXPECT_EQ(mv.written_from(k, snap), v > snap)
          << k.to_string() << " snap=" << snap << " latest=" << v;
    }
  }
}

TEST(MvMemory, SnapshotVisibility) {
  WorldState base;
  base.set(StateKey::balance(kAlice), U256{100});
  MvMemory mv(base, 4);
  const StateKey key = StateKey::balance(kAlice);

  EXPECT_EQ(mv.read(key, 0).value, U256{100});
  mv.record(0, 0, {{key, U256{90}}});
  mv.record(1, 0, {{key, U256{80}}});

  EXPECT_EQ(mv.read(key, 0).value, U256{100});  // old snapshot unaffected
  EXPECT_EQ(mv.read(key, 1).value, U256{90});
  EXPECT_EQ(mv.read(key, 2).value, U256{80});
  EXPECT_EQ(mv.read(key, 4).value, U256{80});  // later snapshot sees latest
  EXPECT_TRUE(mv.written_from(key, 1));
  EXPECT_FALSE(mv.written_from(key, 2));
}

TEST(MvMemory, UntouchedKeysReadBaseAndAreNeverWritten) {
  WorldState base;
  base.set(StateKey::balance(kBob), U256{7});
  MvMemory mv(base, 4);
  mv.record(0, 0, {{StateKey::balance(kAlice), U256{1}}});
  EXPECT_FALSE(mv.written_from(StateKey::balance(kBob), 0));
  const MvMemory::ReadResult r = mv.read(StateKey::balance(kBob), 4);
  EXPECT_EQ(r.kind, MvMemory::ReadKind::kBase);
  EXPECT_EQ(r.value, U256{7});
}

TEST(MvMemory, FlattenProducesFinalState) {
  WorldState base;
  base.set(StateKey::balance(kAlice), U256{100});
  base.set(StateKey::balance(kBob), U256{50});
  MvMemory mv(base, 4);
  mv.record(0, 0, {{StateKey::balance(kAlice), U256{70}}});
  mv.record(1, 0, {{StateKey::storage(kBob, U256{3}), U256{5}}});
  mv.record(2, 0, {{StateKey::balance(kAlice), U256{60}}});

  WorldState out = base;
  mv.flatten_into(out);
  EXPECT_EQ(out.get(StateKey::balance(kAlice)), U256{60});
  EXPECT_EQ(out.get(StateKey::balance(kBob)), U256{50});
  EXPECT_EQ(out.get(StateKey::storage(kBob, U256{3})), U256{5});
}

TEST(ExecBuffer, ReadThroughAndRecord) {
  WorldState ws;
  ws.set(StateKey::balance(kAlice), U256{10});
  const WorldStateView view(ws);
  ExecBuffer buf(view);

  EXPECT_EQ(buf.read(StateKey::balance(kAlice)), U256{10});
  EXPECT_EQ(buf.read_set().size(), 1u);
  EXPECT_EQ(buf.read_set().at(StateKey::balance(kAlice)), U256{10});

  buf.write(StateKey::balance(kAlice), U256{5});
  EXPECT_EQ(buf.read(StateKey::balance(kAlice)), U256{5});  // own write
  EXPECT_EQ(buf.read_set().size(), 1u);  // own-write read not re-recorded
}

TEST(ExecBuffer, WriteSetIsSortedDeterministically) {
  WorldState ws;
  const WorldStateView view(ws);
  ExecBuffer buf(view);
  buf.write(StateKey::storage(kBob, U256{9}), U256{1});
  buf.write(StateKey::balance(kAlice), U256{2});
  buf.write(StateKey::nonce(kAlice), U256{3});
  const auto ws1 = buf.write_set();
  ASSERT_EQ(ws1.size(), 3u);
  EXPECT_TRUE(state_key_less(ws1[0].first, ws1[1].first));
  EXPECT_TRUE(state_key_less(ws1[1].first, ws1[2].first));
}

TEST(ExecBuffer, CheckpointRevert) {
  WorldState ws;
  ws.set(StateKey::balance(kAlice), U256{10});
  const WorldStateView view(ws);
  ExecBuffer buf(view);

  buf.write(StateKey::balance(kAlice), U256{8});
  const std::size_t cp = buf.checkpoint();
  buf.write(StateKey::balance(kAlice), U256{6});
  buf.write(StateKey::balance(kBob), U256{2});
  buf.revert_to(cp);

  EXPECT_EQ(buf.read(StateKey::balance(kAlice)), U256{8});
  EXPECT_EQ(buf.read(StateKey::balance(kBob)), U256{});
  // The revert removed Bob's write from the write set entirely.
  bool bob_present = false;
  for (const auto& [key, value] : buf.write_set())
    if (key == StateKey::balance(kBob)) bob_present = true;
  EXPECT_FALSE(bob_present);
}

TEST(ExecBuffer, NestedCheckpoints) {
  WorldState ws;
  const WorldStateView view(ws);
  ExecBuffer buf(view);
  const StateKey key = StateKey::storage(kAlice, U256{1});

  buf.write(key, U256{1});
  const std::size_t cp1 = buf.checkpoint();
  buf.write(key, U256{2});
  const std::size_t cp2 = buf.checkpoint();
  buf.write(key, U256{3});
  buf.revert_to(cp2);
  EXPECT_EQ(buf.read(key), U256{2});
  buf.revert_to(cp1);
  EXPECT_EQ(buf.read(key), U256{1});
}

TEST(ExecBuffer, ReadsSurviveRevert) {
  // A reverted frame still observed its reads; they stay conflict-relevant.
  WorldState ws;
  ws.set(StateKey::balance(kBob), U256{77});
  const WorldStateView view(ws);
  ExecBuffer buf(view);
  const std::size_t cp = buf.checkpoint();
  (void)buf.read(StateKey::balance(kBob));
  buf.revert_to(cp);
  EXPECT_EQ(buf.read_set().size(), 1u);
}

TEST(ExecBuffer, ResetClearsEverything) {
  WorldState ws;
  const WorldStateView view(ws);
  ExecBuffer buf(view);
  (void)buf.read(StateKey::balance(kAlice));
  buf.write(StateKey::balance(kBob), U256{1});
  buf.reset();
  EXPECT_TRUE(buf.read_set().empty());
  EXPECT_TRUE(buf.write_set().empty());
}

TEST(MvView, ReadsAtFixedSnapshot) {
  WorldState base;
  base.set(StateKey::balance(kAlice), U256{100});
  MvMemory mv(base, 2);
  MvView snap0(mv);
  snap0.begin(0);
  mv.record(0, 0, {{StateKey::balance(kAlice), U256{55}}});
  MvView snap1(mv);
  snap1.begin(1);
  EXPECT_EQ(snap0.read(StateKey::balance(kAlice)), U256{100});
  EXPECT_EQ(snap1.read(StateKey::balance(kAlice)), U256{55});
}

}  // namespace
}  // namespace blockpilot::state

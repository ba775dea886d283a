// Asynchronous state-commitment subsystem tests: incremental WorldState
// roots (differential vs the from-scratch oracle), the stub-load
// NodeCache, CommitPipeline ordering, and the async integration through
// validator / pipeline / blockchain.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <random>
#include <unordered_map>
#include <unordered_set>

#include "commit/commit_pipeline.hpp"
#include "core/blockpilot.hpp"
#include "db/node_store.hpp"
#include "support/rng.hpp"
#include "trie/mpt.hpp"
#include "trie/node_cache.hpp"

namespace blockpilot {
namespace {

using state::StateKey;
using state::WorldState;

// ---------------------------------------------------------------------------
// NodeCache

// A node encoding and its hash, as a verified stub load puts them.
struct CachedNode {
  std::vector<std::uint8_t> enc;
  Hash256 hash;
};

CachedNode cached_node(std::vector<std::uint8_t> enc) {
  const Hash256 h{crypto::keccak256(std::span(enc))};
  return {std::move(enc), h};
}

TEST(NodeCache, CachesAndCounts) {
  trie::NodeCache cache(4096);
  const CachedNode n = cached_node({0x01, 0x02, 0x03, 0x04});

  EXPECT_FALSE(cache.get(n.hash).has_value());
  cache.put(n.hash, std::span(n.enc));
  const auto back = cache.get(n.hash);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, n.enc);
  cache.put(n.hash, std::span(n.enc));  // already resident: no second charge

  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 1u);
  // Byte accounting: one resident entry, charged encoding + overhead.
  EXPECT_EQ(s.bytes, trie::NodeCache::entry_bytes(n.enc.size()));
  EXPECT_GE(s.capacity, 4096u);
}

TEST(NodeCache, ZeroCapacityCachesNothing) {
  trie::NodeCache cache(0);
  const CachedNode n = cached_node({0xaa, 0xbb});
  cache.put(n.hash, std::span(n.enc));
  EXPECT_FALSE(cache.get(n.hash).has_value());
  EXPECT_FALSE(cache.get(n.hash).has_value());
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);  // every get is a load the store must serve
  EXPECT_EQ(s.entries, 0u);
}

TEST(NodeCache, EvictsWhenFullAndStaysCorrect) {
  // ~1 resident 3-byte entry per shard: every shard is constantly evicting.
  trie::NodeCache cache(8 * trie::NodeCache::entry_bytes(3));
  std::vector<CachedNode> nodes;
  for (std::uint8_t i = 0; i < 64; ++i)
    nodes.push_back(cached_node({i, static_cast<std::uint8_t>(i + 1), 0x7f}));

  // Load far past capacity, twice: every hit must return the exact
  // encoding that was put under that hash.
  for (int round = 0; round < 2; ++round) {
    for (const CachedNode& n : nodes) {
      if (const auto back = cache.get(n.hash); back.has_value())
        EXPECT_EQ(*back, n.enc);
      else
        cache.put(n.hash, std::span(n.enc));
    }
  }
  const auto s = cache.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes, s.capacity);
  EXPECT_EQ(s.bytes, s.entries * trie::NodeCache::entry_bytes(3));
}

TEST(NodeCache, ShrinkingCapacityEvicts) {
  trie::NodeCache cache(std::size_t{1} << 20);
  std::vector<CachedNode> nodes;
  for (std::uint8_t i = 0; i < 100; ++i) {
    nodes.push_back(
        cached_node({i, 0x55, static_cast<std::uint8_t>(0xff - i)}));
    cache.put(nodes.back().hash, std::span(nodes.back().enc));
  }
  EXPECT_EQ(cache.stats().entries, 100u);
  const std::size_t shrunk = 8 * trie::NodeCache::entry_bytes(3);
  cache.set_capacity(shrunk);
  const auto s = cache.stats();
  EXPECT_LE(s.bytes, s.capacity);
  EXPECT_LE(s.entries, 8u);
  EXPECT_GT(s.evictions, 0u);
  // Survivors still answer correctly after the shrink sweep.
  std::size_t survivors = 0;
  for (const CachedNode& n : nodes) {
    if (const auto back = cache.get(n.hash); back.has_value()) {
      EXPECT_EQ(*back, n.enc);
      ++survivors;
    }
  }
  EXPECT_EQ(survivors, s.entries);
}

// Mirror of NodeCache's internal shard choice (first hash byte, mod 8) so
// the CLOCK tests below can pin all traffic to one shard.  Whitebox by
// design: if the shard function changes, update both.
std::size_t shard_index_of(const Hash256& h) { return h.bytes[0] % 8; }

// 3-byte nodes whose hashes all land in shard 0, in generation order.
std::vector<CachedNode> shard0_nodes(std::size_t n) {
  std::vector<CachedNode> out;
  for (std::uint32_t seed = 0; out.size() < n; ++seed) {
    CachedNode node = cached_node({static_cast<std::uint8_t>(seed),
                                   static_cast<std::uint8_t>(seed >> 8),
                                   static_cast<std::uint8_t>(seed >> 16)});
    if (shard_index_of(node.hash) == 0) out.push_back(std::move(node));
  }
  return out;
}

TEST(NodeCache, ClockGivesSecondChanceToHitEntries) {
  // Budget: exactly two 3-byte entries per shard.
  trie::NodeCache cache(8 * 2 * trie::NodeCache::entry_bytes(3));
  const auto nodes = shard0_nodes(3);
  const auto& a = nodes[0];
  const auto& b = nodes[1];
  const auto& c = nodes[2];

  cache.put(a.hash, std::span(a.enc));
  cache.put(b.hash, std::span(b.enc));  // shard 0 now full: [a, b]
  ASSERT_TRUE(cache.get(a.hash).has_value());  // sets a's reference bit

  // Putting c needs room.  The hand meets a first: referenced, so a keeps
  // its place (bit cleared, hand advances) and c is not cached.
  cache.put(c.hash, std::span(c.enc));
  EXPECT_FALSE(cache.get(c.hash).has_value());
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Putting c again: the hand meets b, unreferenced, and evicts it.
  cache.put(c.hash, std::span(c.enc));
  EXPECT_TRUE(cache.get(a.hash).has_value());   // a survived
  EXPECT_FALSE(cache.get(b.hash).has_value());  // b did not
  EXPECT_TRUE(cache.get(c.hash).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(NodeCache, LoadsBeyondTheBudgetKeepReusedEntries) {
  // A reused pair shares shard 0 with a stream of one-shot loads, three per
  // reuse, into a budget of four entries.  Each time the hand meets a
  // reused entry it spends the entry's bit and leaves the load out, so the
  // one-shot loads evict only each other and the pair is never reloaded.
  trie::NodeCache cache(8 * 4 * trie::NodeCache::entry_bytes(3));
  const auto nodes = shard0_nodes(2 + 3 * 64);
  const auto load = [&](const CachedNode& n) {
    if (!cache.get(n.hash).has_value()) cache.put(n.hash, std::span(n.enc));
  };
  load(nodes[0]);
  load(nodes[1]);
  std::size_t next = 2;
  for (int round = 0; round < 64; ++round) {
    load(nodes[0]);
    load(nodes[1]);
    for (int i = 0; i < 3; ++i) load(nodes[next++]);
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 2u * 64);  // the pair missed only on its first load
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes, s.capacity);
}

TEST(NodeCache, ClockDegeneratesToFifoWithoutHits) {
  trie::NodeCache cache(8 * 2 * trie::NodeCache::entry_bytes(3));
  const auto nodes = shard0_nodes(3);
  const auto& a = nodes[0];
  const auto& b = nodes[1];
  const auto& c = nodes[2];

  cache.put(a.hash, std::span(a.enc));
  cache.put(b.hash, std::span(b.enc));
  cache.put(c.hash, std::span(c.enc));  // no hits anywhere: evicts a
  EXPECT_TRUE(cache.get(b.hash).has_value());   // b survived
  EXPECT_FALSE(cache.get(a.hash).has_value());  // a (the oldest) was evicted
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(NodeCache, JumboEncodingIsNeverCached) {
  trie::NodeCache cache(8 * 2 * trie::NodeCache::entry_bytes(3));
  const auto resident = shard0_nodes(1);
  cache.put(resident[0].hash, std::span(resident[0].enc));
  const auto before = cache.stats();

  // An encoding whose charge alone exceeds a shard's budget is never
  // admitted — it must not wipe out the resident entries.
  const CachedNode jumbo = cached_node(std::vector<std::uint8_t>(4096, 0xEE));
  cache.put(jumbo.hash, std::span(jumbo.enc));
  EXPECT_FALSE(cache.get(jumbo.hash).has_value());
  const auto after = cache.stats();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_TRUE(cache.get(resident[0].hash).has_value());
}

TEST(NodeCache, ClockPropertyRandomizedOps) {
  // Property sweep: under random load traffic (get, then put on a miss)
  // with mixed encoding sizes, the byte budget is never exceeded,
  // accounting stays exact, every hit returns the encoding put under its
  // hash, and the counters are consistent with the operation count.
  trie::NodeCache cache(4 * 1024);
  std::mt19937_64 rng(0xC10C);
  std::uint64_t ops = 0;
  std::vector<CachedNode> pool;
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> enc(1 + rng() % 200);
    for (auto& byte : enc) byte = static_cast<std::uint8_t>(rng());
    pool.push_back(cached_node(std::move(enc)));
  }
  for (int op = 0; op < 3000; ++op) {
    const CachedNode& n = pool[rng() % pool.size()];
    ++ops;
    if (const auto back = cache.get(n.hash); back.has_value())
      ASSERT_EQ(*back, n.enc);
    else
      cache.put(n.hash, std::span(n.enc));
    if (op % 64 == 0) {
      const auto s = cache.stats();
      ASSERT_LE(s.bytes, s.capacity);
      ASSERT_LE(s.entries, s.misses);
    }
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, ops);
  EXPECT_LE(s.bytes, s.capacity);
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.evictions, 0u);
}

TEST(NodeCache, OnlyVerifiedStubLoadsEnterTheGlobalCache) {
  auto& cache = trie::NodeCache::global();
  cache.clear();

  // Hashing fresh tries (a world state's and a plain trie's) leaves the
  // global cache empty: each node memoizes its own hash.
  WorldState ws;
  for (std::uint64_t i = 0; i < 64; ++i) {
    ws.set(StateKey::balance(Address::from_id(i)), U256{i + 1});
    ws.set(StateKey::storage(Address::from_id(i % 4), U256{i}),
           U256{3 * i + 1});
  }
  (void)ws.state_root();
  trie::MerklePatriciaTrie t;
  const auto key_of = [](std::uint64_t k) {
    std::array<std::uint8_t, 8> key{};
    std::memcpy(key.data(), &k, sizeof(k));
    return key;
  };
  for (std::uint64_t k = 0; k < 256; ++k) {
    const auto key = key_of(k);
    const std::vector<std::uint8_t> value(1 + k % 40,
                                          static_cast<std::uint8_t>(k));
    t.put(std::span(key), std::span(value));
  }
  const Hash256 root = t.root_hash();
  EXPECT_EQ(cache.stats().entries, 0u);

  // A cold reopen reads each loaded node from the store once and caches it;
  // a second cold reopen is served by the cache with no store read.
  db::InMemoryNodeStore store;
  t.persist_nodes(store);
  const auto read_all = [&] {
    const auto reopened = trie::MerklePatriciaTrie::from_root(root, store);
    for (std::uint64_t k = 0; k < 256; ++k) {
      const auto key = key_of(k);
      ASSERT_EQ(reopened.get(std::span(key)), t.get(std::span(key)));
    }
  };
  const std::uint64_t gets0 = store.stats().gets;
  const auto c0 = cache.stats();
  read_all();
  const std::uint64_t loads = store.stats().gets - gets0;
  const auto c1 = cache.stats();
  EXPECT_GT(loads, 0u);
  EXPECT_EQ(c1.misses - c0.misses, loads);
  EXPECT_EQ(c1.hits, c0.hits);
  EXPECT_EQ(c1.entries, loads);

  read_all();
  EXPECT_EQ(store.stats().gets, gets0 + loads);
  const auto c2 = cache.stats();
  EXPECT_EQ(c2.hits - c1.hits, loads);
  EXPECT_EQ(c2.misses, c1.misses);
  cache.clear();
}

// ---------------------------------------------------------------------------
// Incremental WorldState commitment vs the from-scratch oracle

Address addr_of(std::uint64_t id) { return Address::from_id(id); }

// The lanes parallel commitment runs on (see WorldState::state_root): the
// differentials below root some states on them and check the result
// against the serial root and the full-rebuild oracle.
ThreadPool& commit_lanes() {
  static ThreadPool pool(3);
  return pool;
}

// Serial roots, then roots on the commit lanes.
std::array<ThreadPool*, 2> lane_modes() { return {nullptr, &commit_lanes()}; }

TEST(IncrementalRoot, MatchesOracleOnBasicFlow) {
  WorldState ws;
  EXPECT_EQ(ws.state_root(), ws.state_root_full_rebuild());

  ws.set(StateKey::balance(addr_of(1)), U256{100});
  ws.set(StateKey::nonce(addr_of(1)), U256{7});
  ws.set(StateKey::storage(addr_of(2), U256{1}), U256{42});
  EXPECT_EQ(ws.state_root(), ws.state_root_full_rebuild());

  // Memo hit when nothing changed.
  const auto before = ws.commit_stats();
  const Hash256 again = ws.state_root();
  const auto after = ws.commit_stats();
  EXPECT_EQ(again, ws.state_root_full_rebuild());
  EXPECT_EQ(after.root_memo_hits, before.root_memo_hits + 1);
  EXPECT_EQ(after.root_recomputes, before.root_recomputes);
}

TEST(IncrementalRoot, OldValueRewriteRegression) {
  // Write, commit, overwrite the same slot with its old value, commit:
  // the root must equal that of a state which never changed the slot.
  WorldState ws;
  ws.set(StateKey::storage(addr_of(9), U256{5}), U256{1234});
  ws.set(StateKey::balance(addr_of(9)), U256{1});
  const Hash256 committed = ws.state_root();

  ws.set(StateKey::storage(addr_of(9), U256{5}), U256{9999});
  (void)ws.state_root();
  ws.set(StateKey::storage(addr_of(9), U256{5}), U256{1234});
  EXPECT_EQ(ws.state_root(), committed);
  EXPECT_EQ(ws.state_root(), ws.state_root_full_rebuild());
}

TEST(IncrementalRoot, EmptyAccountPrunes) {
  WorldState ws;
  ws.set(StateKey::balance(addr_of(3)), U256{50});
  const Hash256 with_account = ws.state_root();

  ws.set(StateKey::balance(addr_of(4)), U256{10});
  (void)ws.state_root();
  // Draining account 4 back to empty must prune it from the trie.
  ws.set(StateKey::balance(addr_of(4)), U256{});
  EXPECT_EQ(ws.state_root(), with_account);
  EXPECT_EQ(ws.state_root(), ws.state_root_full_rebuild());

  // Resurrection after pruning rebuilds correctly.
  ws.set(StateKey::balance(addr_of(4)), U256{11});
  ws.set(StateKey::storage(addr_of(4), U256{0}), U256{1});
  EXPECT_EQ(ws.state_root(), ws.state_root_full_rebuild());
}

TEST(IncrementalRoot, ZeroStorageWriteErases) {
  WorldState ws;
  ws.set(StateKey::storage(addr_of(5), U256{1}), U256{77});
  ws.set(StateKey::storage(addr_of(5), U256{2}), U256{88});
  ws.set(StateKey::balance(addr_of(5)), U256{1});
  (void)ws.state_root();

  ws.set(StateKey::storage(addr_of(5), U256{2}), U256{});
  EXPECT_EQ(ws.state_root(), ws.state_root_full_rebuild());
  ASSERT_NE(ws.find_account(addr_of(5)), nullptr);
  EXPECT_EQ(ws.storage_root(addr_of(5)),
            state::storage_root_of(ws.find_account(addr_of(5))->storage));
  // The slot map never stores a zero: the erased slot is gone, and an
  // account whose storage is all zero is empty and pruned.
  EXPECT_EQ(ws.find_account(addr_of(5))->storage.size(), 1u);
  ws.set(StateKey::storage(addr_of(5), U256{1}), U256{});
  ws.set(StateKey::storage(addr_of(5), U256{3}), U256{});  // absent slot
  ws.set(StateKey::balance(addr_of(5)), U256{});
  EXPECT_TRUE(ws.find_account(addr_of(5))->storage.empty());
  EXPECT_TRUE(ws.find_account(addr_of(5))->empty_account());
  EXPECT_EQ(ws.state_root(), WorldState{}.state_root());
  EXPECT_EQ(ws.state_root(), ws.state_root_full_rebuild());
}

TEST(IncrementalRoot, CopiesDivergeIndependently) {
  WorldState a;
  a.set(StateKey::balance(addr_of(1)), U256{100});
  a.set(StateKey::storage(addr_of(1), U256{0}), U256{5});
  const Hash256 root_a = a.state_root();

  // A copy of a committed state shares its tries and carries its memos:
  // the copy's first state_root() is a memo hit, not a recompute.
  WorldState b = a;
  const auto copied = b.commit_stats();
  EXPECT_EQ(b.state_root(), root_a);
  const auto first = b.commit_stats();
  EXPECT_EQ(first.root_memo_hits, copied.root_memo_hits + 1);
  EXPECT_EQ(first.root_recomputes, copied.root_recomputes);
  EXPECT_EQ(first.accounts_resynced, copied.accounts_resynced);

  b.set(StateKey::storage(addr_of(1), U256{0}), U256{6});
  b.set(StateKey::balance(addr_of(2)), U256{1});
  EXPECT_EQ(b.state_root(), b.state_root_full_rebuild());
  EXPECT_NE(b.state_root(), root_a);

  // The original is untouched by the copy's writes.
  EXPECT_EQ(a.state_root(), root_a);
  EXPECT_EQ(a.state_root(), a.state_root_full_rebuild());
}

TEST(IncrementalRoot, DifferentialFuzzAgainstOracle) {
  // `ws` roots serially, its twin `lanes` (same writes) on the commit
  // lanes: both must land on the oracle at every check.
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xdecafULL}) {
    Xoshiro256 rng(seed);
    WorldState ws;
    WorldState lanes;
    const auto set = [&](const StateKey& key, const U256& value) {
      ws.set(key, value);
      lanes.set(key, value);
    };
    for (int step = 0; step < 400; ++step) {
      const Address addr = addr_of(rng() % 12);
      switch (rng() % 5) {
        case 0:
          set(StateKey::balance(addr), U256{rng() % 1000});
          break;
        case 1:
          set(StateKey::nonce(addr), U256{rng() % 50});
          break;
        case 2:
          set(StateKey::storage(addr, U256{rng() % 20}), U256{rng() % 256});
          break;
        case 3:  // erase a slot
          set(StateKey::storage(addr, U256{rng() % 20}), U256{});
          break;
        case 4:  // drain an account toward emptiness
          set(StateKey::balance(addr), U256{});
          set(StateKey::nonce(addr), U256{});
          break;
      }
      if (step % 7 == 0) {
        const Hash256 oracle = ws.state_root_full_rebuild();
        ASSERT_EQ(ws.state_root(), oracle)
            << "seed " << seed << " step " << step;
        ASSERT_EQ(lanes.state_root(&commit_lanes()), oracle)
            << "seed " << seed << " step " << step << " (lanes)";
      }
    }
    EXPECT_EQ(ws.state_root(), ws.state_root_full_rebuild()) << "seed " << seed;
    EXPECT_EQ(lanes.state_root(&commit_lanes()), ws.state_root())
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Forked WorldState copies commit independently

TEST(ForkedCopies, PostCopyWriteStaysPrivate) {
  // Two copies of one uncommitted head: a storage write on one after the
  // fork must not leak into the other's commitment through shared tries.
  WorldState head;
  head.set(StateKey::storage(addr_of(88), U256{0}), U256{111});
  head.set(StateKey::storage(addr_of(88), U256{1}), U256{222});

  WorldState a = head;
  WorldState b = head;
  b.set(StateKey::storage(addr_of(88), U256{1}), U256{999});

  const Hash256 ra = a.state_root();
  const Hash256 rb = b.state_root();
  EXPECT_NE(ra, rb);
  EXPECT_EQ(ra, a.state_root_full_rebuild());
  EXPECT_EQ(rb, b.state_root_full_rebuild());
  EXPECT_EQ(head.state_root(), ra);  // the source never saw b's write
}

// A WorldState plus a shadow model of every cell written to it.
struct Tracked {
  WorldState ws;
  std::unordered_map<StateKey, U256> model;

  void set(const StateKey& key, const U256& value) {
    ws.set(key, value);
    model[key] = value;
  }
};

// Every key in `universe` reads back through get() as the model says (zero
// when the model never saw it, so a write leaking in from a state sharing
// storage shows up), and, when `root` is set, the incremental root equals
// the full-rebuild oracle.
::testing::AssertionResult matches_oracle(
    const Tracked& t, const std::unordered_set<StateKey>& universe,
    bool root = true, ThreadPool* lanes = nullptr) {
  for (const StateKey& key : universe) {
    const auto it = t.model.find(key);
    const U256 expect = it == t.model.end() ? U256{} : it->second;
    if (t.ws.get(key) != expect)
      return ::testing::AssertionFailure()
             << key.to_string() << " reads " << t.ws.get(key).to_hex()
             << ", expected " << expect.to_hex();
  }
  if (root && t.ws.state_root(lanes) != t.ws.state_root_full_rebuild())
    return ::testing::AssertionFailure() << "root differs from the oracle";
  return ::testing::AssertionSuccess();
}

TEST(ForkedCopies, DifferentialFuzzAgainstOracle) {
  // The headline differential fuzz: >= 1000 randomized blocks, each block
  // forking the head into two siblings that commit independently (the
  // persistent tries and the copy-on-write storage shards shared wherever
  // contents allow).  Each block also makes a copy of a copy and a
  // copy-assigned state, aims writes from a source and its copy at one
  // shard in either order, and writes to a moved-from state.  Every
  // state's get() is checked on every block over every key any state ever
  // wrote; the fork roots are checked against the from-scratch oracle on
  // every block, the other states' roots in turn.  Odd blocks root on the
  // commit lanes, even blocks serially.
  constexpr int kBlocks = 1024;
  Xoshiro256 rng(0x5EED5);
  std::uint64_t builds = 0;
  std::uint64_t slot_updates = 0;
  std::unordered_set<StateKey> universe;

  const auto random_writes = [&rng](Tracked& t, std::uint64_t addr_space,
                                    int count) {
    for (int i = 0; i < count; ++i) {
      const Address addr = addr_of(1 + rng() % addr_space);
      switch (rng() % 8) {
        case 0:
          t.set(StateKey::balance(addr), U256{rng() % 200});
          break;
        case 1:
          t.set(StateKey::nonce(addr), U256{rng() % 64});
          break;
        case 2:  // drain toward emptiness (prune + later resurrection)
          t.set(StateKey::balance(addr), U256{});
          t.set(StateKey::nonce(addr), U256{});
          break;
        default: {
          const U256 slot{rng() % 16};
          const U256 val = (rng() % 4 == 0) ? U256{} : U256{rng() % 100'000};
          t.set(StateKey::storage(addr, slot), val);
        }
      }
    }
  };

  // partner[s]: a slot outside 0..15 that lands in slot s's shard.
  std::array<U256, 16> partner;
  for (std::uint64_t s = 0; s < partner.size(); ++s) {
    std::uint64_t p = partner.size();
    while (state::SlotMap::shard_of(U256{p}) !=
           state::SlotMap::shard_of(U256{s}))
      ++p;
    partner[s] = U256{p};
  }
  // Writes into slot s's shard of `addr`, which `src` and `copy` share
  // after a copy, the source or the copy first: each side must clone its
  // own.
  const auto same_shard_writes = [&rng, &partner](Tracked& src, Tracked& copy,
                                                  const Address& addr,
                                                  std::uint64_t s) {
    Tracked* first = &src;
    Tracked* second = &copy;
    if (rng() % 2) std::swap(first, second);
    // Different slots, so an in-place write leaking into the sharer is not
    // masked by the sharer's own write.
    first->set(StateKey::storage(addr, U256{s}), U256{1 + rng() % 100'000});
    second->set(StateKey::storage(addr, partner[s]),
                (rng() % 3 == 0) ? U256{} : U256{1 + rng() % 100'000});
  };

  Tracked head;
  random_writes(head, 16, 48);
  for (const auto& [key, value] : head.model) universe.insert(key);
  ASSERT_TRUE(matches_oracle(head, universe));
  Tracked assigned;  // copy-assigned from each block's fork

  for (int block = 0; block < kBlocks; ++block) {
    // A slowly growing address space keeps fresh accounts (and therefore
    // whole storage-trie builds) appearing throughout the run.
    const std::uint64_t addr_space = 16 + block / 64;

    // Pending writes on the head are carried into both forks' dirty sets.
    random_writes(head, addr_space, 1 + static_cast<int>(rng() % 6));
    const auto base = head.ws.commit_stats();
    Tracked a = head;
    Tracked b = head;
    Tracked aa = a;  // a copy of a copy

    const Address hot = addr_of(1 + rng() % addr_space);
    const std::uint64_t hot_slot = rng() % partner.size();
    same_shard_writes(head, a, addr_of(1 + rng() % addr_space),
                      rng() % partner.size());
    same_shard_writes(a, aa, hot, hot_slot);

    // Divergent tails on top of the shared pending writes.
    if (rng() % 2) random_writes(a, addr_space, 1 + static_cast<int>(rng() % 4));
    if (rng() % 2) random_writes(b, addr_space, 1 + static_cast<int>(rng() % 4));

    // Copy-assignment over a state still holding an older block's shards.
    // aa owns the hot shard it just wrote, so its next write there must
    // clone too.
    assigned = aa;
    same_shard_writes(aa, assigned, hot, hot_slot);

    const std::array<const Tracked*, 5> states{&a, &b, &head, &aa, &assigned};
    for (const Tracked* t : states)
      for (const auto& [key, value] : t->model) universe.insert(key);
    ThreadPool* lanes = block % 2 ? &commit_lanes() : nullptr;
    for (std::size_t i = 0; i < states.size(); ++i) {
      const bool root = i < 2 || i == 2 + block % 3;
      ASSERT_TRUE(matches_oracle(*states[i], universe, root, lanes))
          << "block " << block << " state " << i;
    }
    for (const Tracked* fork : {&a, &b}) {
      const auto st = fork->ws.commit_stats();
      builds += st.accounts_resynced - base.accounts_resynced;
      slot_updates += st.slots_resynced - base.slots_resynced;
    }

    // The moved-from fork is an empty state that takes writes like a new one.
    Tracked& survivor = (rng() % 2) ? a : b;
    head = std::move(survivor);
    survivor.model.clear();
    ASSERT_EQ(survivor.ws.account_count(), 0u) << "block " << block;
    random_writes(survivor, addr_space, 1 + static_cast<int>(rng() % 3));
    for (const auto& [key, value] : survivor.model) universe.insert(key);
    ASSERT_TRUE(matches_oracle(survivor, universe, true, lanes))
        << "block " << block;
  }
  // Full oracle check on the surviving lineage.
  ASSERT_TRUE(matches_oracle(head, universe));
  // Both fold kinds engaged: fresh-account builds and per-slot updates.
  EXPECT_GT(builds, 0u);
  EXPECT_GT(slot_updates, 0u);
}

// ---------------------------------------------------------------------------
// Commitment handoff: a copy of an unsealed state adopts its source's fold

// Writes over a small address space: balances, nonces, slots (some zero),
// and now and then an account drained to empty.
void handoff_writes(Xoshiro256& rng, WorldState& ws, int count) {
  for (int i = 0; i < count; ++i) {
    const Address addr = addr_of(1 + rng() % 24);
    switch (rng() % 7) {
      case 0:
        ws.set(StateKey::balance(addr), U256{1 + rng() % 500});
        break;
      case 1:
        ws.set(StateKey::nonce(addr), U256{rng() % 32});
        break;
      case 2:
        ws.set(StateKey::balance(addr), U256{});
        ws.set(StateKey::nonce(addr), U256{});
        break;
      default: {
        const U256 val = (rng() % 5 == 0) ? U256{} : U256{1 + rng() % 9'999};
        ws.set(StateKey::storage(addr, U256{rng() % 40}), val);
      }
    }
  }
}

// A committed base with storage in most accounts.
WorldState handoff_base(Xoshiro256& rng) {
  WorldState base;
  handoff_writes(rng, base, 400);
  (void)base.state_root();
  return base;
}

std::uint64_t adopted(const WorldState& ws) {
  return ws.commit_stats().handoffs_adopted;
}

TEST(CommitHandoff, ChainsOfUnsealedChildrenAdoptInOrder) {
  // Chains of depth 1..3: each child is copied from its parent before the
  // parent roots, then the chain roots parent-first.  Every child adopts
  // its parent's fold (entries the parent adopted included) and lands on
  // the oracle.
  for (ThreadPool* lanes : lane_modes()) {
    SCOPED_TRACE(lanes == nullptr ? "serial" : "lanes");
    for (int depth = 1; depth <= 3; ++depth) {
      Xoshiro256 rng(0xC4A1 + depth);
      std::vector<std::unique_ptr<WorldState>> chain;
      chain.push_back(std::make_unique<WorldState>(handoff_base(rng)));
      handoff_writes(rng, *chain.back(), 30);
      for (int d = 0; d < depth; ++d) {
        chain.push_back(std::make_unique<WorldState>(*chain.back()));
        handoff_writes(rng, *chain.back(), 30);
      }
      for (std::size_t i = 0; i < chain.size(); ++i) {
        EXPECT_EQ(chain[i]->state_root(lanes),
                  chain[i]->state_root_full_rebuild())
            << "depth " << depth << " link " << i;
        // Each copy was taken before its source adopted anything itself.
        if (i > 0) EXPECT_EQ(adopted(*chain[i]), 1u);
      }
    }
  }
}

TEST(CommitHandoff, ChildRootedBeforeParentFallsBack) {
  for (ThreadPool* lanes : lane_modes()) {
    SCOPED_TRACE(lanes == nullptr ? "serial" : "lanes");
    Xoshiro256 rng(0xFA11);
    WorldState parent = handoff_base(rng);
    handoff_writes(rng, parent, 40);
    WorldState child = parent;
    handoff_writes(rng, child, 40);
    WorldState grandchild = child;
    handoff_writes(rng, grandchild, 40);

    // Grandchild first, then child: neither source has folded yet.
    EXPECT_EQ(grandchild.state_root(lanes),
              grandchild.state_root_full_rebuild());
    EXPECT_EQ(child.state_root(lanes), child.state_root_full_rebuild());
    EXPECT_EQ(parent.state_root(lanes), parent.state_root_full_rebuild());
    EXPECT_EQ(adopted(grandchild), 0u);
    EXPECT_EQ(adopted(child), 0u);
  }
}

TEST(CommitHandoff, ParentWrittenAfterCopyFallsBack) {
  for (ThreadPool* lanes : lane_modes()) {
    SCOPED_TRACE(lanes == nullptr ? "serial" : "lanes");
    Xoshiro256 rng(0xA77E);
    WorldState parent = handoff_base(rng);
    handoff_writes(rng, parent, 40);
    WorldState child = parent;
    handoff_writes(rng, child, 20);
    // A write to a slot and one to an account body the child inherited
    // unfolded: the parent's fold no longer matches what the child copied.
    parent.set(StateKey::storage(addr_of(3), U256{7}), U256{4242});
    parent.set(StateKey::balance(addr_of(4)), U256{77});

    EXPECT_EQ(parent.state_root(lanes), parent.state_root_full_rebuild());
    EXPECT_EQ(child.state_root(lanes), child.state_root_full_rebuild());
    EXPECT_EQ(adopted(child), 0u);
    EXPECT_NE(child.get(StateKey::storage(addr_of(3), U256{7})), U256{4242});
  }
}

TEST(CommitHandoff, SiblingsShareOneParentFold) {
  for (ThreadPool* lanes : lane_modes()) {
    SCOPED_TRACE(lanes == nullptr ? "serial" : "lanes");
    Xoshiro256 rng(0x51B5);
    WorldState parent = handoff_base(rng);
    handoff_writes(rng, parent, 40);
    WorldState left = parent;
    WorldState right = parent;
    WorldState idle = parent;  // no writes of its own
    handoff_writes(rng, left, 25);
    handoff_writes(rng, right, 25);

    const Hash256 parent_root = parent.state_root(lanes);
    EXPECT_EQ(parent_root, parent.state_root_full_rebuild());
    for (WorldState* sibling : {&left, &right, &idle}) {
      EXPECT_EQ(sibling->state_root(lanes), sibling->state_root_full_rebuild());
      EXPECT_EQ(adopted(*sibling), adopted(parent) + 1);
    }
    EXPECT_EQ(idle.state_root(lanes), parent_root);
    // The siblings' folds stay private: the parent still roots to its own.
    EXPECT_EQ(parent.state_root(lanes), parent_root);
  }
}

TEST(CommitHandoff, PrunedInParentResurrectedInChild) {
  for (ThreadPool* lanes : lane_modes()) {
    SCOPED_TRACE(lanes == nullptr ? "serial" : "lanes");
    WorldState base;
    base.set(StateKey::balance(addr_of(9)), U256{5});
    base.set(StateKey::storage(addr_of(9), U256{1}), U256{11});
    base.set(StateKey::storage(addr_of(9), U256{2}), U256{22});
    base.set(StateKey::balance(addr_of(10)), U256{1});
    (void)base.state_root(lanes);

    WorldState parent = base;
    parent.set(StateKey::balance(addr_of(9)), U256{});
    parent.set(StateKey::storage(addr_of(9), U256{1}), U256{});
    parent.set(StateKey::storage(addr_of(9), U256{2}), U256{});  // now empty
    WorldState child = parent;
    child.set(StateKey::storage(addr_of(9), U256{3}), U256{33});  // resurrect

    EXPECT_EQ(parent.state_root(lanes), parent.state_root_full_rebuild());
    EXPECT_EQ(child.state_root(lanes), child.state_root_full_rebuild());
    EXPECT_EQ(adopted(child), adopted(parent) + 1);
    EXPECT_EQ(child.storage_root(addr_of(9)),
              state::storage_root_of(child.find_account(addr_of(9))->storage));
  }
}

// ---------------------------------------------------------------------------
// CommitPipeline

TEST(CommitPipeline, InlineModeComputesImmediately) {
  commit::CommitPipeline pipe;  // no pool: degraded/sync mode
  auto ws = std::make_shared<WorldState>();
  ws->set(StateKey::balance(addr_of(1)), U256{10});
  const Hash256 expected = ws->state_root_full_rebuild();

  auto handle = pipe.submit(ws);
  ASSERT_TRUE(handle.valid());
  EXPECT_TRUE(handle.ready());
  EXPECT_EQ(handle.get().state_root, expected);
  EXPECT_EQ(pipe.stats().inline_runs, 1u);
}

TEST(CommitPipeline, AsyncComputesOffThread) {
  ThreadPool pool(2);
  commit::CommitPipeline pipe(&pool);
  auto ws = std::make_shared<WorldState>();
  ws->set(StateKey::storage(addr_of(2), U256{3}), U256{99});
  const Hash256 expected = ws->state_root_full_rebuild();

  auto handle = pipe.submit(ws, [] { return Hash256{}; });
  ASSERT_TRUE(handle.valid());
  handle.wait();
  EXPECT_EQ(handle.get().state_root, expected);
  EXPECT_EQ(pipe.stats().submitted, 1u);
  EXPECT_EQ(pipe.stats().inline_runs, 0u);
}

TEST(CommitPipeline, FifoOrderingAcrossSubmissions) {
  // Block N's root must be ready no later than block N+1's: when a later
  // handle resolves, every earlier one has resolved too.
  ThreadPool pool(4);
  commit::CommitPipeline pipe(&pool);

  std::vector<commit::CommitHandle> handles;
  WorldState ws;
  for (std::uint64_t n = 0; n < 8; ++n) {
    ws.set(StateKey::balance(addr_of(n + 1)), U256{n + 1});
    handles.push_back(pipe.submit(std::make_shared<WorldState>(ws)));
  }
  for (std::size_t n = handles.size(); n-- > 0;) {
    handles[n].wait();
    for (std::size_t m = 0; m < n; ++m)
      EXPECT_TRUE(handles[m].ready()) << "handle " << m << " after " << n;
  }
  for (std::size_t n = 0; n < handles.size(); ++n)
    EXPECT_EQ(handles[n].get().sequence, n);
}

TEST(CommitPipeline, SubmittedCopyAppliesOnTopOfParent) {
  commit::CommitPipeline pipe;
  WorldState parent;
  parent.set(StateKey::balance(addr_of(1)), U256{100});
  (void)parent.state_root();

  // A copy shares the parent's tries and storage shards (world_state.hpp).
  auto post = std::make_shared<WorldState>(parent);
  post->set(StateKey::balance(addr_of(1)), U256{90});
  post->set(StateKey::balance(addr_of(2)), U256{10});
  auto handle = pipe.submit(post);
  WorldState expected = parent;
  expected.set(StateKey::balance(addr_of(1)), U256{90});
  expected.set(StateKey::balance(addr_of(2)), U256{10});
  EXPECT_EQ(handle.get().state_root, expected.state_root_full_rebuild());
  // Parent unchanged.
  EXPECT_EQ(parent.get(StateKey::balance(addr_of(1))), U256{100});
}

TEST(CommitPipeline, SettleCallbackDeliversResultsInFifoOrder) {
  // The push-style settlement notification the event-driven node loop
  // consumes: one callback per submission, in publication (= FIFO) order,
  // carrying the publishing result.
  ThreadPool pool(4);
  commit::CommitPipeline pipe(&pool);

  std::mutex mu;
  std::vector<std::uint64_t> order;
  std::vector<Hash256> roots;
  WorldState ws;
  std::vector<Hash256> expected;
  for (std::uint64_t n = 0; n < 6; ++n) {
    ws.set(StateKey::balance(addr_of(n + 1)), U256{n + 1});
    expected.push_back(ws.state_root_full_rebuild());
    pipe.submit(std::make_shared<WorldState>(ws), {},
                [&](const commit::CommitResult& r) {
                  std::scoped_lock lk(mu);
                  order.push_back(r.sequence);
                  roots.push_back(r.state_root);
                });
  }
  pipe.drain();

  // drain() implies every callback has finished, not merely started.
  std::scoped_lock lk(mu);
  ASSERT_EQ(order.size(), 6u);
  for (std::uint64_t n = 0; n < 6; ++n) {
    EXPECT_EQ(order[n], n);
    EXPECT_EQ(roots[n], expected[n]);
  }
  EXPECT_EQ(pipe.stats().settled, 6u);
}

TEST(CommitPipeline, SettleCallbackFiresInlineInDegradedMode) {
  commit::CommitPipeline pipe;  // no pool
  bool fired = false;
  auto ws = std::make_shared<WorldState>();
  ws->set(StateKey::nonce(addr_of(7)), U256{1});
  pipe.submit(ws, {}, [&](const commit::CommitResult& r) {
    fired = true;
    EXPECT_EQ(r.sequence, 0u);
  });
  EXPECT_TRUE(fired);  // before submit() returned
  EXPECT_EQ(pipe.pending(), 0u);
}

TEST(CommitPipeline, WaitPendingAtMostEnforcesSpeculationDepth) {
  // One pool thread, first task gated: three commitments pile up in flight,
  // and the depth-backpressure wait only returns once enough have settled.
  ThreadPool pool(1);
  commit::CommitPipeline pipe(&pool);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();

  WorldState ws;
  for (std::uint64_t n = 0; n < 3; ++n) {
    ws.set(StateKey::balance(addr_of(n + 1)), U256{n + 1});
    commit::AuxRootFn aux;
    if (n == 0)
      aux = [opened] {
        opened.wait();
        return Hash256{};
      };
    pipe.submit(std::make_shared<WorldState>(ws), std::move(aux));
  }
  EXPECT_EQ(pipe.pending(), 3u);
  EXPECT_EQ(pipe.stats().max_pending, 3u);

  gate.set_value();
  pipe.wait_pending_at_most(1);
  EXPECT_LE(pipe.pending(), 1u);
  pipe.drain();
  EXPECT_EQ(pipe.pending(), 0u);
  EXPECT_EQ(pipe.stats().settled, 3u);
}

TEST(CommitPipeline, DestructionDrainsAbandonedCommitments) {
  // A revoked speculative suffix drops its CommitHandles without awaiting
  // them.  The pipeline must outlive those orphaned tasks: its destructor
  // drains, and every settlement callback completes before it returns.
  ThreadPool pool(2);
  std::atomic<int> settled{0};
  for (int round = 0; round < 8; ++round) {
    commit::CommitPipeline pipe(&pool);
    WorldState ws;
    for (std::uint64_t n = 0; n < 4; ++n) {
      ws.set(StateKey::storage(addr_of(n + 1), U256{n}), U256{n + 41});
      pipe.submit(std::make_shared<WorldState>(ws), {},
                  [&](const commit::CommitResult&) { ++settled; });
      // Handle intentionally discarded — nobody awaits this commitment.
    }
  }  // ~CommitPipeline drains; destroyed state must not be touched after
  EXPECT_EQ(settled.load(), 8 * 4);
}

// ---------------------------------------------------------------------------
// Async integration: proposer / validator / pipeline / blockchain

evm::BlockContext ctx_for(std::uint64_t height) {
  evm::BlockContext ctx;
  ctx.number = height;
  ctx.timestamp = 1'700'000'000 + height * 12;
  ctx.coinbase = Address::from_id(0xC0FFEE);
  return ctx;
}

core::BlockBundle bundle_from(const WorldState& pre,
                              const std::vector<chain::Transaction>& txs,
                              std::uint64_t height) {
  const core::SerialResult r =
      core::execute_serial(pre, ctx_for(height), std::span(txs));
  core::BlockBundle b;
  b.block = core::seal_block(ctx_for(height), r.exec, r.included);
  b.profile = r.exec.profile;
  return b;
}

struct AsyncCommitFixture : ::testing::Test {
  workload::WorkloadGenerator gen{workload::preset_mainnet()};
  WorldState genesis = gen.genesis();
};

TEST_F(AsyncCommitFixture, ProposerAsyncSealMatchesInlineSeal) {
  auto propose = [&](commit::CommitPipeline* cp) {
    workload::WorkloadGenerator local{workload::preset_mainnet()};
    txpool::TxPool pool;
    pool.add_all(local.next_batch(60));
    core::ProposerConfig cfg;
    cfg.threads = 4;
    cfg.commit_pipeline = cp;
    core::BlockProposer proposer(cfg);
    ThreadPool workers(1);  // the virtual-time engine never touches it
    return proposer.propose(genesis, ctx_for(1), pool, workers);
  };

  const auto inline_sealed = propose(nullptr);

  ThreadPool commit_pool(2);
  commit::CommitPipeline pipe(&commit_pool);
  auto async_sealed = propose(&pipe);
  ASSERT_TRUE(async_sealed.commit.valid());
  EXPECT_EQ(async_sealed.block.header.state_root, Hash256{});
  async_sealed.await_seal();

  EXPECT_EQ(async_sealed.block.header.state_root,
            inline_sealed.block.header.state_root);
  EXPECT_EQ(async_sealed.block.header.receipts_root,
            inline_sealed.block.header.receipts_root);
  EXPECT_EQ(async_sealed.block.header.logs_bloom,
            inline_sealed.block.header.logs_bloom);
}

TEST_F(AsyncCommitFixture, ValidatorAsyncRootCheckAcceptsHonestBlock) {
  const auto bundle = bundle_from(genesis, gen.next_batch(50), 1);

  ThreadPool commit_pool(2);
  commit::CommitPipeline pipe(&commit_pool);
  core::ValidatorConfig vc;
  vc.threads = 4;
  vc.commit_pipeline = &pipe;
  core::BlockValidator validator(vc);
  ThreadPool workers(4);
  auto outcome = validator.validate(genesis, bundle.block, bundle.profile,
                                    workers);
  ASSERT_TRUE(outcome.valid) << outcome.reject_reason;  // provisional
  ASSERT_TRUE(outcome.commit.valid());
  EXPECT_TRUE(outcome.await_commit()) << outcome.reject_reason;
  EXPECT_EQ(outcome.exec.state_root, bundle.block.header.state_root);
}

TEST_F(AsyncCommitFixture, ValidatorAsyncRootCheckRejectsTamperedRoot) {
  auto bundle = bundle_from(genesis, gen.next_batch(30), 1);
  bundle.block.header.state_root.bytes[0] ^= 0xff;  // Byzantine header

  ThreadPool commit_pool(2);
  commit::CommitPipeline pipe(&commit_pool);
  core::ValidatorConfig vc;
  vc.threads = 2;
  vc.commit_pipeline = &pipe;
  core::BlockValidator validator(vc);
  ThreadPool workers(2);
  auto outcome = validator.validate(genesis, bundle.block, bundle.profile,
                                    workers);
  ASSERT_TRUE(outcome.valid);  // execution-level: provisionally accepted
  EXPECT_FALSE(outcome.await_commit());
  EXPECT_EQ(outcome.reject_reason, "state root mismatch");
}

TEST_F(AsyncCommitFixture, PipelineAsyncMatchesSyncOverChain) {
  // Build a 3-height honest chain.
  std::vector<std::vector<core::BlockBundle>> heights;
  const WorldState* parent = &genesis;
  std::shared_ptr<const WorldState> holder;
  for (std::uint64_t h = 1; h <= 3; ++h) {
    auto bundle = bundle_from(*parent, gen.next_batch(25), h);
    core::SerialOptions opts;
    opts.drop_unincludable = false;
    const auto r = core::execute_serial(
        *parent, ctx_for(h), std::span(bundle.block.transactions), opts);
    ASSERT_TRUE(r.ok);
    holder = r.exec.post_state;
    parent = holder.get();
    heights.push_back({std::move(bundle)});
  }

  core::ValidatorConfig sync_cfg;
  sync_cfg.threads = 4;
  core::ValidatorConfig async_cfg = sync_cfg;
  ThreadPool commit_pool(2);
  commit::CommitPipeline pipe(&commit_pool);
  async_cfg.commit_pipeline = &pipe;

  ThreadPool workers(4);
  core::ChainSession sync_session(sync_cfg, genesis);
  core::ChainSession async_session(async_cfg, genesis);
  // Async: push every height before settling any, so each height's root
  // check overlaps the next height's execution.
  for (const auto& siblings : heights) {
    sync_session.push_height(std::span(siblings), workers);
    EXPECT_TRUE(sync_session.settle_next());
    async_session.push_height(std::span(siblings), workers);
  }
  while (async_session.can_settle()) EXPECT_TRUE(async_session.settle_next());

  ASSERT_EQ(sync_session.height_count(), async_session.height_count());
  EXPECT_EQ(sync_session.stats().async_commits, 0u);
  EXPECT_EQ(async_session.stats().async_commits, 3u);
  for (std::size_t h = 0; h < sync_session.height_count(); ++h) {
    EXPECT_EQ(sync_session.outcome(h, 0).valid,
              async_session.outcome(h, 0).valid)
        << async_session.outcome(h, 0).reject_reason;
    EXPECT_EQ(sync_session.outcome(h, 0).exec.state_root,
              async_session.outcome(h, 0).exec.state_root);
  }
}

TEST_F(AsyncCommitFixture, PipelineCascadesParentCommitFailure) {
  // Height 1's only block carries a tampered state root: execution-valid,
  // commitment-invalid.  The speculatively-validated height 2 must be
  // invalidated once height 1 fails to settle.
  auto b1 = bundle_from(genesis, gen.next_batch(20), 1);
  core::SerialOptions opts;
  opts.drop_unincludable = false;
  const auto r1 = core::execute_serial(
      genesis, ctx_for(1), std::span(b1.block.transactions), opts);
  ASSERT_TRUE(r1.ok);
  auto b2 = bundle_from(*r1.exec.post_state, gen.next_batch(20), 2);
  b1.block.header.state_root.bytes[0] ^= 0xff;

  std::vector<std::vector<core::BlockBundle>> heights = {{b1}, {b2}};
  ThreadPool commit_pool(2);
  commit::CommitPipeline pipe(&commit_pool);
  core::ValidatorConfig cfg;
  cfg.threads = 4;
  cfg.commit_pipeline = &pipe;
  ThreadPool workers(4);
  core::ChainSession session(cfg, genesis);
  for (const auto& siblings : heights)
    ASSERT_EQ(session.push_height(std::span(siblings), workers), 0u);
  // Height 2 executed on height 1's speculative tip before the root landed.
  EXPECT_TRUE(session.outcome(1, 0).valid);
  EXPECT_FALSE(session.settle_next());
  EXPECT_EQ(session.fork_choice(0), SIZE_MAX);
  session.cascade_from(1);

  EXPECT_FALSE(session.outcome(0, 0).valid);
  EXPECT_EQ(session.outcome(0, 0).reject_reason, "state root mismatch");
  EXPECT_FALSE(session.outcome(1, 0).valid);
  EXPECT_EQ(session.outcome(1, 0).reject_reason,
            "parent block failed commitment");
}

TEST_F(AsyncCommitFixture, BlockchainCommitsFromHandle) {
  chain::Blockchain bc(genesis);

  txpool::TxPool pool;
  pool.add_all(gen.next_batch(40));
  ThreadPool commit_pool(2);
  commit::CommitPipeline pipe(&commit_pool);
  core::ProposerConfig cfg;
  cfg.threads = 4;
  cfg.commit_pipeline = &pipe;
  core::BlockProposer proposer(cfg);
  ThreadPool workers(1);  // the virtual-time engine never touches it
  auto proposed =
      proposer.propose(*bc.head_state(), ctx_for(1), pool, workers);
  ASSERT_TRUE(proposed.commit.valid());

  proposed.block.header.parent_hash = bc.head().header.hash();
  bc.commit_block(proposed.block, proposed.commit, proposed.receipts);

  EXPECT_EQ(bc.height(), 1u);
  const Hash256 head_root = bc.head().header.state_root;
  EXPECT_EQ(head_root, bc.head_state()->state_root());
  EXPECT_NE(head_root, Hash256{});
}

}  // namespace
}  // namespace blockpilot

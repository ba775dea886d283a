// Concurrency stress tests for the commit subsystem and its supporting
// primitives.  Registered under the `stress` ctest label (and `commit`, so
// the tsan-commit preset picks them up): the interesting assertions here
// are the ones ThreadSanitizer makes — copies taken while commits are in
// flight, concurrent rooters and forks sharing persistent tries, copies
// writing into copy-on-write storage shards their source is hashing,
// children adopting the fold of a parent that is still hashing, and
// producer hammering of the ThreadPool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "commit/commit_pipeline.hpp"
#include "db/node_store.hpp"
#include "state/versioned_state.hpp"
#include "state/world_state.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

#if defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

namespace blockpilot {
namespace {

using state::StateKey;
using state::WorldState;

Address addr_of(std::uint64_t id) { return Address::from_id(id); }

void random_writes(Xoshiro256& rng, WorldState& ws, int count) {
  for (int i = 0; i < count; ++i) {
    const Address addr = addr_of(1 + rng() % 48);
    switch (rng() % 6) {
      case 0:
        ws.set(StateKey::balance(addr), U256{rng() % 500});
        break;
      case 1:
        ws.set(StateKey::nonce(addr), U256{rng() % 32});
        break;
      default: {
        const U256 val = (rng() % 5 == 0) ? U256{} : U256{rng() % 10'000};
        ws.set(StateKey::storage(addr, U256{rng() % 12}), val);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// WorldState: copy / commit overlap

TEST(StressWorldState, CopiesTakenDuringInFlightCommitStayCorrect) {
  // One thread computes the root (the in-flight commit) while the main
  // thread repeatedly copies the same state and a second thread roots it
  // again concurrently.  Every copy must produce the oracle root.
  Xoshiro256 rng(0xAB1E);
  WorldState ws;
  random_writes(rng, ws, 256);
  const Hash256 oracle = ws.state_root_full_rebuild();

  for (int round = 0; round < 4; ++round) {
    random_writes(rng, ws, 64);
    const Hash256 expect = ws.state_root_full_rebuild();

    std::vector<WorldState> copies;
    {
      std::jthread rooter1([&ws] { (void)ws.state_root(); });
      std::jthread rooter2([&ws] { (void)ws.state_root(); });
      for (int c = 0; c < 6; ++c) copies.emplace_back(ws);
    }  // join rooters

    EXPECT_EQ(ws.state_root(), expect) << "round " << round;
    for (auto& copy : copies)
      EXPECT_EQ(copy.state_root(), expect) << "round " << round;
  }
  (void)oracle;
}

TEST(StressWorldState, ConcurrentRootersAgreeOnOneObject) {
  Xoshiro256 rng(0xCAFE);
  WorldState ws;
  for (int round = 0; round < 6; ++round) {
    random_writes(rng, ws, 96);
    const Hash256 expect = ws.state_root_full_rebuild();
    std::vector<Hash256> roots(4);
    {
      std::vector<std::jthread> rooters;
      for (std::size_t t = 0; t < roots.size(); ++t)
        rooters.emplace_back([&ws, &roots, t] { roots[t] = ws.state_root(); });
    }
    for (const Hash256& r : roots) EXPECT_EQ(r, expect) << "round " << round;
  }
}

TEST(StressWorldState, ForksCommittingConcurrentlyShareTries) {
  // Fresh accounts with pending storage writes are forked, and both forks
  // commit at the same time over the persistent tries they share with the
  // head.  Roots must match the oracle either way.
  Xoshiro256 rng(0x5EED);
  WorldState head;
  random_writes(rng, head, 64);
  for (int round = 0; round < 6; ++round) {
    // Touch a batch of brand-new accounts so both forks see them fresh.
    for (std::uint64_t i = 0; i < 6; ++i) {
      const Address fresh = addr_of(1000 + round * 16 + i);
      head.set(StateKey::storage(fresh, U256{i}), U256{round * 100 + i + 1});
      head.set(StateKey::balance(fresh), U256{1});
    }
    WorldState a = head;
    WorldState b = head;
    Hash256 ra, rb;
    {
      std::jthread ta([&a, &ra] { ra = a.state_root(); });
      std::jthread tb([&b, &rb] { rb = b.state_root(); });
    }
    EXPECT_EQ(ra, rb) << "round " << round;
    EXPECT_EQ(ra, head.state_root_full_rebuild()) << "round " << round;
    random_writes(rng, head, 24);
    head = (round % 2) ? std::move(a) : std::move(b);
    random_writes(rng, head, 24);
  }
  EXPECT_EQ(head.state_root(), head.state_root_full_rebuild());
}

TEST(StressWorldState, CopyWritesWhileSourceHashesAndSharerDies) {
  // Copy-on-write storage under contention.  One thread roots and persists
  // the source.  A second copies it, writes slots into the shards the copy
  // shares with the source, hands a copy of its copy to a third thread,
  // and writes on while the third roots that sharer and destroys it.  The
  // second thread's last writes hit shards whose only other owner died on
  // another thread with no synchronization in between: ownership read
  // from use_count() would write them in place, unordered after the
  // sharer's reads (a race TSan reports); the epoch token makes them
  // clone.  Every root must match its oracle.
  Xoshiro256 rng(0xC0B);
  constexpr std::uint64_t kContracts = 6;
  constexpr std::uint64_t kSlots = 192;  // every shard of every contract used
  const auto random_slot = [](Xoshiro256& r) {
    return StateKey::storage(addr_of(1 + r() % kContracts), U256{r() % kSlots});
  };
  WorldState src;
  for (std::uint64_t c = 0; c < kContracts; ++c)
    for (std::uint64_t s = 0; s < kSlots; ++s)
      src.set(StateKey::storage(addr_of(c + 1), U256{s}), U256{1 + rng() % 1000});
  const int rounds = kSanitized ? 4 : 12;
  for (int round = 0; round < rounds; ++round) {
    for (int i = 0; i < 32; ++i) src.set(random_slot(rng), U256{rng() % 1000});
    const Hash256 expect = src.state_root_full_rebuild();

    db::InMemoryNodeStore store;
    Hash256 src_root, sharer_root, sharer_oracle;
    std::unique_ptr<WorldState> copy, sharer;
    std::unordered_map<StateKey, U256> copy_model;
    std::latch handed_over(1);
    // Relaxed on purpose: it must not order the sharer's death before the
    // writer's late writes.
    std::atomic<bool> sharer_dead{false};
    {
      std::jthread rooter([&] {
        src_root = src.state_root();
        (void)src.persist_commitment(store);
      });
      std::jthread writer([&, seed = rng()] {
        Xoshiro256 wrng(seed);
        copy = std::make_unique<WorldState>(src);
        const auto write = [&](const StateKey& key, const U256& value) {
          copy->set(key, value);
          copy_model[key] = value;
        };
        std::vector<StateKey> first;
        for (int i = 0; i < 64; ++i) {
          first.push_back(random_slot(wrng));
          write(first.back(), U256{wrng() % 1000});
        }
        sharer = std::make_unique<WorldState>(*copy);
        handed_over.count_down();
        for (int i = 0; i < 16; ++i)  // while the sharer lives
          write(random_slot(wrng), U256{wrng() % 1000});
        while (!sharer_dead.load(std::memory_order_relaxed))
          std::this_thread::yield();
        // After it died: new values in the shards the copy cloned before
        // the hand-over, which only the dead sharer shared.  Writing only
        // there keeps any clone (and the acquire its reference drop makes)
        // from ordering the sharer's reads before these writes.
        for (const StateKey& key : first) write(key, U256{1000 + wrng() % 1000});
      });
      std::jthread killer([&] {
        handed_over.wait();
        sharer_root = sharer->state_root();
        sharer_oracle = sharer->state_root_full_rebuild();
        sharer.reset();
        sharer_dead.store(true, std::memory_order_relaxed);
      });
    }

    EXPECT_EQ(src_root, expect) << "round " << round;
    EXPECT_TRUE(store.contains(expect)) << "round " << round;
    EXPECT_EQ(sharer_root, sharer_oracle) << "round " << round;
    EXPECT_EQ(copy->state_root(), copy->state_root_full_rebuild())
        << "round " << round;
    for (const auto& [key, value] : copy_model)
      EXPECT_EQ(copy->get(key), value) << key.to_string();
    // The source kept every value the copy overwrote.
    EXPECT_EQ(src.state_root_full_rebuild(), expect) << "round " << round;
    EXPECT_EQ(src.state_root(), expect) << "round " << round;
  }
}

TEST(StressWorldState, ChildRootsWhileParentHashes) {
  // The commitment handoff under contention: a chain of unsealed states,
  // each copied from the last before it roots, with the parent hashing on
  // one thread while its child (and a copy of the child, taken mid-hash)
  // root on others.  Whichever side wins — the child adopts the parent's
  // fold or folds the inherited writes itself — every root must match its
  // oracle, and the cell's fill and adoption must not race.
  Xoshiro256 rng(0x4A4D);
  auto parent = std::make_unique<WorldState>();
  random_writes(rng, *parent, 256);
  (void)parent->state_root();
  const int rounds = kSanitized ? 12 : 48;
  for (int round = 0; round < rounds; ++round) {
    random_writes(rng, *parent, 48);
    auto child = std::make_unique<WorldState>(*parent);
    random_writes(rng, *child, 48);
    const Hash256 parent_oracle = parent->state_root_full_rebuild();
    const Hash256 child_oracle = child->state_root_full_rebuild();
    Hash256 parent_root, child_root, grandchild_root;
    std::unique_ptr<WorldState> grandchild;
    {
      std::latch go(2);
      std::jthread hasher([&] {
        go.arrive_and_wait();
        parent_root = parent->state_root();
      });
      std::jthread rooter([&] {
        go.arrive_and_wait();
        if (round % 2) std::this_thread::yield();
        grandchild = std::make_unique<WorldState>(*child);
        child_root = child->state_root();
        grandchild_root = grandchild->state_root();
      });
    }
    EXPECT_EQ(parent_root, parent_oracle) << "round " << round;
    EXPECT_EQ(child_root, child_oracle) << "round " << round;
    EXPECT_EQ(grandchild_root, child_oracle) << "round " << round;
    parent = std::move(child);
  }
  EXPECT_EQ(parent->state_root(), parent->state_root_full_rebuild());
}

TEST(StressWorldState, CommitPipelineOverlapsCopiesAndSubmissions) {
  // Chained submissions through a real pool while the main thread keeps
  // copying the just-submitted (immutable) states.
  ThreadPool pool(2);
  commit::CommitPipeline pipe(&pool);
  Xoshiro256 rng(0xF10);

  auto parent = std::make_shared<const WorldState>();
  std::vector<commit::CommitHandle> handles;
  std::vector<Hash256> oracles;
  for (int h = 0; h < 8; ++h) {
    auto next = std::make_shared<WorldState>(*parent);
    random_writes(rng, *next, 48);
    std::shared_ptr<const WorldState> sealed = std::move(next);
    handles.push_back(pipe.submit(sealed));
    oracles.push_back(sealed->state_root_full_rebuild());
    // Copy while the pipeline may still be hashing this very state.
    const WorldState snapshot(*sealed);
    EXPECT_EQ(snapshot.state_root_full_rebuild(), oracles.back());
    parent = std::move(sealed);
  }
  for (std::size_t h = 0; h < handles.size(); ++h) {
    const auto& res = handles[h].get();
    EXPECT_EQ(res.state_root, oracles[h]) << "height " << h;
    if (h > 0) EXPECT_GT(res.sequence, handles[h - 1].get().sequence);
  }
}

// ---------------------------------------------------------------------------
// ThreadPool hammering

TEST(StressSupport, ThreadPoolHammerFromManyProducers) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  constexpr int kProducers = 8;
  constexpr int kTasksEach = 500;
  {
    std::vector<std::jthread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&pool, &sum, p] {
        for (int t = 0; t < kTasksEach; ++t)
          pool.submit([&sum, p, t] {
            sum.fetch_add(static_cast<std::uint64_t>(p) * kTasksEach + t + 1,
                          std::memory_order_relaxed);
          });
      });
    }
  }  // join producers
  pool.wait_idle();
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kProducers) * kTasksEach;
  EXPECT_EQ(sum.load(), kTotal * (kTotal + 1) / 2);
}

TEST(StressSupport, ThreadPoolNestedSubmissionsDrain) {
  ThreadPool pool(3);
  std::atomic<int> executed{0};
  for (int t = 0; t < 64; ++t) {
    pool.submit([&pool, &executed] {
      executed.fetch_add(1, std::memory_order_relaxed);
      pool.submit(
          [&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(executed.load(), 128);
}

// ---------------------------------------------------------------------------
// MvMemory as the OCC-WSI proposer drives it: readers at the published
// prefix racing a serialized record + publish

TEST(StressMvMemory, SnapshotReadersRacingCommitterSeeOracleValues) {
  // N reader threads hammer snapshot reads (through per-thread MvViews,
  // like proposer lanes) while one committer records positions and then
  // release-publishes the committed count, as the commit section does.
  // Each reader pins the count it acquired and every value it observes
  // must equal the serial oracle's value at that snapshot — regardless of
  // how far the committer has advanced.  Under TSan this also proves the
  // stripe locks and the publication order are race-free.
  constexpr std::uint32_t kVersions = 200;
  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kKeys = 96;

  state::WorldState base;
  std::vector<StateKey> keys;
  for (std::size_t a = 0; a < kKeys / 2; ++a) {
    keys.push_back(StateKey::balance(addr_of(a + 1)));
    keys.push_back(StateKey::storage(addr_of(a + 1), U256{a}));
  }
  for (std::size_t i = 0; i < keys.size(); ++i)
    base.set(keys[i], U256{i + 1000});

  // Pre-build the commit schedule and the oracle: value_at[v][i] is the
  // serial value of keys[i] after versions 1..v applied in order.
  Xoshiro256 rng(0x57AE55);
  std::vector<std::vector<std::pair<StateKey, U256>>> schedule;
  std::vector<std::vector<U256>> value_at(kVersions + 1);
  value_at[0].resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    value_at[0][i] = base.get(keys[i]);
  for (std::uint32_t v = 1; v <= kVersions; ++v) {
    value_at[v] = value_at[v - 1];
    std::vector<std::pair<StateKey, U256>> ws;
    std::vector<bool> used(keys.size(), false);
    while (ws.size() < 3) {
      const std::size_t i = rng.below(keys.size());
      if (used[i]) continue;
      used[i] = true;
      const U256 val{v * 1'000'000 + i};
      ws.emplace_back(keys[i], val);
      value_at[v][i] = val;
    }
    schedule.push_back(std::move(ws));
  }

  state::MvMemory mv(base, kVersions);
  std::atomic<std::uint32_t> committed{0};
  std::atomic<bool> stop{false};
  std::vector<std::jthread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rd(0xFEED + r);
      state::MvView view(mv);
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint32_t snap = committed.load(std::memory_order_acquire);
        view.begin(snap);
        for (int probe = 0; probe < 16; ++probe) {
          const std::size_t i = rd.below(keys.size());
          const U256 got = view.read(keys[i]);
          ASSERT_EQ(got, value_at[snap][i])
              << "key " << i << " at snapshot " << snap;
          // Validation-path check, negative direction only (a racing commit
          // may record the key at any moment): `now` is acquired BEFORE the
          // scan, so if written_from finds no writer at or above `snap`, no
          // position in [snap, now) touched the key and the oracle values
          // must agree.
          const std::uint32_t now = committed.load(std::memory_order_acquire);
          if (!mv.written_from(keys[i], snap)) {
            ASSERT_EQ(value_at[now][i], value_at[snap][i]);
          }
        }
      }
    });
  }

  for (std::uint32_t pos = 0; pos < kVersions; ++pos) {
    mv.record(pos, 0, schedule[pos]);
    committed.store(pos + 1, std::memory_order_release);
    if ((pos + 1) % 32 == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  readers.clear();

  // Quiescent cross-check: final snapshot equals the oracle everywhere.
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(mv.read(keys[i], kVersions).value, value_at[kVersions][i]);
}

}  // namespace
}  // namespace blockpilot

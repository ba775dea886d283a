// The `db` suite: the persistent node store's crash, corruption, and
// differential guarantees.
//
//   * PageFile round-trips, jumbo spans, torn-tail recovery;
//   * PagedNodeStore recovery to the last durable root after a simulated
//     kill (destruction without sync + physically torn file tail);
//   * checksum corruption surfaces as ErrorCode::kCorruptPage, never UB;
//   * 512-block differential fuzz: a never-persisted reference trie, an
//     InMemoryNodeStore lineage, and a PagedNodeStore lineage stay
//     bit-identical at every root — including across a crash + recovery +
//     replay restart at block 256;
//   * compaction preserves every live node and reclaims dead bytes, keeps
//     puts racing its off-lock scan, copies jumbo records from that scan,
//     and leaves the old file in place when a sealed page is damaged;
//   * chain-level parity: a chain running on the paged store (with a
//     restart mid-run) commits the same roots and the same abort decisions
//     as a store-less chain;
//   * NodeCache counters stay monotone and consistent under concurrency.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <shared_mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/blockpilot.hpp"
#include "db/node_store.hpp"
#include "db/page_file.hpp"
#include "db/paged_node_store.hpp"
#include "rlp/rlp.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "trie/mpt.hpp"
#include "trie/node_cache.hpp"

namespace blockpilot {
namespace {

namespace fs = std::filesystem;
using db::ErrorCode;
using db::PageFile;
using db::PageRef;
using db::Status;
using trie::Bytes;
using trie::MerklePatriciaTrie;

/// Self-deleting scratch directory for one test.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/bpdb_test_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made;
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

Bytes random_bytes(Xoshiro256& rng, std::size_t len) {
  Bytes out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

Hash256 hash_from(std::uint64_t x) {
  Hash256 h;
  std::memcpy(h.bytes.data(), &x, sizeof(x));
  return h;
}

/// Appends `n` garbage bytes to a file — the physically torn tail a crash
/// mid-pwrite leaves behind.
void tear_tail(const std::string& file, std::size_t n) {
  const int fd = ::open(file.c_str(), O_WRONLY | O_APPEND);
  ASSERT_GE(fd, 0);
  std::vector<std::uint8_t> junk(n, 0x5a);
  ASSERT_EQ(::write(fd, junk.data(), junk.size()),
            static_cast<ssize_t>(junk.size()));
  ::close(fd);
}

/// Flips one byte at `offset` in a file (in-place corruption).
void flip_byte(const std::string& file, off_t offset) {
  const int fd = ::open(file.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  std::uint8_t b = 0;
  ASSERT_EQ(::pread(fd, &b, 1, offset), 1);
  b ^= 0xff;
  ASSERT_EQ(::pwrite(fd, &b, 1, offset), 1);
  ::close(fd);
}

// ---------------------------------------------------------------- PageFile

TEST(PageFile, RoundTripsOrdinaryAndJumboRecords) {
  TempDir dir;
  const std::string path = dir.path + "/nodes.1.bpdb";
  PageFile::Options opts;
  opts.page_size = 256;  // small pages force sealing and jumbo spans

  std::unique_ptr<PageFile> file;
  ASSERT_TRUE(PageFile::open(path, opts, UINT64_MAX, file).ok());

  Xoshiro256 rng(42);
  std::vector<std::pair<PageRef, Bytes>> written;
  for (int i = 0; i < 200; ++i) {
    // Mix tiny records, page-filling records, and jumbo (multi-page) ones.
    const std::size_t len = i % 17 == 0 ? rng.range(300, 2000)  // jumbo
                                        : rng.range(1, 180);
    Bytes rec = random_bytes(rng, len);
    PageRef ref;
    ASSERT_TRUE(file->append(std::span(rec), ref).ok());
    written.emplace_back(ref, std::move(rec));
    if (i % 31 == 0) ASSERT_TRUE(file->sync().ok());
  }
  // Reads must work before AND after the final sync (partial-page reads).
  for (const auto& [ref, expect] : written) {
    Bytes got;
    ASSERT_TRUE(file->read(ref, got).ok());
    EXPECT_EQ(got, expect);
  }
  ASSERT_TRUE(file->sync().ok());

  // Reopen trusting the whole file and re-verify through scan.
  file.reset();
  ASSERT_TRUE(PageFile::open(path, opts, UINT64_MAX, file).ok());
  PageFile::Image image;
  ASSERT_TRUE(file->scan(0, file->sealed_pages(), image).ok());
  ASSERT_EQ(image.records.size(), written.size());
  std::size_t seen = 0;
  for (const auto& [ref, rec] : image.records) {
    EXPECT_EQ(written[seen].first, ref);
    EXPECT_TRUE(std::equal(rec.begin(), rec.end(), written[seen].second.begin(),
                           written[seen].second.end()));
    ++seen;
  }
  EXPECT_EQ(seen, written.size());
}

TEST(PageFile, TruncatesUntrustedTailOnOpen) {
  TempDir dir;
  const std::string path = dir.path + "/nodes.1.bpdb";
  PageFile::Options opts;
  opts.page_size = 256;

  std::unique_ptr<PageFile> file;
  ASSERT_TRUE(PageFile::open(path, opts, UINT64_MAX, file).ok());
  Xoshiro256 rng(7);
  Bytes rec = random_bytes(rng, 100);
  PageRef ref;
  ASSERT_TRUE(file->append(std::span(rec), ref).ok());
  ASSERT_TRUE(file->sync().ok());
  const std::uint64_t durable = file->sealed_pages();
  // More appends that never sync, then a "crash".
  for (int i = 0; i < 20; ++i) {
    Bytes extra = random_bytes(rng, 150);
    PageRef r2;
    ASSERT_TRUE(file->append(std::span(extra), r2).ok());
  }
  file.reset();  // destructor does NOT sync — models the kill
  tear_tail(path, 97);

  // Recovery trusts only the durable prefix.
  ASSERT_TRUE(PageFile::open(path, opts, durable, file).ok());
  EXPECT_EQ(file->sealed_pages(), durable);
  Bytes got;
  ASSERT_TRUE(file->read(ref, got).ok());
  EXPECT_EQ(got, rec);
  EXPECT_EQ(fs::file_size(path), durable * opts.page_size);
}

// ---------------------------------------------------------- PagedNodeStore

TEST(PagedNodeStore, KillAfterNAppendsRecoversToDurableRoot) {
  // For several kill points N: commit a durable batch, append N more nodes
  // without a barrier, kill (no sync) + tear the tail, reopen.  Every
  // durable node must survive; the store must report the durable root.
  for (const int kills : {0, 1, 5, 40}) {
    TempDir dir;
    db::PagedNodeStore::Options opts;
    opts.page_size = 256;
    std::unique_ptr<db::PagedNodeStore> store;
    ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, store).ok());

    Xoshiro256 rng(1000 + static_cast<std::uint64_t>(kills));
    std::vector<std::pair<Hash256, Bytes>> durable_nodes;
    for (int i = 0; i < 30; ++i) {
      const Hash256 h = hash_from(rng());
      Bytes enc = random_bytes(rng, rng.range(10, 400));
      ASSERT_TRUE(store->put(h, std::span(enc)).ok());
      durable_nodes.emplace_back(h, std::move(enc));
    }
    const Hash256 root = durable_nodes.back().first;
    ASSERT_TRUE(store->commit_root(root, 7).ok());

    for (int i = 0; i < kills; ++i) {
      const Hash256 h = hash_from(rng());
      Bytes enc = random_bytes(rng, rng.range(10, 400));
      ASSERT_TRUE(store->put(h, std::span(enc)).ok());
    }
    const std::string data_path = store->data_file_path();
    store.reset();  // kill: no sync, no manifest write
    tear_tail(data_path, 123);

    ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, store).ok());
    EXPECT_EQ(store->durable_root(), root);
    EXPECT_EQ(store->durable_height(), 7u);
    EXPECT_EQ(store->stats().recovered_nodes, durable_nodes.size());
    for (const auto& [h, enc] : durable_nodes) {
      std::vector<std::uint8_t> got;
      ASSERT_TRUE(store->get(h, got).ok());
      EXPECT_EQ(got, enc);
    }
    ASSERT_TRUE(store->verify_all_pages().ok());
  }
}

TEST(PagedNodeStore, ChecksumCorruptionIsATypedError) {
  TempDir dir;
  db::PagedNodeStore::Options opts;
  opts.page_size = 256;
  std::unique_ptr<db::PagedNodeStore> store;
  ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, store).ok());

  Xoshiro256 rng(99);
  Hash256 root;
  for (int i = 0; i < 20; ++i) {
    root = hash_from(rng());
    Bytes enc = random_bytes(rng, 100);
    ASSERT_TRUE(store->put(root, std::span(enc)).ok());
  }
  ASSERT_TRUE(store->commit_root(root, 1).ok());
  const std::string data_path = store->data_file_path();

  // Read-path detection: corrupt a sealed page under a live store.
  flip_byte(data_path, static_cast<off_t>(opts.page_size) + 60);
  bool saw_corrupt = false;
  std::vector<std::uint8_t> out;
  Xoshiro256 replay(99);
  for (int i = 0; i < 20; ++i) {
    const Hash256 h = hash_from(replay());
    (void)random_bytes(replay, 100);  // keep the streams aligned
    const Status st = store->get(h, out);
    if (!st.ok()) {
      EXPECT_EQ(st.code, ErrorCode::kCorruptPage) << st.message;
      saw_corrupt = true;
    }
  }
  EXPECT_TRUE(saw_corrupt);

  // Open-path detection: recovery scans every trusted page.
  store.reset();
  const Status st = db::PagedNodeStore::open(dir.path, opts, store);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code, ErrorCode::kCorruptPage) << st.message;
}

TEST(PagedNodeStore, RejectsGarbageManifest) {
  TempDir dir;
  {
    std::unique_ptr<db::PagedNodeStore> store;
    ASSERT_TRUE(db::PagedNodeStore::open(dir.path, {}, store).ok());
    const Bytes tiny{1, 2, 3};
    ASSERT_TRUE(store->put(hash_from(1), std::span(tiny)).ok());
    ASSERT_TRUE(store->commit_root(hash_from(1), 1).ok());
  }
  // Trash both manifest slots.
  const std::string manifest = dir.path + "/MANIFEST.bpdb";
  for (off_t off : {0, 128}) flip_byte(manifest, off);
  std::unique_ptr<db::PagedNodeStore> store;
  const Status st = db::PagedNodeStore::open(dir.path, {}, store);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code, ErrorCode::kBadManifest);
}

TEST(NodeStore, DedupAndMissSemanticsMatchAcrossBackends) {
  TempDir dir;
  db::InMemoryNodeStore mem;
  std::unique_ptr<db::PagedNodeStore> paged;
  ASSERT_TRUE(db::PagedNodeStore::open(dir.path, {}, paged).ok());

  const Hash256 h = hash_from(0xabc);
  const Bytes enc{1, 2, 3, 4};
  for (db::NodeStore* s : {static_cast<db::NodeStore*>(&mem),
                           static_cast<db::NodeStore*>(paged.get())}) {
    EXPECT_FALSE(s->contains(h));
    std::vector<std::uint8_t> out;
    EXPECT_EQ(s->get(h, out).code, ErrorCode::kNotFound);
    ASSERT_TRUE(s->put(h, std::span(enc)).ok());
    ASSERT_TRUE(s->put(h, std::span(enc)).ok());  // idempotent
    EXPECT_TRUE(s->contains(h));
    ASSERT_TRUE(s->get(h, out).ok());
    EXPECT_EQ(out, enc);
    const auto st = s->stats();
    EXPECT_EQ(st.puts, 1u);
    EXPECT_EQ(st.dup_puts, 1u);
    EXPECT_EQ(st.get_misses, 1u);
    EXPECT_EQ(st.nodes, 1u);
  }
}

// ------------------------------------------------- 512-block differential

/// Deterministic per-block op stream so a crash can replay exactly.
void apply_block_ops(MerklePatriciaTrie& t, std::uint64_t block) {
  Xoshiro256 rng(block * 7919 + 17);
  for (int op = 0; op < 24; ++op) {
    const std::uint64_t k = rng.below(2048);
    std::uint8_t key[8];
    std::memcpy(key, &k, sizeof(k));
    if (rng.chance(0.25)) {
      t.erase(std::span<const std::uint8_t>(key, sizeof(key)));
    } else {
      const Bytes value = random_bytes(rng, rng.range(1, 80));
      t.put(std::span<const std::uint8_t>(key, sizeof(key)), std::span(value));
    }
  }
}

TEST(DbDifferential, TrieRoots512BlocksWithCrashAt256) {
  TempDir dir;
  db::InMemoryNodeStore mem;
  db::PagedNodeStore::Options opts;
  opts.page_size = 512;
  opts.retained_roots = 8;
  std::unique_ptr<db::PagedNodeStore> paged;
  ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, paged).ok());

  const auto load_stats_before = trie::NodeCache::global().stats();

  MerklePatriciaTrie ref;        // never persisted: the oracle
  MerklePatriciaTrie mem_trie;   // persists into / reloads from memory
  MerklePatriciaTrie paged_trie;  // persists into / reloads from disk
  Hash256 prev_root = MerklePatriciaTrie::empty_root();

  for (std::uint64_t block = 0; block < 512; ++block) {
    if (block == 256) {
      // Crash: drop the disk lineage mid-flight (no final barrier for the
      // in-progress block), tear the file, recover, replay from the last
      // durable root.  The durable root is block 255's.
      paged_trie = MerklePatriciaTrie();
      const std::string data_path = paged->data_file_path();
      paged.reset();
      tear_tail(data_path, 345);
      ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, paged).ok());
      ASSERT_EQ(paged->durable_root(), prev_root);
      ASSERT_EQ(paged->durable_height(), 255u);
      ASSERT_GT(paged->stats().recovered_nodes, 0u);
      trie::NodeCache::global().clear();  // a restarted process is cold
      paged_trie = MerklePatriciaTrie::from_root(prev_root, *paged);
    }

    apply_block_ops(ref, block);
    apply_block_ops(mem_trie, block);
    apply_block_ops(paged_trie, block);

    const Hash256 root = ref.root_hash();
    ASSERT_EQ(mem_trie.root_hash(), root) << "mem diverged at " << block;
    ASSERT_EQ(paged_trie.root_hash(), root) << "paged diverged at " << block;

    mem_trie.persist_nodes(mem);
    ASSERT_TRUE(mem.commit_root(root, block).ok());
    paged_trie.persist_nodes(*paged);
    ASSERT_TRUE(paged->commit_root(root, block).ok());
    prev_root = root;

    // Periodically reopen both lineages from their roots (forcing the
    // stub/load path) and drop the cache (forcing actual store reads).
    if (block % 16 == 15) trie::NodeCache::global().clear();
    if (block % 8 == 7) {
      mem_trie = MerklePatriciaTrie::from_root(root, mem);
      paged_trie = MerklePatriciaTrie::from_root(root, *paged);
      ASSERT_EQ(mem_trie.root_hash(), root);
      ASSERT_EQ(paged_trie.root_hash(), root);
      ASSERT_EQ(mem_trie.get(std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>("\0\0\0\0\0\0\0\0"),
                    8)),
                paged_trie.get(std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>("\0\0\0\0\0\0\0\0"),
                    8)));
    }
  }

  // Final full-content check: every key readable through both lineages.
  mem_trie = MerklePatriciaTrie::from_root(prev_root, mem);
  paged_trie = MerklePatriciaTrie::from_root(prev_root, *paged);
  for (std::uint64_t k = 0; k < 2048; ++k) {
    std::uint8_t key[8];
    std::memcpy(key, &k, sizeof(k));
    const auto a = ref.get(std::span<const std::uint8_t>(key, sizeof(key)));
    const auto b = mem_trie.get(std::span<const std::uint8_t>(key, sizeof(key)));
    const auto c =
        paged_trie.get(std::span<const std::uint8_t>(key, sizeof(key)));
    ASSERT_EQ(a, b) << "key " << k;
    ASSERT_EQ(a, c) << "key " << k;
  }

  // The run must actually have exercised the read-through path.
  const auto load_stats_after = trie::NodeCache::global().stats();
  EXPECT_GT(load_stats_after.hits + load_stats_after.misses,
            load_stats_before.hits + load_stats_before.misses);
  ASSERT_TRUE(paged->verify_all_pages().ok());
}

// -------------------------------------------------------------- compaction

/// Overwrites a tiny keyspace again and again, committing every block:
/// almost every old node dies.  Returns the last root.
Hash256 write_overwrite_history(MerklePatriciaTrie& t,
                                db::PagedNodeStore& store) {
  Hash256 root;
  Xoshiro256 rng(31337);
  for (std::uint64_t block = 0; block < 120; ++block) {
    for (int i = 0; i < 16; ++i) {
      const std::uint64_t k = rng.below(64);
      std::uint8_t key[8];
      std::memcpy(key, &k, sizeof(k));
      const Bytes value = random_bytes(rng, 40);
      t.put(std::span<const std::uint8_t>(key, sizeof(key)), std::span(value));
    }
    root = t.root_hash();
    t.persist_nodes(store);
    EXPECT_TRUE(store.commit_root(root, block).ok());
  }
  return root;
}

TEST(PagedNodeStore, CompactionKeepsLiveSetAndReclaimsDeadBytes) {
  TempDir dir;
  db::PagedNodeStore::Options opts;
  opts.page_size = 512;
  opts.retained_roots = 4;
  std::unique_ptr<db::PagedNodeStore> store;
  ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, store).ok());

  MerklePatriciaTrie t;
  const Hash256 root = write_overwrite_history(t, *store);

  const auto before = store->stats();
  const std::uint64_t seq_before = store->file_seq();
  const std::string old_path = store->data_file_path();
  EXPECT_LT(store->live_ratio(), 0.5);  // most of the file is dead history

  ASSERT_TRUE(store->compact().ok());

  const auto after = store->stats();
  EXPECT_EQ(store->file_seq(), seq_before + 1);
  EXPECT_FALSE(fs::exists(old_path));
  EXPECT_TRUE(fs::exists(store->data_file_path()));
  EXPECT_LT(after.file_bytes, before.file_bytes);
  EXPECT_EQ(after.compactions, 1u);
  EXPECT_GT(after.compacted_bytes, 0u);
  EXPECT_EQ(store->durable_root(), root);
  ASSERT_TRUE(store->verify_all_pages().ok());

  // Every retained root must still fully reconstruct.
  trie::NodeCache::global().clear();
  MerklePatriciaTrie reloaded = MerklePatriciaTrie::from_root(root, *store);
  EXPECT_EQ(reloaded.root_hash(), root);
  for (std::uint64_t k = 0; k < 64; ++k) {
    std::uint8_t key[8];
    std::memcpy(key, &k, sizeof(k));
    EXPECT_EQ(reloaded.get(std::span<const std::uint8_t>(key, sizeof(key))),
              t.get(std::span<const std::uint8_t>(key, sizeof(key))));
  }

  // And the compacted store survives a restart.
  store.reset();
  ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, store).ok());
  EXPECT_EQ(store->durable_root(), root);
  trie::NodeCache::global().clear();
  reloaded = MerklePatriciaTrie::from_root(root, *store);
  EXPECT_EQ(reloaded.root_hash(), root);
}

TEST(PagedNodeStore, MaybeCompactDecidesFromItsOwnWalk) {
  // The sweep walks the live set once: that walk's bytes decide, and the
  // same set feeds the copy.  An abandoned sweep must leave the store free
  // for the next one.
  TempDir dir;
  db::PagedNodeStore::Options opts;
  opts.page_size = 512;
  opts.retained_roots = 4;
  opts.min_sweep_bytes = 0;
  opts.sweep_live_ratio = 0.0;  // no live ratio falls below: abandon
  std::unique_ptr<db::PagedNodeStore> store;
  ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, store).ok());
  MerklePatriciaTrie t;
  const Hash256 root = write_overwrite_history(t, *store);
  const std::uint64_t seq = store->file_seq();

  // Twice: the first abandoned sweep must not leave the store busy.
  ASSERT_TRUE(store->maybe_compact().ok());
  ASSERT_TRUE(store->maybe_compact().ok());
  EXPECT_EQ(store->file_seq(), seq);
  EXPECT_EQ(store->stats().compactions, 0u);

  // Reopened with the default threshold, the same history compacts.
  store.reset();
  opts.sweep_live_ratio = 0.5;
  ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, store).ok());
  ASSERT_LT(store->live_ratio(), 0.5);
  ASSERT_TRUE(store->maybe_compact().ok());
  EXPECT_EQ(store->file_seq(), seq + 1);
  EXPECT_EQ(store->stats().compactions, 1u);
  EXPECT_GE(store->live_ratio(), 0.5);
  trie::NodeCache::global().clear();
  EXPECT_EQ(MerklePatriciaTrie::from_root(root, *store).root_hash(), root);
}

// Every key of `expect` reads back through a trie loaded from `root`.
::testing::AssertionResult reloads(const db::NodeStore& store,
                                   const MerklePatriciaTrie& expect) {
  trie::NodeCache::global().clear();
  const MerklePatriciaTrie reloaded =
      MerklePatriciaTrie::from_root(expect.root_hash(), store);
  for (std::uint64_t k = 0; k < 64; ++k) {
    std::uint8_t key[8];
    std::memcpy(key, &k, sizeof(k));
    const std::span<const std::uint8_t> kspan(key, sizeof(key));
    if (reloaded.get(kspan) != expect.get(kspan))
      return ::testing::AssertionFailure() << "key " << k << " differs";
  }
  return ::testing::AssertionSuccess();
}

TEST(PagedNodeStore, SweepKeepsPutsRacingItsScan) {
  // The sweep snapshots the sealed prefix and walks it off the lock.  A
  // version persisted but not committed sits in the partial page at the
  // snapshot; versions persisted while the sweep runs land in that page
  // and in pages sealed after the snapshot.  Every one of them must
  // survive whole, and the compacted store must reopen at its durable root.
  // The racing versions also restore values of a long-dead version: the
  // persist walk finds those leaves already stored and skips them, so the
  // sweep must keep them for the racing parents that reference them.
  TempDir dir;
  db::PagedNodeStore::Options opts;
  opts.page_size = 512;
  opts.retained_roots = 4;
  std::unique_ptr<db::PagedNodeStore> store;
  ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, store).ok());
  MerklePatriciaTrie t;
  (void)write_overwrite_history(t, *store);

  Xoshiro256 rng(0x5CA7);
  const auto key_of = [](std::uint64_t k) {
    std::array<std::uint8_t, 8> key;
    std::memcpy(key.data(), &k, sizeof(k));
    return key;
  };
  const auto next_version = [&](int writes) {
    for (int i = 0; i < writes; ++i) {
      const auto key = key_of(rng.below(64));
      const Bytes value = random_bytes(rng, 40);
      t.put(std::span(key), std::span(value));
    }
    t.persist_nodes(*store);
    return t;
  };
  // A version whose every leaf dies: 8 committed versions rewrite all 64
  // keys, which also ages its puts out of the young horizon.
  const MerklePatriciaTrie dead = t;
  std::uint64_t height = 1000;
  for (int v = 0; v < 8; ++v) {
    for (std::uint64_t k = 0; k < 64; ++k) {
      const auto key = key_of(k);
      const Bytes value = random_bytes(rng, 40);
      t.put(std::span(key), std::span(value));
    }
    t.persist_nodes(*store);
    ASSERT_TRUE(store->commit_root(t.root_hash(), ++height).ok());
  }
  std::vector<MerklePatriciaTrie> versions{next_version(8)};  // partial page
  ASSERT_GT(store->stats().file_bytes, 0u);

  // Commits racing the sweep stay below the young horizon: the sweeper
  // thread may start late, and a version persisted before its snapshot is
  // live only while its puts are young (it is never committed).
  std::atomic<bool> done{false};
  Status swept;
  std::size_t racing_commits = 0;
  {
    std::jthread sweeper([&] {
      swept = store->compact();
      done.store(true);
    });
    do {
      for (int i = 0; i < 4; ++i) {
        const auto key = key_of(rng.below(64));
        const Bytes old_value = *dead.get(std::span(key));
        t.put(std::span(key), std::span(old_value));
      }
      versions.push_back(next_version(4));
      if (versions.size() % 3 == 0 &&
          racing_commits + 1 < opts.retained_roots) {
        ASSERT_TRUE(store->commit_root(t.root_hash(), ++height).ok());
        ++racing_commits;
      }
    } while (!done.load());
  }
  ASSERT_TRUE(swept.ok()) << swept.message;
  EXPECT_EQ(store->stats().compactions, 1u);
  for (const MerklePatriciaTrie& v : versions)
    EXPECT_TRUE(reloads(*store, v));
  ASSERT_TRUE(store->verify_all_pages().ok());

  ASSERT_TRUE(store->commit_root(t.root_hash(), ++height).ok());
  store.reset();
  ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, store).ok());
  EXPECT_EQ(store->durable_root(), t.root_hash());
  EXPECT_EQ(store->durable_height(), height);
  EXPECT_TRUE(reloads(*store, t));
}

// Forwards to a PagedNodeStore and, once armed, parks the next put until
// the store's compaction has swapped files or a timeout passed.  Shares the
// inner store's writer gate, so a persist walk through it opens a real
// session on the inner store.
class ParkingStore final : public db::NodeStore {
 public:
  static constexpr auto kPark = std::chrono::milliseconds(300);

  explicit ParkingStore(db::PagedNodeStore& inner) : inner_(inner) {}

  void arm() { armed_ = true; }
  bool parked() const { return parked_.load(); }

  Status put(const Hash256& hash,
             std::span<const std::uint8_t> encoding) override {
    park();
    return inner_.put(hash, encoding);
  }
  Status put_batch(std::span<const db::NodeRecord> nodes) override {
    park();
    return inner_.put_batch(nodes);
  }
  Status get(const Hash256& hash,
             std::vector<std::uint8_t>& out) const override {
    return inner_.get(hash, out);
  }
  bool contains(const Hash256& hash) const override {
    return inner_.contains(hash);
  }
  std::uint64_t contains_mask(std::span<const Hash256> hashes) const override {
    return inner_.contains_mask(hashes);
  }
  Status commit_root(const Hash256& root, std::uint64_t height) override {
    return inner_.commit_root(root, height);
  }
  Hash256 durable_root() const override { return inner_.durable_root(); }
  std::uint64_t durable_height() const override {
    return inner_.durable_height();
  }
  Stats stats() const override { return inner_.stats(); }
  std::shared_mutex* writer_gate() override { return inner_.writer_gate(); }

 private:
  void park() {
    if (!armed_) return;
    armed_ = false;
    const std::uint64_t seq = inner_.file_seq();
    parked_ = true;
    const auto deadline = std::chrono::steady_clock::now() + kPark;
    while (inner_.file_seq() == seq &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  db::PagedNodeStore& inner_;
  bool armed_ = false;
  std::atomic<bool> parked_{false};
};

TEST(PagedNodeStore, SweepWaitsForAPersistWalkThatFoundADeadNode) {
  // A persist walk finds a dead node present (a leaf restored to a value
  // last seen long ago), and a sweep drops that node before the walk puts
  // the parent that references it.  The sweep's swap must wait for the
  // walk, so the parent's put races the sweep (and brings the leaf along)
  // instead of landing after the swap with its child gone.  The parking
  // store holds the parent's put until the swap: without the wait, the
  // swap happens and the leaf is lost.
  TempDir dir;
  db::PagedNodeStore::Options opts;
  opts.page_size = 512;
  opts.retained_roots = 2;
  std::unique_ptr<db::PagedNodeStore> store;
  ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, store).ok());

  // Two keys under different root nibbles: the root is a branch over two
  // hash-referenced leaves.
  std::array<std::uint8_t, 32> key_a{}, key_b{};
  key_a[0] = 0x10;
  key_b[0] = 0x20;
  Xoshiro256 rng(0xDEAD);
  MerklePatriciaTrie t;
  const auto put = [&t](const std::array<std::uint8_t, 32>& key,
                        const Bytes& value) {
    t.put(std::span(key), std::span(value));
  };
  const Bytes first_a = random_bytes(rng, 40);
  put(key_a, first_a);
  put(key_b, random_bytes(rng, 40));
  std::uint64_t height = 0;
  t.persist_nodes(*store);
  ASSERT_TRUE(store->commit_root(t.root_hash(), ++height).ok());
  // Rewrite both keys until the first leaf of `a` is neither retained nor
  // young: the sweep's walk no longer keeps it.
  for (int v = 0; v < 6; ++v) {
    put(key_a, random_bytes(rng, 40));
    put(key_b, random_bytes(rng, 40));
    t.persist_nodes(*store);
    ASSERT_TRUE(store->commit_root(t.root_hash(), ++height).ok());
  }
  // Restoring `a` makes its dead leaf a child of the next root, which is
  // the only new node of that version.
  put(key_a, first_a);

  ParkingStore parking(*store);
  parking.arm();
  std::jthread writer([&] { t.persist_nodes(parking); });
  while (!parking.parked()) std::this_thread::yield();
  ASSERT_TRUE(store->compact().ok());
  writer.join();
  EXPECT_EQ(store->stats().compactions, 1u);

  // Every child the new root references survived the sweep.
  std::vector<std::uint8_t> enc;
  ASSERT_TRUE(store->get(t.root_hash(), enc).ok());
  rlp::Reader in{std::span(enc)};
  rlp::Reader items = in.list();
  ASSERT_EQ(items.count(), 17u);
  std::size_t children = 0;
  for (int i = 0; i < 16; ++i) {
    const auto ref = items.bytes();
    if (ref.size() != 32) continue;
    Hash256 child;
    std::memcpy(child.bytes.data(), ref.data(), 32);
    EXPECT_TRUE(store->contains(child)) << "child " << i << " was swept";
    ++children;
  }
  EXPECT_EQ(children, 2u);
  EXPECT_TRUE(reloads(*store, t));
}

TEST(PagedNodeStore, SweepOverCorruptSealedPageKeepsOldFile) {
  TempDir dir;
  db::PagedNodeStore::Options opts;
  opts.page_size = 512;
  opts.retained_roots = 4;
  std::unique_ptr<db::PagedNodeStore> store;
  ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, store).ok());
  MerklePatriciaTrie t;
  const Hash256 root = write_overwrite_history(t, *store);
  const std::uint64_t seq = store->file_seq();
  const std::string path = store->data_file_path();
  const auto before = store->stats();

  // Damage a sealed page the scan reads whether or not it holds live nodes.
  flip_byte(path, static_cast<off_t>(opts.page_size) * 2 + 40);
  const Status st = store->compact();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code, ErrorCode::kCorruptPage) << st.message;
  EXPECT_EQ(store->file_seq(), seq);
  EXPECT_EQ(store->data_file_path(), path);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_EQ(store->stats().compactions, 0u);
  EXPECT_EQ(store->stats().file_bytes, before.file_bytes);
  EXPECT_EQ(store->durable_root(), root);
  std::size_t data_files = 0;
  for (const auto& entry : fs::directory_iterator(dir.path))
    data_files += entry.path().filename().string().rfind("nodes.", 0) == 0;
  EXPECT_EQ(data_files, 1u);  // the half-built new file is gone
  // The store stays usable, and a later sweep is not blocked.
  Bytes enc{0x01, 0x02};
  EXPECT_TRUE(store->put(hash_from(7), std::span(enc)).ok());
  EXPECT_EQ(store->compact().code, ErrorCode::kCorruptPage);
}

TEST(PagedNodeStore, SweepCopiesJumboRecordsFromItsScan) {
  // Nodes longer than a page reach the sweep as reassembled spans.  Once
  // they have aged out of the young-put horizon they survive only through
  // the root that references them, and the copy takes their bytes from the
  // scan: the sweep issues no get() at all when everything is sealed.
  TempDir dir;
  db::PagedNodeStore::Options opts;
  opts.page_size = 256;
  opts.retained_roots = 2;
  std::unique_ptr<db::PagedNodeStore> store;
  ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, store).ok());

  Xoshiro256 rng(0x7A7B0);
  std::vector<std::pair<Hash256, Bytes>> jumbo;
  Bytes root_enc{0xf8, 0};  // RLP list of 32-byte strings, long-form header
  for (int i = 0; i < 3; ++i) {
    Bytes enc = random_bytes(rng, 700 + 300 * i);
    const Hash256 h = Hash256::of(std::span(enc));
    ASSERT_TRUE(store->put(h, std::span(enc)).ok());
    root_enc.push_back(0xa0);
    root_enc.insert(root_enc.end(), h.bytes.begin(), h.bytes.end());
    jumbo.emplace_back(h, std::move(enc));
  }
  root_enc[1] = static_cast<std::uint8_t>(root_enc.size() - 2);
  const Hash256 root = Hash256::of(std::span(root_enc));
  ASSERT_TRUE(store->put(root, std::span(root_enc)).ok());
  // Dead weight, then enough commits of the same root to age every put out.
  for (int i = 0; i < 40; ++i) {
    Bytes junk = random_bytes(rng, i % 5 == 0 ? 600 : 60);
    ASSERT_TRUE(store->put(hash_from(rng()), std::span(junk)).ok());
  }
  for (std::uint64_t h = 1; h <= 3 * opts.retained_roots; ++h)
    ASSERT_TRUE(store->commit_root(root, h).ok());

  const std::uint64_t gets = store->stats().gets;
  ASSERT_TRUE(store->compact().ok());
  EXPECT_EQ(store->stats().gets, gets);
  EXPECT_EQ(store->node_count(), jumbo.size() + 1);
  const auto check = [&] {
    std::vector<std::uint8_t> out;
    for (const auto& [h, enc] : jumbo) {
      ASSERT_TRUE(store->get(h, out).ok());
      EXPECT_EQ(out, enc);
    }
  };
  check();
  store.reset();
  ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, store).ok());
  EXPECT_EQ(store->durable_root(), root);
  check();
}

// -------------------------------------------------- parallel persist lanes

// Every node reachable from `state_root` (account-trie nodes and, through
// each account leaf's storageRoot, that account's storage trie) reads back
// from `store`.  Walks the stored encodings directly, so a missing node is
// reported rather than aborting a stub load.
::testing::AssertionResult closure_loads(const db::NodeStore& store,
                                         const Hash256& state_root) {
  struct Ref {
    Hash256 hash;
    bool account_trie;
  };
  std::vector<Ref> todo{{state_root, true}};
  std::unordered_set<Hash256> seen;
  std::vector<std::uint8_t> enc;
  const auto hash_of = [](std::span<const std::uint8_t> ref) {
    Hash256 h;
    std::memcpy(h.bytes.data(), ref.data(), 32);
    return h;
  };
  while (!todo.empty()) {
    const Ref r = todo.back();
    todo.pop_back();
    if (!seen.insert(r.hash).second) continue;
    if (!store.get(r.hash, enc).ok())
      return ::testing::AssertionFailure()
             << "node " << r.hash.to_hex() << " is missing";
    rlp::Reader in{std::span(enc)};
    rlp::Reader items = in.list();
    const std::size_t n = items.count();
    const auto child = [&] {
      if (items.next_is_list()) {
        (void)items.raw();  // an inline node holds no hash refs
        return;
      }
      const auto ref = items.bytes();
      if (ref.size() == 32) todo.push_back({hash_of(ref), r.account_trie});
    };
    if (n == 17) {
      for (int i = 0; i < 16; ++i) child();
    } else if (n == 2) {
      const auto hp = items.bytes();
      const bool leaf = !hp.empty() && ((hp[0] >> 4) & 2) != 0;
      if (!leaf) {
        child();
      } else if (r.account_trie) {
        rlp::Reader account{items.bytes()};
        rlp::Reader fields = account.list();
        (void)fields.bytes();  // nonce
        (void)fields.bytes();  // balance
        const auto storage_root = fields.bytes();
        if (storage_root.size() == 32 &&
            hash_of(storage_root) != MerklePatriciaTrie::empty_root())
          todo.push_back({hash_of(storage_root), false});
      }
    }
    if (!in.ok())
      return ::testing::AssertionFailure()
             << "node " << r.hash.to_hex() << " is malformed";
  }
  return ::testing::AssertionSuccess();
}

// Balances over 160 accounts, storage in every fourth.
void commitment_writes(Xoshiro256& rng, state::WorldState& ws, int count) {
  for (int i = 0; i < count; ++i) {
    const Address addr = Address::from_id(1 + rng.below(160));
    if (addr.bytes[19] % 4 == 0) {
      ws.set(state::StateKey::storage(addr, U256{rng.below(96)}),
             rng.below(6) == 0 ? U256{} : U256{1 + rng.below(1'000'000)});
    } else {
      ws.set(state::StateKey::balance(addr), U256{1 + rng.below(1'000'000)});
    }
  }
}

TEST(ParallelPersist, LanesStoreTheSerialNodeSetAndReloadAfterReopen) {
  // One lineage persists on the commit lanes into a PagedNodeStore, its
  // twin serially into the reference store: the roots and the stored node
  // sets agree at every height, and the reopened paged store holds every
  // node reachable from its durable root.
  TempDir dir;
  db::PagedNodeStore::Options opts;
  opts.page_size = 512;
  std::unique_ptr<db::PagedNodeStore> store;
  ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, store).ok());
  db::InMemoryNodeStore reference;
  ThreadPool lanes(3);
  Xoshiro256 rng(0x1A7E5);
  state::WorldState ws;
  commitment_writes(rng, ws, 1500);
  state::WorldState twin = ws;
  Hash256 root;
  for (std::uint64_t height = 1; height <= 12; ++height) {
    if (height > 1) {
      Xoshiro256 block_rng(height);
      commitment_writes(block_rng, ws, 80);
      Xoshiro256 twin_rng(height);
      commitment_writes(twin_rng, twin, 80);
    }
    EXPECT_GT(ws.persist_commitment(*store, &lanes), 0u);
    (void)twin.persist_commitment(reference);
    root = ws.state_root();
    ASSERT_EQ(root, twin.state_root()) << "height " << height;
    ASSERT_EQ(root, ws.state_root_full_rebuild()) << "height " << height;
    ASSERT_EQ(store->stats().nodes, reference.stats().nodes)
        << "height " << height;
    ASSERT_TRUE(store->commit_root(root, height).ok());
  }
  store.reset();
  ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, store).ok());
  EXPECT_EQ(store->durable_root(), root);
  EXPECT_TRUE(closure_loads(*store, root));
  trie::NodeCache::global().clear();
  EXPECT_EQ(trie::SecureTrie::from_root(root, *store).root_hash(), root);
}

TEST(ParallelPersist, CrashAfterLaneAppendsRecoversToDurableRoot) {
  // Kill the store after a parallel persist appended a block's nodes but
  // before its barrier: recovery lands on the previous durable root with
  // its closure whole, and persisting the block again (its nodes are gone)
  // makes the block's closure whole too.
  TempDir dir;
  db::PagedNodeStore::Options opts;
  opts.page_size = 512;
  std::unique_ptr<db::PagedNodeStore> store;
  ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, store).ok());
  ThreadPool lanes(3);
  Xoshiro256 rng(0xC2A5);
  state::WorldState ws;
  commitment_writes(rng, ws, 1500);
  Hash256 durable;
  for (std::uint64_t height = 1; height <= 5; ++height) {
    commitment_writes(rng, ws, 80);
    (void)ws.persist_commitment(*store, &lanes);
    durable = ws.state_root();
    ASSERT_TRUE(store->commit_root(durable, height).ok());
  }
  commitment_writes(rng, ws, 80);
  ASSERT_GT(ws.persist_commitment(*store, &lanes), 0u);
  const Hash256 unsealed = ws.state_root();
  const std::string data_path = store->data_file_path();
  store.reset();  // kill: the lanes' appends never reach a barrier
  tear_tail(data_path, 77);

  ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, store).ok());
  EXPECT_EQ(store->durable_root(), durable);
  EXPECT_EQ(store->durable_height(), 5u);
  EXPECT_TRUE(closure_loads(*store, durable));
  EXPECT_FALSE(store->contains(unsealed));

  EXPECT_GT(ws.persist_commitment(*store, &lanes), 0u);
  ASSERT_TRUE(store->commit_root(unsealed, 6).ok());
  store.reset();
  ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, store).ok());
  EXPECT_EQ(store->durable_root(), unsealed);
  EXPECT_TRUE(closure_loads(*store, unsealed));
}

// ------------------------------------------------------- chain-level parity

evm::BlockContext ctx_for(std::uint64_t height) {
  evm::BlockContext ctx;
  ctx.number = height;
  ctx.timestamp = 1'700'000'000 + height * 12;
  ctx.coinbase = Address::from_id(0xC0FFEE);
  return ctx;
}

struct ChainRun {
  std::vector<Hash256> roots;
  std::vector<std::uint64_t> aborts;
};

TEST(DbChainParity, PagedStoreWithRestartMatchesStorelessChain) {
  constexpr std::uint64_t kBlocks = 24;
  constexpr std::uint64_t kRestartAt = 12;

  // The proposer is deterministic, so two runs over the same workload seed
  // must agree block-by-block on roots AND abort decisions — with or
  // without a store attached, and across a store restart.
  ChainRun baseline, stored;
  TempDir dir;
  for (const bool with_store : {false, true}) {
    workload::WorkloadConfig wc = workload::preset_mainnet();
    wc.seed = 4242;
    workload::WorkloadGenerator gen(wc);
    chain::Blockchain chain(gen.genesis());
    ThreadPool workers(4);

    db::PagedNodeStore::Options opts;
    opts.page_size = 4096;
    std::unique_ptr<db::PagedNodeStore> store;
    if (with_store) {
      ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, store).ok());
      chain.attach_node_store(store.get());
    }

    core::ProposerConfig pc;
    pc.threads = 4;
    core::BlockProposer proposer(pc);
    ChainRun& run = with_store ? stored : baseline;

    for (std::uint64_t height = 1; height <= kBlocks; ++height) {
      if (with_store && height == kRestartAt) {
        // Simulated crash + recovery restart mid-run: the recovered store
        // must hold the durable root the chain last finalized, and the
        // chain must keep committing into it afterwards.
        chain.attach_node_store(nullptr);
        const Hash256 durable_before = chain.head().header.state_root;
        const std::string data_path = store->data_file_path();
        store.reset();
        tear_tail(data_path, 200);
        ASSERT_TRUE(db::PagedNodeStore::open(dir.path, opts, store).ok());
        ASSERT_EQ(store->durable_root(), durable_before);
        ASSERT_EQ(store->durable_height(), height - 1);
        // The finalized account trie must reconstruct from disk.
        trie::NodeCache::global().clear();
        trie::SecureTrie accounts =
            trie::SecureTrie::from_root(durable_before, *store);
        ASSERT_EQ(accounts.root_hash(), durable_before);
        chain.attach_node_store(store.get());
      }

      txpool::TxPool pool;
      pool.add_all(gen.next_block());
      const auto parent_state = chain.head_state();
      core::ProposedBlock proposed =
          proposer.propose(*parent_state, ctx_for(height), pool, workers);
      proposed.block.header.parent_hash = chain.head().header.hash();
      chain.commit_block(proposed.block, proposed.post_state,
                         std::move(proposed.receipts));
      run.roots.push_back(proposed.block.header.state_root);
      run.aborts.push_back(proposed.stats.aborts);
    }
  }

  ASSERT_EQ(baseline.roots.size(), stored.roots.size());
  for (std::size_t i = 0; i < baseline.roots.size(); ++i) {
    EXPECT_EQ(baseline.roots[i], stored.roots[i]) << "root at block " << i;
    EXPECT_EQ(baseline.aborts[i], stored.aborts[i]) << "aborts at block " << i;
  }
}

// ------------------------------------------------------ NodeCache counters

TEST(NodeCacheCounters, MonotoneAndConsistentUnderConcurrentReaders) {
  trie::NodeCache cache(8 * 1024);  // small: forces churn + jumbo refusal
  constexpr int kThreads = 4;
  constexpr int kLoadsPerThread = 4000;

  // A shared pool of nodes: mostly small (cachable, re-used so hits occur;
  // far more than the budget holds, so shards churn), a few jumbo
  // (entry_bytes() over the per-shard budget: never cached).
  std::vector<Bytes> encodings;
  {
    Xoshiro256 rng(2024);
    for (int i = 0; i < 128; ++i)
      encodings.push_back(random_bytes(rng, rng.range(8, 64)));
    for (int i = 0; i < 4; ++i) encodings.push_back(random_bytes(rng, 4096));
  }
  std::vector<Hash256> hashes;
  for (const Bytes& enc : encodings)
    hashes.push_back(Hash256{crypto::keccak256(std::span(enc))});

  // Each worker loads the way load_stub does: get, and put on a miss.
  // `loads` is incremented BEFORE each get, so a concurrent stats() sample
  // always sees hits + misses <= loads.
  std::atomic<std::uint64_t> loads{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(500 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kLoadsPerThread; ++i) {
        const std::size_t n = rng.below(encodings.size());
        loads.fetch_add(1, std::memory_order_relaxed);
        if (const auto back = cache.get(hashes[n]); back.has_value())
          EXPECT_EQ(*back, encodings[n]);
        else
          cache.put(hashes[n], std::span(encodings[n]));
      }
    });
  }

  // Sample stats concurrently: every counter must be monotone, the byte
  // accounting must stay within the configured budget, and counter sums
  // must never outrun issued loads.
  trie::NodeCache::Stats last;
  while (loads.load(std::memory_order_relaxed) <
         static_cast<std::uint64_t>(kThreads) * kLoadsPerThread) {
    const auto s = cache.stats();
    EXPECT_GE(s.hits, last.hits);
    EXPECT_GE(s.misses, last.misses);
    EXPECT_GE(s.evictions, last.evictions);
    EXPECT_LE(s.bytes, s.capacity);
    EXPECT_LE(s.hits + s.misses, loads.load(std::memory_order_relaxed));
    last = s;
    std::this_thread::yield();
  }
  for (auto& w : workers) w.join();

  // At rest: every load was exactly one hit or one miss, the jumbo nodes
  // were never admitted, and the working set (~4x the budget) evicted.
  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, loads.load());
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.entries, s.misses);
  for (std::size_t n = 128; n < encodings.size(); ++n)
    EXPECT_FALSE(cache.get(hashes[n]).has_value());
}

}  // namespace
}  // namespace blockpilot

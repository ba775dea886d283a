// Node-store bench: the paged on-disk backend's four cost centers.
//
//  1. Append throughput — put() + periodic commit_root barriers (the write
//     side the CommitPipeline rides).
//  2. Cold vs warm trie reads over a state LARGER than the node cache —
//     repeated from_root passes with Zipf-skewed key reads (each pass
//     models one block's traversals from a fresh root; hot accounts recur,
//     the tail doesn't), run once from an empty cache (cold) and once at
//     steady state (warm).  The budget is half the state's node bytes, so
//     the tail cannot fit and the hit rate is strictly under 100%, yet the
//     hot paths stay resident and the warm run must beat the cold one:
//     that pairing is the read-through cache doing its job on a state it
//     cannot hold, and --smoke gates on it (exit 1).
//  3. Hit rate vs cache size — the same read pattern swept across cache
//     budgets from state/8 to 2x state.
//  4. Compaction — live ratio, reclaimed bytes, and the pause of a full
//     compact() over an overwrite-heavy history.
//  5. Sweep at the trigger point — one compact() at a live ratio of about
//     0.45 with a writer racing it: walk and copy times, and the writer's
//     longest put()/commit_root() stall while the sweep runs.
//
// Emits BENCH_db.json.  `--smoke` shrinks sizes for CI and turns the
// invariants above into exit-code gates; it does not rewrite
// BENCH_db.json.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "db/paged_node_store.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "trie/mpt.hpp"
#include "trie/node_cache.hpp"

namespace blockpilot::bench {
namespace {

namespace fs = std::filesystem;
using trie::Bytes;
using trie::MerklePatriciaTrie;

struct Sizes {
  std::size_t append_nodes;   // experiment 1
  std::size_t state_keys;     // experiments 2+3
  std::size_t rewrite_blocks;  // experiment 4
  std::size_t sweep_keys;      // experiment 5
};

Bytes random_bytes(Xoshiro256& rng, std::size_t len) {
  Bytes out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

// ---- experiment 1: append throughput ----
struct AppendResult {
  std::size_t nodes = 0;
  std::uint64_t payload_bytes = 0;
  double wall_ms = 0.0;
  double barrier_ms = 0.0;  // time inside commit_root (fsync cost)
  std::size_t barriers = 0;
};

AppendResult run_append(const std::string& dir, std::size_t nodes) {
  db::PagedNodeStore::Options opts;
  std::unique_ptr<db::PagedNodeStore> store;
  db::Status st = db::PagedNodeStore::open(dir, opts, store);
  if (!st.ok()) {
    std::printf("append: open failed: %s\n", st.message.c_str());
    return {};
  }
  Xoshiro256 rng(0xA99E);
  AppendResult out;
  out.nodes = nodes;
  Stopwatch wall;
  Hash256 h;
  for (std::size_t i = 0; i < nodes; ++i) {
    std::memcpy(h.bytes.data(), &i, sizeof(i));
    h.bytes[31] = 0xA1;
    const Bytes enc = random_bytes(rng, rng.range(64, 192));
    out.payload_bytes += enc.size();
    (void)store->put(h, std::span(enc));
    if ((i + 1) % 4096 == 0) {
      Stopwatch bsw;
      (void)store->commit_root(h, i);
      out.barrier_ms += bsw.elapsed_ms();
      ++out.barriers;
    }
  }
  out.wall_ms = wall.elapsed_ms();
  return out;
}

// ---- shared state for the read experiments ----
struct BenchState {
  std::unique_ptr<db::PagedNodeStore> store;
  Hash256 root;
  std::size_t keys = 0;
  std::uint64_t node_bytes = 0;
  std::uint64_t nodes = 0;
};

BenchState build_state(const std::string& dir, std::size_t keys) {
  BenchState bs;
  db::PagedNodeStore::Options opts;
  db::Status st = db::PagedNodeStore::open(dir, opts, bs.store);
  if (!st.ok()) {
    std::printf("state: open failed: %s\n", st.message.c_str());
    return bs;
  }
  MerklePatriciaTrie t;
  Xoshiro256 rng(0x57A7E);
  for (std::size_t k = 0; k < keys; ++k) {
    std::uint8_t key[8];
    std::memcpy(key, &k, sizeof(k));
    const Bytes value = random_bytes(rng, rng.range(40, 120));
    t.put(std::span<const std::uint8_t>(key, sizeof(key)), std::span(value));
  }
  bs.root = t.root_hash();
  t.persist_nodes(*bs.store);
  (void)bs.store->commit_root(bs.root, 1);
  bs.keys = keys;
  bs.node_bytes = bs.store->stats().node_bytes;
  bs.nodes = bs.store->stats().nodes;
  return bs;
}

/// One run: several passes, each a fresh from_root (all stubs cold in the
/// trie object) plus a batch of Zipf-skewed key reads.  A node loads at
/// most once per pass — through the cache when it can — so hot spines
/// recur across passes while tail leaves appear rarely: exactly the
/// access shape block processing puts on the account trie.
double run_read_passes(const BenchState& bs) {
  constexpr std::size_t kPasses = 8;
  Stopwatch sw;
  Xoshiro256 rng(0x2EAD);
  const ZipfSampler zipf(bs.keys, 0.9);
  const std::size_t reads_per_pass = bs.keys / 2;
  std::size_t found = 0, reads = 0;
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    MerklePatriciaTrie t = MerklePatriciaTrie::from_root(bs.root, *bs.store);
    for (std::size_t r = 0; r < reads_per_pass; ++r) {
      const std::uint64_t k = zipf(rng);
      std::uint8_t key[8];
      std::memcpy(key, &k, sizeof(k));
      ++reads;
      if (t.get(std::span<const std::uint8_t>(key, sizeof(key)))) ++found;
    }
  }
  if (found != reads) std::printf("reads lost keys: %zu/%zu\n", found, reads);
  return sw.elapsed_ms();
}

// ---- experiment 2: cold vs warm with cache smaller than state ----
struct ColdWarm {
  std::size_t cache_capacity = 0;
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  double hit_rate = 0.0;  // warm-pass stub loads served by the cache
  std::uint64_t warm_loads = 0;
};

ColdWarm run_cold_warm(const BenchState& bs) {
  auto& cache = trie::NodeCache::global();
  ColdWarm out;
  out.cache_capacity = static_cast<std::size_t>(bs.node_bytes / 2);
  cache.set_capacity(out.cache_capacity);
  constexpr int kRepeats = 3;
  for (int rep = 0; rep < kRepeats; ++rep) {
    cache.clear();  // cold: the run starts with every load hitting the store
    const double cold = run_read_passes(bs);
    const auto before = cache.stats();
    const double warm = run_read_passes(bs);  // steady state: hot set resident
    const auto after = cache.stats();
    if (rep == 0 || cold < out.cold_ms) out.cold_ms = cold;
    if (rep == 0 || warm < out.warm_ms) out.warm_ms = warm;
    const std::uint64_t hits = after.hits - before.hits;
    const std::uint64_t misses = after.misses - before.misses;
    out.warm_loads = hits + misses;
    out.hit_rate = out.warm_loads > 0
                       ? static_cast<double>(hits) /
                             static_cast<double>(out.warm_loads)
                       : 0.0;
  }
  return out;
}

// ---- experiment 3: hit rate vs cache size sweep ----
struct SweepPoint {
  std::size_t capacity = 0;
  double hit_rate = 0.0;
  double warm_ms = 0.0;
};

std::vector<SweepPoint> run_sweep(const BenchState& bs) {
  auto& cache = trie::NodeCache::global();
  std::vector<SweepPoint> points;
  for (const double frac : {0.125, 0.25, 0.5, 1.0, 2.0}) {
    SweepPoint p;
    p.capacity = static_cast<std::size_t>(static_cast<double>(bs.node_bytes) *
                                          frac);
    cache.set_capacity(p.capacity);
    cache.clear();
    (void)run_read_passes(bs);  // populate
    const auto before = cache.stats();
    p.warm_ms = run_read_passes(bs);
    const auto after = cache.stats();
    const std::uint64_t hits = after.hits - before.hits;
    const std::uint64_t loads = hits + (after.misses - before.misses);
    p.hit_rate = loads > 0
                     ? static_cast<double>(hits) / static_cast<double>(loads)
                     : 0.0;
    points.push_back(p);
  }
  return points;
}

// ---- experiment 4: compaction over an overwrite-heavy history ----
struct CompactionResult {
  double live_ratio_before = 0.0;
  std::uint64_t file_bytes_before = 0;
  std::uint64_t file_bytes_after = 0;
  double compact_ms = 0.0;
  double avg_barrier_ms = 0.0;
  bool root_survives = false;
};

CompactionResult run_compaction(const std::string& dir, std::size_t blocks) {
  db::PagedNodeStore::Options opts;
  opts.retained_roots = 4;
  std::unique_ptr<db::PagedNodeStore> store;
  db::Status st = db::PagedNodeStore::open(dir, opts, store);
  CompactionResult out;
  if (!st.ok()) {
    std::printf("compaction: open failed: %s\n", st.message.c_str());
    return out;
  }
  MerklePatriciaTrie t;
  Xoshiro256 rng(0xC0DE);
  Hash256 root;
  double barrier_total = 0;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    for (int i = 0; i < 32; ++i) {
      const std::uint64_t k = rng.below(256);  // tiny keyspace: dead history
      std::uint8_t key[8];
      std::memcpy(key, &k, sizeof(k));
      const Bytes value = random_bytes(rng, 60);
      t.put(std::span<const std::uint8_t>(key, sizeof(key)), std::span(value));
    }
    root = t.root_hash();
    t.persist_nodes(*store);
    Stopwatch bsw;
    (void)store->commit_root(root, b);
    barrier_total += bsw.elapsed_ms();
  }
  out.avg_barrier_ms = barrier_total / static_cast<double>(blocks);
  out.live_ratio_before = store->live_ratio();
  out.file_bytes_before = store->stats().file_bytes;
  Stopwatch sw;
  st = store->compact();
  out.compact_ms = sw.elapsed_ms();
  if (!st.ok()) std::printf("compact failed: %s\n", st.message.c_str());
  out.file_bytes_after = store->stats().file_bytes;
  trie::NodeCache::global().clear();
  MerklePatriciaTrie reloaded = MerklePatriciaTrie::from_root(root, *store);
  out.root_survives = reloaded.root_hash() == root;
  return out;
}

// ---- experiment 5: one sweep at the trigger point, with a writer racing it
// A store at a live ratio of about 0.45 (just under the background sweep's
// 0.5 trigger) is compacted on one thread while another keeps putting
// nodes and committing roots, as a node's commit pipeline would.  The sweep
// holds the store lock only for its snapshot and its swap, so the writer's
// longest put() and commit_root() stalls are the evidence, next to the
// sweep's own walk (scan + liveness) and copy (+ fsync) times.
struct SweepPointResult {
  double live_ratio = 0.0;
  std::uint64_t file_bytes = 0;
  double sweep_ms = 0.0;
  double walk_ms = 0.0;
  double copy_ms = 0.0;
  std::size_t racing_puts = 0;
  double max_put_ms = 0.0;
  double max_commit_ms = 0.0;
  double idle_max_put_ms = 0.0;  // same writer, no sweep running
  double idle_max_commit_ms = 0.0;
  bool root_survives = false;
};

SweepPointResult run_sweep_point(const std::string& dir, std::size_t keys) {
  db::PagedNodeStore::Options opts;
  opts.retained_roots = 4;
  std::unique_ptr<db::PagedNodeStore> store;
  SweepPointResult out;
  if (!db::PagedNodeStore::open(dir, opts, store).ok()) {
    std::printf("sweep point: open failed\n");
    return out;
  }
  MerklePatriciaTrie t;
  Xoshiro256 rng(0x5EE9);
  std::uint64_t height = 0;
  const auto write_block = [&](std::size_t n, bool fresh_keys) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = fresh_keys ? t.size() : rng.below(keys);
      std::uint8_t key[8];
      std::memcpy(key, &k, sizeof(k));
      const Bytes value = random_bytes(rng, 60);
      t.put(std::span<const std::uint8_t>(key, sizeof(key)), std::span(value));
    }
    t.persist_nodes(*store);
    (void)store->commit_root(t.root_hash(), ++height);
  };
  write_block(keys, true);
  // Small overwrite blocks kill old paths; stop at the first check under
  // 0.45.
  for (int b = 0;; ++b) {
    write_block(keys / 256, false);
    if (b % 2 == 1 && (out.live_ratio = store->live_ratio()) <= 0.45) break;
  }
  out.file_bytes = store->stats().file_bytes;

  // The writer: single puts of young nodes, a commit_root every 16.
  const auto writer_step = [&](std::size_t i, double* max_put,
                               double* max_commit) {
    const Bytes enc = random_bytes(rng, 100);
    Stopwatch sw;
    (void)store->put(Hash256::of(std::span(enc)), std::span(enc));
    *max_put = std::max(*max_put, sw.elapsed_ms());
    if (i % 16 == 15) {
      sw.reset();
      (void)store->commit_root(t.root_hash(), ++height);
      *max_commit = std::max(*max_commit, sw.elapsed_ms());
    }
  };
  for (std::size_t i = 0; i < 256; ++i)
    writer_step(i, &out.idle_max_put_ms, &out.idle_max_commit_ms);

  std::atomic<bool> done{false};
  db::Status swept;
  {
    std::jthread sweeper([&] {
      Stopwatch sw;
      swept = store->compact();
      out.sweep_ms = sw.elapsed_ms();
      done.store(true);
    });
    do {
      writer_step(out.racing_puts++, &out.max_put_ms, &out.max_commit_ms);
    } while (!done.load());
  }
  if (!swept.ok()) std::printf("sweep failed: %s\n", swept.message.c_str());
  const auto stats = store->stats();
  out.walk_ms = stats.last_sweep_walk_ms;
  out.copy_ms = stats.last_sweep_copy_ms;
  trie::NodeCache::global().clear();
  const MerklePatriciaTrie reloaded =
      MerklePatriciaTrie::from_root(t.root_hash(), *store);
  out.root_survives = swept.ok() && reloaded.root_hash() == t.root_hash();
  return out;
}

int run(bool smoke) {
  print_header("Paged node store: append, read-through cache, compaction",
               "disk-backed state keeps the sealing path append-only");
  const Sizes sz = smoke ? Sizes{20'000, 5'000, 200, 4'000}
                         : Sizes{200'000, 30'000, 1'000, 20'000};

  char tmpl[] = "/tmp/bpdb_bench_XXXXXX";
  const char* made = ::mkdtemp(tmpl);
  if (made == nullptr) {
    std::printf("mkdtemp failed\n");
    return 1;
  }
  const std::string base = made;
  fs::create_directories(base + "/append");
  fs::create_directories(base + "/state");
  fs::create_directories(base + "/compact");
  fs::create_directories(base + "/sweep");

  const std::size_t default_capacity = trie::NodeCache::global().capacity();
  int failures = 0;

  const AppendResult app = run_append(base + "/append", sz.append_nodes);
  const double appends_per_s =
      app.wall_ms > 0 ? 1000.0 * static_cast<double>(app.nodes) / app.wall_ms
                      : 0.0;
  std::printf("append: %zu nodes (%.1f MiB) in %.1f ms -> %.0f nodes/s, "
              "%zu barriers costing %.2f ms total\n",
              app.nodes,
              static_cast<double>(app.payload_bytes) / (1024.0 * 1024.0),
              app.wall_ms, appends_per_s, app.barriers, app.barrier_ms);
  if (appends_per_s <= 0) ++failures;

  const BenchState bs = build_state(base + "/state", sz.state_keys);
  std::printf("state: %zu keys -> %" PRIu64 " nodes, %.1f MiB node bytes\n",
              bs.keys, bs.nodes,
              static_cast<double>(bs.node_bytes) / (1024.0 * 1024.0));

  const ColdWarm cw = run_cold_warm(bs);
  std::printf("cold/warm (cache %.1f MiB = state/2): %.1f ms cold, %.1f ms "
              "warm, hit rate %.1f%% over %" PRIu64 " loads\n",
              static_cast<double>(cw.cache_capacity) / (1024.0 * 1024.0),
              cw.cold_ms, cw.warm_ms, 100.0 * cw.hit_rate, cw.warm_loads);
  if (!(cw.warm_ms < cw.cold_ms)) {
    std::printf("GATE FAILED: warm scan (%.2f ms) not below cold (%.2f ms)\n",
                cw.warm_ms, cw.cold_ms);
    ++failures;
  }
  if (!(cw.hit_rate > 0.0 && cw.hit_rate < 1.0)) {
    std::printf("GATE FAILED: hit rate %.4f outside (0,1) — the state must "
                "be larger than the cache\n",
                cw.hit_rate);
    ++failures;
  }

  const std::vector<SweepPoint> sweep = run_sweep(bs);
  std::printf("%14s %10s %10s\n", "cache-bytes", "hit-rate", "warm-ms");
  for (const SweepPoint& p : sweep)
    std::printf("%14zu %9.1f%% %10.1f\n", p.capacity, 100.0 * p.hit_rate,
                p.warm_ms);

  const CompactionResult comp = run_compaction(base + "/compact",
                                               sz.rewrite_blocks);
  std::printf("compaction: live ratio %.3f, %.1f -> %.1f MiB in %.1f ms "
              "(avg commit_root barrier %.3f ms); root survives: %s\n",
              comp.live_ratio_before,
              static_cast<double>(comp.file_bytes_before) / (1024.0 * 1024.0),
              static_cast<double>(comp.file_bytes_after) / (1024.0 * 1024.0),
              comp.compact_ms, comp.avg_barrier_ms,
              comp.root_survives ? "yes" : "NO");
  if (!comp.root_survives ||
      comp.file_bytes_after >= comp.file_bytes_before) {
    std::printf("GATE FAILED: compaction must shrink the file and keep the "
                "root reconstructible\n");
    ++failures;
  }

  const SweepPointResult sp = run_sweep_point(base + "/sweep", sz.sweep_keys);
  std::printf("sweep at live ratio %.3f (%.1f MiB): %.1f ms (walk %.1f ms, "
              "copy %.1f ms); %zu racing puts, longest put %.3f ms / "
              "commit_root %.3f ms (%.3f / %.3f ms with no sweep); root "
              "survives: %s\n",
              sp.live_ratio,
              static_cast<double>(sp.file_bytes) / (1024.0 * 1024.0),
              sp.sweep_ms, sp.walk_ms, sp.copy_ms, sp.racing_puts,
              sp.max_put_ms, sp.max_commit_ms, sp.idle_max_put_ms,
              sp.idle_max_commit_ms, sp.root_survives ? "yes" : "NO");
  if (!sp.root_survives) {
    std::printf("GATE FAILED: the raced sweep must keep the root "
                "reconstructible\n");
    ++failures;
  }

  trie::NodeCache::global().set_capacity(default_capacity);
  trie::NodeCache::global().clear();

  FILE* f = smoke ? nullptr : std::fopen("BENCH_db.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::fprintf(f,
                 "  \"append\": {\"nodes\": %zu, \"payload_bytes\": %" PRIu64
                 ", \"wall_ms\": %.3f, \"nodes_per_s\": %.0f, \"barriers\": "
                 "%zu, \"barrier_ms\": %.3f},\n",
                 app.nodes, app.payload_bytes, app.wall_ms, appends_per_s,
                 app.barriers, app.barrier_ms);
    std::fprintf(f,
                 "  \"state\": {\"keys\": %zu, \"nodes\": %" PRIu64
                 ", \"node_bytes\": %" PRIu64 "},\n",
                 bs.keys, bs.nodes, bs.node_bytes);
    std::fprintf(f,
                 "  \"cold_warm\": {\"cache_capacity\": %zu, \"cold_ms\": "
                 "%.3f, \"warm_ms\": %.3f, \"hit_rate\": %.4f, "
                 "\"warm_loads\": %" PRIu64 "},\n",
                 cw.cache_capacity, cw.cold_ms, cw.warm_ms, cw.hit_rate,
                 cw.warm_loads);
    std::fprintf(f, "  \"hit_rate_sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i)
      std::fprintf(f,
                   "    {\"capacity\": %zu, \"hit_rate\": %.4f, \"warm_ms\": "
                   "%.3f}%s\n",
                   sweep[i].capacity, sweep[i].hit_rate, sweep[i].warm_ms,
                   i + 1 < sweep.size() ? "," : "");
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"compaction\": {\"live_ratio\": %.4f, "
                 "\"file_bytes_before\": %" PRIu64 ", \"file_bytes_after\": "
                 "%" PRIu64 ", \"compact_ms\": %.3f, \"avg_barrier_ms\": "
                 "%.4f, \"root_survives\": %s},\n",
                 comp.live_ratio_before, comp.file_bytes_before,
                 comp.file_bytes_after, comp.compact_ms, comp.avg_barrier_ms,
                 comp.root_survives ? "true" : "false");
    std::fprintf(f,
                 "  \"sweep_point\": {\"live_ratio\": %.4f, \"file_bytes\": "
                 "%" PRIu64 ", \"sweep_ms\": %.3f, \"walk_ms\": %.3f, "
                 "\"copy_ms\": %.3f, \"racing_puts\": %zu, \"max_put_ms\": "
                 "%.4f, \"max_commit_root_ms\": %.4f, \"idle_max_put_ms\": "
                 "%.4f, \"idle_max_commit_root_ms\": %.4f, "
                 "\"root_survives\": %s},\n",
                 sp.live_ratio, sp.file_bytes, sp.sweep_ms, sp.walk_ms,
                 sp.copy_ms, sp.racing_puts, sp.max_put_ms, sp.max_commit_ms,
                 sp.idle_max_put_ms, sp.idle_max_commit_ms,
                 sp.root_survives ? "true" : "false");
    std::fprintf(f, "  \"gates_failed\": %d\n}\n", failures);
    std::fclose(f);
    std::printf("wrote BENCH_db.json\n");
  }

  fs::remove_all(base);  // leave no page files behind (ci.sh checks)
  if (failures > 0) {
    std::printf("%d gate(s) failed\n", failures);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace blockpilot::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--smoke") smoke = true;
  return blockpilot::bench::run(smoke);
}

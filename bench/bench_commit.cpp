// State-commitment bench: incremental MPT roots + the async commit pipeline.
//
// Two experiments over the fig-9 multi-block workload (preset_mainnet,
// ~132-tx blocks, chained heights):
//
//  1. Root recomputation — after applying one block's writes, time
//     state_root() (incremental: only dirty paths re-hash) against
//     state_root_full_rebuild() (the seed implementation: every trie node
//     rebuilt and re-hashed).  The paper's §5.2 root-equality check pays
//     this cost on every block, so the ratio is the direct win.
//
//  2. Pipeline overlap — propose a chain of blocks with header sealing on
//     the CommitPipeline vs inline.  Stopwatch phases per height show block
//     N's commitment running during block N+1's execution; the JSON records
//     both walls, the tail wait, and the heap each chain retains per block.
//     Block N+1 is built on N's post state before N is sealed, so it
//     adopts N's fold through the commitment handoff instead of re-hashing
//     N's writes and keeping a second set of trie nodes for them.
//
//  3. Copy under commit — a pool thread runs a heavyweight state_root()
//     (the in-flight commit) while the main thread keeps taking
//     finalize-time WorldState copies of the same object.  The seed
//     implementation held commit_mu_ across the whole computation, so
//     every copy stalled for the full commit; with the snapshot-based
//     phase split a copy only contends for the short collect/install
//     critical sections.  The worst copy latency vs the commit wall is
//     the evidence.  Next to the idle copy time it reports the heap bytes
//     one copy keeps alive (glibc mallinfo2 delta), for that uncommitted
//     source and for the committed genesis every chain and replica copies:
//     the account map, every contract's storage and the commitment memo
//     are shared copy-on-write by shard, so a copy pays for two shard
//     tables and the unfolded dirty set, not for every account or slot.
//
// Emits BENCH_commit.json (machine-readable) plus a stdout summary.
//  4. Paged-store rider — the same overlapped chain with a PagedNodeStore
//     attached to the pipeline, so every seal also appends the block's
//     dirty trie nodes to disk.  The appends ride the commit future, off
//     the sealing path: the overlapped wall must stay within ~5% of the
//     store-less run, and the JSON records the regression alongside the
//     persist totals.
//
//  5. Commit lanes — one block's commitment as a validator replica runs it
//     (state root, then persist into a PagedNodeStore) on 1 lane (inline
//     pipeline) and on nproc lanes (a pool of nproc workers, the commit
//     task on one of them fanning out over the rest).  Reports the
//     incremental root split into storage folds and account trie, and the
//     persist, per block; the roots must agree.
#include <atomic>
#include <cinttypes>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include <malloc.h>

#include "bench_common.hpp"
#include "commit/commit_pipeline.hpp"
#include "db/paged_node_store.hpp"
#include "support/stopwatch.hpp"

namespace blockpilot::bench {
namespace {

constexpr std::size_t kHeights = 8;

struct RootSample {
  std::size_t txs = 0;
  double incremental_ms = 0.0;
  double full_rebuild_ms = 0.0;
};

struct OverlapSample {
  std::size_t txs = 0;
  double exec_ms = 0.0;     // propose wall (execution + assembly)
  double commit_ms = 0.0;   // root hashing on the commit pool
  double persist_ms = 0.0;  // node-store appends riding the seal (exp. 4)
  std::size_t nodes_appended = 0;
};

// Heap bytes in use: arena bytes plus mmapped chunks (glibc mallinfo2).
std::size_t heap_in_use() {
  const struct mallinfo2 mi = ::mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

// ---- experiment 1: incremental vs full-rebuild root recomputation ----
std::vector<RootSample> run_root_recompute(double* oracle_mismatch) {
  workload::WorkloadConfig wc = workload::preset_mainnet();
  wc.seed = 0xF19;
  workload::WorkloadGenerator gen(wc);

  // Chain of honest blocks; each block's profile carries its write sets.
  std::vector<HonestBlock> chain;
  const state::WorldState genesis = gen.genesis();
  const state::WorldState* parent = &genesis;
  for (std::size_t h = 1; h <= kHeights; ++h) {
    chain.push_back(build_honest_block(*parent, gen.next_block(), h));
    parent = chain.back().post_state.get();
  }

  state::WorldState running = genesis;  // committed baseline (memo carried)

  std::vector<RootSample> samples;
  *oracle_mismatch = 0;
  for (const HonestBlock& hb : chain) {
    // Replay the block as raw write sets (value-identical to the honest
    // execution for commitment purposes).
    for (const chain::TxProfile& tx : hb.bundle.profile.txs)
      for (const auto& [key, value] : tx.writes) running.set(key, value);

    RootSample s;
    s.txs = hb.bundle.profile.size();
    Stopwatch sw;
    const Hash256 incremental = running.state_root();
    s.incremental_ms = sw.elapsed_ms();
    sw.reset();
    const Hash256 oracle = running.state_root_full_rebuild();
    s.full_rebuild_ms = sw.elapsed_ms();
    if (incremental != oracle) *oracle_mismatch += 1;
    samples.push_back(s);
  }
  return samples;
}

// ---- experiment 2: async seal overlap across a proposed chain ----
// `retained_out`: heap the chain's blocks (post states, tries) hold once
// every seal settled, per block.  The final post state stays alive as the
// head, so its state is not counted.
std::vector<OverlapSample> run_overlap_once(commit::CommitPipeline* pipe,
                                            double* wall_out, double* tail_out,
                                            double* retained_out) {
  workload::WorkloadConfig wc = workload::preset_mainnet();
  wc.seed = 0xF19;
  workload::WorkloadGenerator gen(wc);
  // A live node starts from a parent whose commitment is final: genesis()
  // returns a committed state, so height 1 doesn't pay the one-off
  // whole-state build in either mode.
  const state::WorldState genesis = gen.genesis();

  core::ProposerConfig cfg;
  cfg.threads = 4;
  cfg.commit_pipeline = pipe;
  core::BlockProposer proposer(cfg);
  ThreadPool workers(1);  // the virtual-time engine never touches it

  std::vector<OverlapSample> samples;
  std::vector<core::ProposedBlock> blocks;
  Stopwatch wall;
  const state::WorldState* parent = &genesis;
  for (std::size_t h = 1; h <= kHeights; ++h) {
    txpool::TxPool pool;
    pool.add_all(gen.next_block());
    Stopwatch sw;
    blocks.push_back(proposer.propose(*parent, ctx_for(h), pool, workers));
    OverlapSample s;
    s.txs = blocks.back().block.transactions.size();
    s.exec_ms = sw.elapsed_ms();  // inline mode: includes sealing
    samples.push_back(s);
    parent = blocks.back().post_state.get();
  }
  // Overlap window closes here: settle every pending seal.
  Stopwatch tail;
  for (std::size_t h = 0; h < blocks.size(); ++h) {
    blocks[h].await_seal();
    if (blocks[h].commit.valid()) {
      const commit::CommitResult& r = blocks[h].commit.get();
      samples[h].commit_ms = r.commit_ms;
      samples[h].persist_ms = r.persist_ms;
      samples[h].nodes_appended = r.nodes_appended;
    }
  }
  *tail_out = tail.elapsed_ms();
  *wall_out = wall.elapsed_ms();
  // What the blocks alone hold: the heap they give back when dropped (the
  // shared genesis stays put across the two readings, and so does the last
  // post state, the head a chain keeps).
  const std::shared_ptr<state::WorldState> head = blocks.back().post_state;
  const std::size_t with_blocks = heap_in_use();
  blocks.clear();
  *retained_out = (static_cast<double>(with_blocks) -
                   static_cast<double>(heap_in_use())) /
                  static_cast<double>(kHeights);
  return samples;
}

// ---- experiment 3: finalize-time copies racing an in-flight commit ----
// A never-rooted state with `src`'s contents: every account is replayed
// through the write API, so the first state_root() builds the whole trie.
state::WorldState uncommitted_copy(const state::WorldState& src) {
  state::WorldState ws;
  src.for_each_account([&ws](const Address& addr,
                              const state::AccountData& acct) {
    ws.set(state::StateKey::balance(addr), acct.balance);
    ws.set(state::StateKey::nonce(addr), U256{acct.nonce});
    if (acct.code != nullptr) ws.set_code(addr, *acct.code);
    acct.storage.for_each([&ws, &addr](const U256& slot, const U256& value) {
      ws.set(state::StateKey::storage(addr, slot), value);
    });
  });
  return ws;
}

// Best-of-3 wall of one copy of `src`, and the heap bytes that copy holds
// (in-use arena bytes plus mmapped chunks, before vs. while it lives).
struct CopyCost {
  double ms = 0.0;
  std::size_t bytes = 0;
};

CopyCost measure_copy(const state::WorldState& src) {
  CopyCost out;
  for (int rep = 0; rep < 3; ++rep) {
    const std::size_t before = heap_in_use();
    Stopwatch sw;
    const state::WorldState copy(src);
    const double ms = sw.elapsed_ms();
    const std::size_t held = heap_in_use() - before;
    if (rep == 0 || ms < out.ms) out.ms = ms;
    if (rep == 0 || held < out.bytes) out.bytes = held;
  }
  return out;
}

struct CopyUnderCommit {
  double commit_ms = 0.0;         // wall of the in-flight state_root()
  double copy_idle_ms = 0.0;      // best-of-3 copy with no commit running
  std::size_t copy_idle_bytes = 0;   // heap held by that copy
  double genesis_copy_ms = 0.0;      // best-of-3 copy of committed genesis
  std::size_t genesis_copy_bytes = 0;
  double copy_worst_ms = 0.0;     // worst copy taken while commit in flight
  double copy_mean_ms = 0.0;
  std::size_t copies = 0;         // copies completed before the commit did
  bool roots_agree = false;       // mid-commit snapshot == oracle root
};

CopyUnderCommit run_copy_under_commit() {
  workload::WorkloadConfig wc = workload::preset_mainnet();
  wc.seed = 0xF19;
  workload::WorkloadGenerator gen(wc);

  CopyUnderCommit out;
  const state::WorldState genesis = gen.genesis();  // committed
  const CopyCost genesis_copy = measure_copy(genesis);
  out.genesis_copy_ms = genesis_copy.ms;
  out.genesis_copy_bytes = genesis_copy.bytes;

  // Heavyweight commit: genesis is never rooted, and every block's writes
  // pile onto the dirty set, so the pool thread's state_root() builds the
  // entire trie in one go.
  state::WorldState running = uncommitted_copy(genesis);
  {
    std::shared_ptr<state::WorldState> keep;
    const state::WorldState* parent = &running;
    for (std::size_t h = 1; h <= kHeights; ++h) {
      const HonestBlock hb = build_honest_block(*parent, gen.next_block(), h);
      for (const chain::TxProfile& tx : hb.bundle.profile.txs)
        for (const auto& [key, value] : tx.writes) running.set(key, value);
      keep = hb.post_state;
      parent = keep.get();
    }
  }

  const CopyCost idle_copy = measure_copy(running);
  out.copy_idle_ms = idle_copy.ms;
  out.copy_idle_bytes = idle_copy.bytes;

  ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  pool.submit([&running, &started, &done, &out] {
    started.store(true, std::memory_order_release);
    Stopwatch sw;
    (void)running.state_root();
    out.commit_ms = sw.elapsed_ms();
    done.store(true, std::memory_order_release);
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();

  std::vector<state::WorldState> snapshots;
  double total = 0;
  while (!done.load(std::memory_order_acquire)) {
    Stopwatch sw;
    snapshots.emplace_back(running);
    const double ms = sw.elapsed_ms();
    total += ms;
    if (ms > out.copy_worst_ms) out.copy_worst_ms = ms;
  }
  pool.wait_idle();
  out.copies = snapshots.size();
  out.copy_mean_ms = out.copies > 0 ? total / out.copies : 0.0;

  // A copy taken mid-commit is logically identical to the source: its own
  // root must land on the same hash the committed source settled on.
  if (!snapshots.empty())
    out.roots_agree = snapshots.back().state_root() == running.state_root();
  return out;
}

// ---- experiment 5: commitment on 1 lane vs nproc lanes ----
constexpr std::size_t kLaneHeights = 16;
constexpr int kLaneRepeats = 3;

struct LaneRun {
  std::size_t lanes = 0;
  double root_ms = 0.0;  // CommitResult::commit_ms, summed over heights
  double storage_fold_ms = 0.0;
  double account_hash_ms = 0.0;
  double persist_ms = 0.0;
  std::size_t nodes_appended = 0;
  std::vector<Hash256> roots;
};

// The chain's writes per height, replayed onto copies of committed
// parents: each height's commit folds exactly that block's writes.
std::vector<std::vector<std::pair<state::StateKey, U256>>> lane_chain_writes(
    state::WorldState* genesis_out) {
  workload::WorkloadConfig wc = workload::preset_mainnet();
  wc.seed = 0xF19;
  workload::WorkloadGenerator gen(wc);
  *genesis_out = gen.genesis();
  std::vector<std::vector<std::pair<state::StateKey, U256>>> out;
  std::shared_ptr<state::WorldState> keep;
  const state::WorldState* parent = genesis_out;
  for (std::size_t h = 1; h <= kLaneHeights; ++h) {
    const HonestBlock hb = build_honest_block(*parent, gen.next_block(), h);
    auto& writes = out.emplace_back();
    for (const chain::TxProfile& tx : hb.bundle.profile.txs)
      for (const auto& [key, value] : tx.writes)
        writes.emplace_back(key, value);
    keep = hb.post_state;
    parent = keep.get();
  }
  return out;
}

LaneRun run_lanes_once(
    const state::WorldState& genesis,
    const std::vector<std::vector<std::pair<state::StateKey, U256>>>& chain,
    ThreadPool* pool) {
  LaneRun out;
  out.lanes = pool == nullptr ? 1 : pool->size();
  char dir[] = "/tmp/bpdb_lanes_XXXXXX";
  if (::mkdtemp(dir) == nullptr) return out;
  {
    std::unique_ptr<db::PagedNodeStore> store;
    if (!db::PagedNodeStore::open(dir, {}, store).ok()) return out;
    (void)genesis.persist_commitment(*store);
    (void)store->commit_root(genesis.state_root(), 0);
    commit::CommitPipeline pipe(pool);
    pipe.set_node_store(store.get());
    auto parent = std::make_shared<const state::WorldState>(genesis);
    for (std::size_t h = 0; h < chain.size(); ++h) {
      auto post = std::make_shared<state::WorldState>(*parent);
      for (const auto& [key, value] : chain[h]) post->set(key, value);
      const commit::CommitResult r = pipe.submit(post).get();
      out.root_ms += r.commit_ms;
      out.storage_fold_ms += r.storage_fold_ms;
      out.account_hash_ms += r.account_hash_ms;
      out.persist_ms += r.persist_ms;
      out.nodes_appended += r.nodes_appended;
      out.roots.push_back(r.state_root);
      (void)store->commit_root(r.state_root, h + 1);
      parent = std::move(post);
    }
  }
  std::filesystem::remove_all(dir);
  return out;
}

// Best total per field over the repeats, 1 lane and nproc lanes
// alternating so both sides see the same machine.
std::pair<LaneRun, LaneRun> run_lanes(bool* roots_agree) {
  state::WorldState genesis;
  const auto chain = lane_chain_writes(&genesis);
  ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()));
  LaneRun best[2];
  *roots_agree = true;
  for (int rep = 0; rep < kLaneRepeats; ++rep) {
    for (int side = 0; side < 2; ++side) {
      const LaneRun r =
          run_lanes_once(genesis, chain, side == 0 ? nullptr : &pool);
      *roots_agree = *roots_agree && r.roots.size() == chain.size() &&
                     (rep == 0 && side == 0 ? true : r.roots == best[0].roots);
      LaneRun& b = best[side];
      if (rep == 0) {
        b = r;
        continue;
      }
      b.root_ms = std::min(b.root_ms, r.root_ms);
      b.storage_fold_ms = std::min(b.storage_fold_ms, r.storage_fold_ms);
      b.account_hash_ms = std::min(b.account_hash_ms, r.account_hash_ms);
      b.persist_ms = std::min(b.persist_ms, r.persist_ms);
    }
  }
  return {best[0], best[1]};
}

void print_lane_run(FILE* f, const char* name, const LaneRun& r, bool last) {
  const double n = static_cast<double>(kLaneHeights);
  std::fprintf(f,
               "    \"%s\": {\"lanes\": %zu, \"root_ms_per_block\": %.4f, "
               "\"storage_fold_ms_per_block\": %.4f, "
               "\"account_hash_ms_per_block\": %.4f, "
               "\"persist_ms_per_block\": %.4f, \"nodes_per_block\": %.1f}%s\n",
               name, r.lanes, r.root_ms / n, r.storage_fold_ms / n,
               r.account_hash_ms / n, r.persist_ms / n,
               static_cast<double>(r.nodes_appended) / n, last ? "" : ",");
}

// Scheduler noise dominates single-digit-ms walls (especially on low-core
// boxes where the commit pool time-slices against the proposer), so take
// the best of a few repeats per mode.
constexpr int kOverlapRepeats = 3;

std::vector<OverlapSample> run_overlap(commit::CommitPipeline* pipe,
                                       double* wall_out, double* tail_out,
                                       double* retained_out) {
  std::vector<OverlapSample> best;
  double best_wall = 0, best_tail = 0, best_retained = 0;
  for (int rep = 0; rep < kOverlapRepeats; ++rep) {
    double w = 0, t = 0, r = 0;
    std::vector<OverlapSample> s = run_overlap_once(pipe, &w, &t, &r);
    if (rep == 0 || w < best_wall) {
      best = std::move(s);
      best_wall = w;
      best_tail = t;
      best_retained = r;
    }
  }
  *wall_out = best_wall;
  *tail_out = best_tail;
  *retained_out = best_retained;
  return best;
}

void run() {
  print_header("State commitment: incremental MPT + async commit pipeline",
               "root check moves off the critical path (§5.2 overlap)");

  double mismatches = 0;
  const std::vector<RootSample> roots = run_root_recompute(&mismatches);

  double incr_total = 0, full_total = 0;
  std::printf("%8s %6s %16s %16s %10s\n", "height", "txs", "incremental-ms",
              "full-rebuild-ms", "speedup");
  for (std::size_t h = 0; h < roots.size(); ++h) {
    const RootSample& s = roots[h];
    incr_total += s.incremental_ms;
    full_total += s.full_rebuild_ms;
    std::printf("%8zu %6zu %16.3f %16.3f %9.1fx\n", h + 1, s.txs,
                s.incremental_ms, s.full_rebuild_ms,
                s.incremental_ms > 0 ? s.full_rebuild_ms / s.incremental_ms
                                     : 0.0);
  }
  const double speedup = incr_total > 0 ? full_total / incr_total : 0.0;
  std::printf("root recompute: %.3f ms incremental vs %.3f ms full "
              "(%.1fx), oracle mismatches: %.0f\n",
              incr_total, full_total, speedup, mismatches);

  // Overlap experiment: inline sealing vs commit-pipeline sealing.
  double serial_wall = 0, serial_tail = 0, serial_retained = 0;
  const auto serial =
      run_overlap(nullptr, &serial_wall, &serial_tail, &serial_retained);

  ThreadPool commit_pool(2);
  commit::CommitPipeline pipe(&commit_pool);
  double async_wall = 0, async_tail = 0, async_retained = 0;
  const auto overlapped =
      run_overlap(&pipe, &async_wall, &async_tail, &async_retained);

  std::printf("\n%8s %6s %14s %14s %14s\n", "height", "txs", "serial-ms",
              "async-exec-ms", "commit-ms");
  for (std::size_t h = 0; h < overlapped.size(); ++h) {
    std::printf("%8zu %6zu %14.2f %14.2f %14.2f\n", h + 1, overlapped[h].txs,
                serial[h].exec_ms, overlapped[h].exec_ms,
                overlapped[h].commit_ms);
  }
  double commit_total = 0;
  for (const OverlapSample& s : overlapped) commit_total += s.commit_ms;
  std::printf("pipeline wall: %.2f ms inline-seal vs %.2f ms overlapped "
              "(tail wait %.2f ms, saved %.2f ms)\n",
              serial_wall, async_wall, async_tail, serial_wall - async_wall);
  std::printf("heap retained per block: %.1f KiB inline-seal vs %.1f KiB "
              "overlapped (each child adopts its parent's fold)\n",
              serial_retained / 1024.0, async_retained / 1024.0);

  // Experiment 4: the same overlapped chain, now with the paged node store
  // attached — every seal also appends the block's dirty nodes to disk.
  // Walls on a time-sliced box are noisy, so the comparison is PAIRED:
  // store-less and store-attached runs alternate in one process and each
  // side keeps its best of five, which squeezes scheduler noise out of the
  // delta the <= 5% criterion is about.
  char store_dir[] = "/tmp/bpdb_commit_XXXXXX";
  double plain_wall = 0, store_wall = 0, persist_total = 0;
  double sealing_regression_pct = 0;
  std::size_t nodes_appended_total = 0;
  std::uint64_t store_file_bytes = 0;
  bool store_ok = ::mkdtemp(store_dir) != nullptr;
  if (store_ok) {
    std::unique_ptr<db::PagedNodeStore> store;
    store_ok = db::PagedNodeStore::open(store_dir, {}, store).ok();
    if (store_ok) {
      commit::CommitPipeline store_pipe(&commit_pool);
      store_pipe.set_node_store(store.get());
      constexpr int kPairedRepeats = 5;
      for (int rep = 0; rep < kPairedRepeats; ++rep) {
        double w = 0, t = 0, r = 0;
        (void)run_overlap_once(&pipe, &w, &t, &r);
        if (rep == 0 || w < plain_wall) plain_wall = w;
        const auto rode = run_overlap_once(&store_pipe, &w, &t, &r);
        if (rep == 0 || w < store_wall) store_wall = w;
        for (const OverlapSample& s : rode) persist_total += s.persist_ms;
      }
      // The repeats re-propose the same chain, so only the first pass
      // appends new nodes (dedup after); count appends store-wide.
      nodes_appended_total = static_cast<std::size_t>(store->stats().puts);
      store_file_bytes = store->stats().file_bytes;
      sealing_regression_pct =
          plain_wall > 0 ? 100.0 * (store_wall - plain_wall) / plain_wall
                         : 0.0;
      std::printf("\npaged-store rider (paired best-of-%d): %.2f ms "
                  "overlapped wall with disk appends vs %.2f ms without "
                  "(%+.1f%%, criterion <= 5%%)\n",
                  kPairedRepeats, store_wall, plain_wall,
                  sealing_regression_pct);
      std::printf("  %zu nodes appended (%.2f ms persist riding the seals "
                  "across all repeats, %.1f KiB on disk)\n",
                  nodes_appended_total, persist_total,
                  static_cast<double>(store_file_bytes) / 1024.0);
    }
    std::filesystem::remove_all(store_dir);
  }
  if (!store_ok) std::printf("paged-store rider: store setup failed\n");
  std::printf("commitment hashing: %.2f ms total, %.2f ms hidden under "
              "execution (%.0f%%) on %u hardware threads\n",
              commit_total, commit_total - async_tail,
              commit_total > 0
                  ? 100.0 * (commit_total - async_tail) / commit_total
                  : 0.0,
              std::thread::hardware_concurrency());
  if (std::thread::hardware_concurrency() < 2)
    std::printf("note: single hardware thread -- overlapped wall cannot beat "
                "inline (no parallelism); overlap evidence is the hidden/tail "
                "split above\n");

  // Copy-under-commit experiment: the finalize path must not stall.
  const CopyUnderCommit cuc = run_copy_under_commit();
  std::printf("\ncopy under in-flight commit: %zu copies completed during a "
              "%.2f ms commit\n",
              cuc.copies, cuc.commit_ms);
  std::printf("  copy latency: %.3f ms idle, %.3f ms mean / %.3f ms worst "
              "while committing (commit would have blocked each for up to "
              "%.2f ms pre-snapshot)\n",
              cuc.copy_idle_ms, cuc.copy_mean_ms, cuc.copy_worst_ms,
              cuc.commit_ms);
  std::printf("  bytes per copy: %.3f MiB for that uncommitted source, "
              "%.3f MiB (%.3f ms) for the committed genesis\n",
              static_cast<double>(cuc.copy_idle_bytes) / (1 << 20),
              static_cast<double>(cuc.genesis_copy_bytes) / (1 << 20),
              cuc.genesis_copy_ms);
  std::printf("  mid-commit snapshot root agrees with committed source: %s\n",
              cuc.roots_agree ? "yes" : (cuc.copies ? "NO" : "n/a"));

  // Experiment 5: the replica's commit task on 1 lane vs nproc lanes.
  bool lane_roots_agree = false;
  const auto [one_lane, all_lanes] = run_lanes(&lane_roots_agree);
  std::printf("\ncommit lanes (per block, best of %d, %zu heights): "
              "%12s %12s %12s %12s %8s\n",
              kLaneRepeats, kLaneHeights, "root-ms", "storage-ms",
              "account-ms", "persist-ms", "nodes");
  for (const LaneRun* r : {&one_lane, &all_lanes}) {
    const double n = static_cast<double>(kLaneHeights);
    std::printf("  %2zu lane(s) %41s %12.3f %12.3f %12.3f %12.3f %8.1f\n",
                r->lanes, "", r->root_ms / n, r->storage_fold_ms / n,
                r->account_hash_ms / n, r->persist_ms / n,
                static_cast<double>(r->nodes_appended) / n);
  }
  const double root_lane_speedup =
      all_lanes.root_ms > 0 ? one_lane.root_ms / all_lanes.root_ms : 0.0;
  const double persist_lane_speedup =
      all_lanes.persist_ms > 0 ? one_lane.persist_ms / all_lanes.persist_ms
                               : 0.0;
  std::printf("  speedup: root %.2fx, persist %.2fx; roots agree: %s\n",
              root_lane_speedup, persist_lane_speedup,
              lane_roots_agree ? "yes" : "NO");

  // ---- machine-readable record ----
  FILE* f = std::fopen("BENCH_commit.json", "w");
  if (f == nullptr) {
    std::printf("cannot write BENCH_commit.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"workload\": \"preset_mainnet fig9 seed=0xF19\",\n");
  std::fprintf(f, "  \"heights\": %zu,\n", kHeights);
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"root_recompute\": {\n    \"per_block\": [\n");
  for (std::size_t h = 0; h < roots.size(); ++h) {
    std::fprintf(f,
                 "      {\"height\": %zu, \"txs\": %zu, \"incremental_ms\": "
                 "%.4f, \"full_rebuild_ms\": %.4f}%s\n",
                 h + 1, roots[h].txs, roots[h].incremental_ms,
                 roots[h].full_rebuild_ms, h + 1 < roots.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"incremental_total_ms\": %.4f,\n", incr_total);
  std::fprintf(f, "    \"full_rebuild_total_ms\": %.4f,\n", full_total);
  std::fprintf(f, "    \"speedup\": %.2f,\n", speedup);
  std::fprintf(f, "    \"oracle_mismatches\": %.0f\n  },\n", mismatches);
  std::fprintf(f, "  \"overlap\": {\n    \"phases\": [\n");
  for (std::size_t h = 0; h < overlapped.size(); ++h) {
    std::fprintf(f,
                 "      {\"height\": %zu, \"txs\": %zu, \"serial_ms\": %.4f, "
                 "\"async_exec_ms\": %.4f, \"commit_ms\": %.4f}%s\n",
                 h + 1, overlapped[h].txs, serial[h].exec_ms,
                 overlapped[h].exec_ms, overlapped[h].commit_ms,
                 h + 1 < overlapped.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"serial_wall_ms\": %.4f,\n", serial_wall);
  std::fprintf(f, "    \"overlapped_wall_ms\": %.4f,\n", async_wall);
  std::fprintf(f, "    \"commit_total_ms\": %.4f,\n", commit_total);
  std::fprintf(f, "    \"commit_tail_wait_ms\": %.4f,\n", async_tail);
  std::fprintf(f, "    \"commit_hidden_ms\": %.4f,\n",
               commit_total - async_tail);
  std::fprintf(f, "    \"serial_retained_bytes_per_block\": %.0f,\n",
               serial_retained);
  std::fprintf(f, "    \"overlapped_retained_bytes_per_block\": %.0f,\n",
               async_retained);
  std::fprintf(f, "    \"saved_ms\": %.4f\n  },\n",
               serial_wall - async_wall);
  std::fprintf(f, "  \"paged_store_rider\": {\n");
  std::fprintf(f, "    \"wall_ms\": %.4f,\n", store_wall);
  std::fprintf(f, "    \"storeless_wall_ms\": %.4f,\n", plain_wall);
  std::fprintf(f, "    \"sealing_regression_pct\": %.2f,\n",
               sealing_regression_pct);
  std::fprintf(f, "    \"criterion\": \"<= 5 pct\",\n");
  std::fprintf(f, "    \"persist_total_ms\": %.4f,\n", persist_total);
  std::fprintf(f, "    \"nodes_appended\": %zu,\n", nodes_appended_total);
  std::fprintf(f, "    \"file_bytes\": %" PRIu64 "\n  },\n",
               store_file_bytes);
  std::fprintf(f, "  \"copy_under_commit\": {\n");
  std::fprintf(f, "    \"commit_ms\": %.4f,\n", cuc.commit_ms);
  std::fprintf(f, "    \"copies_during_commit\": %zu,\n", cuc.copies);
  std::fprintf(f, "    \"copy_idle_ms\": %.4f,\n", cuc.copy_idle_ms);
  std::fprintf(f, "    \"copy_idle_bytes\": %zu,\n", cuc.copy_idle_bytes);
  std::fprintf(f, "    \"genesis_copy_ms\": %.4f,\n", cuc.genesis_copy_ms);
  std::fprintf(f, "    \"genesis_copy_bytes\": %zu,\n",
               cuc.genesis_copy_bytes);
  std::fprintf(f, "    \"copy_mean_ms\": %.4f,\n", cuc.copy_mean_ms);
  std::fprintf(f, "    \"copy_worst_ms\": %.4f,\n", cuc.copy_worst_ms);
  std::fprintf(f, "    \"roots_agree\": %s\n  },\n",
               cuc.roots_agree ? "true" : "false");
  std::fprintf(f, "  \"commit_lanes\": {\n");
  std::fprintf(f, "    \"heights\": %zu,\n", kLaneHeights);
  print_lane_run(f, "one_lane", one_lane, false);
  print_lane_run(f, "nproc_lanes", all_lanes, false);
  std::fprintf(f, "    \"root_speedup\": %.2f,\n", root_lane_speedup);
  std::fprintf(f, "    \"persist_speedup\": %.2f,\n", persist_lane_speedup);
  std::fprintf(f, "    \"roots_agree\": %s\n  }\n}\n",
               lane_roots_agree ? "true" : "false");
  std::fclose(f);
  std::printf("wrote BENCH_commit.json\n");
}

}  // namespace
}  // namespace blockpilot::bench

int main() { blockpilot::bench::run(); }

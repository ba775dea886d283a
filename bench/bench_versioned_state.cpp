// Microbenchmark: state::MvMemory — the multi-version memory both proposer
// engines execute through — driven the way OCC-WSI drives it, vs the
// original single-lock store (one shared_mutex guarding one unordered_map).
//
// Phases:
//  1. snapshot-read throughput at 1/2/4/8/16 executor threads, both stores
//     (the OCC-WSI hot path: executor threads reading a frozen snapshot);
//  2. reserve-table validation scans: latest_version under the global lock
//     vs MvMemory::written_from under one stripe lock;
//  3. reads racing one committer (the proposer steady state);
//  4. the Fig. 6 proposer curve (virtual-time mode, wall-clock per block)
//     against the pre-change numbers measured on this host;
//  5. differential gate: virtual-time proposer blocks at 1..16 threads must
//     be bit-identical (state root, tx root = block order, abort count) to
//     the pre-change implementation's captured output;
//  6. engine regime map: OCC-WSI vs Block-STM virtual speedup at 8 threads
//     over the workload's largest-subgraph ratio, with cross-engine
//     exactness flags (OCC serializable; Block-STM bit-identical to the
//     serial pop-order oracle) gated in --smoke.
//
// Usage:
//   bench_versioned_state            # full run, prints JSON to stdout
//   bench_versioned_state --smoke    # CI perf-smoke: small sizes, exits
//                                    # non-zero on regression sentinel or
//                                    # differential mismatch
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "state/versioned_state.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace blockpilot::bench {
namespace {

using state::MvMemory;
using state::StateKey;
using state::WorldState;

// ---------------------------------------------------------------------------
// Baseline: the original OCC-WSI store.  Kept here (not in src/) so the
// comparison survives future refactors of the real store.

class SingleLockStore {
 public:
  explicit SingleLockStore(const WorldState& base) noexcept : base_(base) {}

  U256 read_at(const StateKey& key, std::uint64_t snapshot_version) const {
    {
      std::shared_lock lk(mu_);
      const auto it = versions_.find(key);
      if (it != versions_.end()) {
        const auto& chain = it->second;
        for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit) {
          if (rit->first <= snapshot_version) return rit->second;
        }
      }
    }
    return base_.get(key);
  }

  std::uint64_t latest_version(const StateKey& key) const {
    std::shared_lock lk(mu_);
    const auto it = versions_.find(key);
    if (it == versions_.end() || it->second.empty()) return 0;
    return it->second.back().first;
  }

  bool newer_than(const StateKey& key, std::uint64_t snapshot) const {
    return latest_version(key) > snapshot;
  }

  void commit(const std::vector<std::pair<StateKey, U256>>& write_set,
              std::uint64_t version) {
    std::unique_lock lk(mu_);
    for (const auto& [key, value] : write_set) {
      versions_[key].emplace_back(version, value);
    }
    committed_version_ = version;
  }

  std::uint64_t committed_version() const {
    std::shared_lock lk(mu_);
    return committed_version_;
  }

 private:
  const WorldState& base_;
  mutable std::shared_mutex mu_;
  std::unordered_map<StateKey, std::vector<std::pair<std::uint64_t, U256>>>
      versions_;
  std::uint64_t committed_version_ = 0;
};

// ---------------------------------------------------------------------------
// MvMemory under the OCC-WSI protocol (src/core/engine_occ_wsi.cpp): the
// transaction committed as version v records at block position v - 1, a
// snapshot at version s reads at index s, staleness is written_from, and
// the committed count is release-published after each record.
//
// An MvMemory has a fixed number of positions, while phase 3's committer
// runs until the readers finish.  Past the last position it keeps
// recording by re-incarnating the positions above `base_versions` in turn,
// so the committer stays live (exclusive stripe locks, map writes) at the
// same rate; the published count then stays at the last position.

/// Positions phase 3 adds past the universe's versions before the
/// committer starts re-incarnating them.
constexpr std::size_t kExtraPositions = 1 << 16;

class MvStore {
 public:
  MvStore(const WorldState& base, std::uint32_t positions,
          std::uint32_t base_versions)
      : mv_(base, positions),
        positions_(positions),
        base_versions_(base_versions) {}

  U256 read_at(const StateKey& key, std::uint64_t snapshot) const {
    return mv_.read(key, static_cast<std::uint32_t>(snapshot)).value;
  }

  bool newer_than(const StateKey& key, std::uint64_t snapshot) const {
    return mv_.written_from(key, static_cast<std::uint32_t>(snapshot));
  }

  void commit(const std::vector<std::pair<StateKey, U256>>& write_set,
              std::uint64_t version) {
    std::uint64_t position = version - 1;
    std::uint64_t incarnation = 0;
    if (position >= positions_) {
      const std::uint64_t span = positions_ - base_versions_;
      const std::uint64_t past = position - base_versions_;
      position = base_versions_ + past % span;
      incarnation = past / span;
    }
    mv_.record(static_cast<std::uint32_t>(position),
               static_cast<std::uint32_t>(incarnation), write_set);
    committed_.store(
        static_cast<std::uint32_t>(std::min<std::uint64_t>(version, positions_)),
        std::memory_order_release);
  }

  std::uint64_t committed_version() const {
    return committed_.load(std::memory_order_acquire);
  }

 private:
  MvMemory mv_;
  std::uint32_t positions_;
  std::uint32_t base_versions_;
  std::atomic<std::uint32_t> committed_{0};
};

// ---------------------------------------------------------------------------
// Workload: a universe of keys, a fraction of which carry version chains
// (recently written this block), the rest served from base state — the mix
// an executor thread sees mid-block.

struct Universe {
  std::vector<StateKey> keys;  // all probe-able keys
  WorldState base;
  std::uint64_t committed = 0;
  std::vector<std::vector<std::pair<StateKey, U256>>> commits;  // per version
};

Universe make_universe(std::size_t accounts, std::size_t slots_per,
                       std::size_t versions, std::size_t writes_per_version) {
  Universe u;
  Xoshiro256 rng(0xBEEF);
  for (std::size_t a = 0; a < accounts; ++a) {
    const Address addr = Address::from_id(a + 1);
    u.base.set(StateKey::balance(addr), U256{1'000'000});
    u.keys.push_back(StateKey::balance(addr));
    for (std::size_t s = 0; s < slots_per; ++s) {
      const StateKey k = StateKey::storage(addr, U256{s});
      u.base.set(k, U256{a * 100 + s});
      u.keys.push_back(k);
    }
  }
  // Version chains concentrate on a hot subset (zipf-ish: low indices).
  // Keys must be unique within one write set: a committed version touches
  // each key at most once (chain versions are strictly increasing).
  for (std::size_t v = 1; v <= versions; ++v) {
    std::vector<std::pair<StateKey, U256>> ws;
    std::unordered_map<StateKey, bool> seen;
    while (ws.size() < writes_per_version) {
      const std::size_t hot = rng.below(std::max<std::size_t>(
          1, u.keys.size() / 8));  // hottest 12.5% of keys
      if (!seen.try_emplace(u.keys[hot], true).second) continue;
      ws.emplace_back(u.keys[hot], U256{v * 1000 + ws.size()});
    }
    u.commits.push_back(std::move(ws));
  }
  u.committed = versions;
  return u;
}

template <typename Store>
void commit_all(Store& store, const Universe& u) {
  for (std::size_t v = 0; v < u.commits.size(); ++v)
    store.commit(u.commits[v], v + 1);
}

/// Aggregate snapshot-read throughput: `threads` readers each issue `ops`
/// reads of zipf-popular universe keys at the committed snapshot — the
/// executor hot path.  Both stores serve every read from the store (a
/// lane's per-attempt memo only repeats a key within one transaction).
/// Returns Mops/s.
template <typename Store>
double read_throughput(const Store& store, const Universe& u,
                       const ZipfSampler& zipf, std::size_t threads,
                       std::size_t ops) {
  std::atomic<bool> go{false};
  std::atomic<std::size_t> ready{0};
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::jthread> readers;
  const std::uint64_t snap = store.committed_version();
  for (std::size_t t = 0; t < threads; ++t) {
    readers.emplace_back([&, t] {
      // Sample the key sequence up front so the timed region measures the
      // store, not the zipf sampler's inverse-CDF binary search.
      Xoshiro256 rng(0x5EED + t);
      std::vector<std::uint32_t> idx(ops);
      for (auto& x : idx) x = static_cast<std::uint32_t>(zipf(rng));
      // Steady-state warm-up: one untimed pass brings the store's buckets
      // to their mid-block state for both store kinds before the clock
      // starts.
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < std::min<std::size_t>(ops, 10'000); ++i)
        acc += store.read_at(u.keys[idx[i]], snap).low64();
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::size_t i = 0; i < ops; ++i)
        acc += store.read_at(u.keys[idx[i]], snap).low64();
      sink.fetch_add(acc, std::memory_order_relaxed);
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
    std::this_thread::yield();
  }
  Stopwatch sw;
  go.store(true, std::memory_order_release);
  readers.clear();  // join
  const double ms = sw.elapsed_ms();
  if (sink.load() == 0) std::printf("# impossible: zero sink\n");
  return static_cast<double>(threads * ops) / (ms * 1e3);  // Mops/s
}

/// Executor hot-path throughput: the per-key sequence an OCC-WSI executor
/// actually performs — one snapshot read when the transaction executes plus
/// one reserve-table check (`newer_than`) when its read set is validated.
/// MvMemory: two lookups under one stripe's lock each.  Single-lock store:
/// two lookups under the one global lock.  Returns M key-ops/s (one
/// read+validate pair = one op).
template <typename Store>
double hot_path_throughput(const Store& store, const Universe& u,
                           const ZipfSampler& zipf, std::size_t threads,
                           std::size_t ops) {
  std::atomic<bool> go{false};
  std::atomic<std::size_t> ready{0};
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::jthread> workers;
  const std::uint64_t snap = store.committed_version();
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(0xB0DE + t);
      std::vector<std::uint32_t> idx(ops);
      for (auto& x : idx) x = static_cast<std::uint32_t>(zipf(rng));
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < std::min<std::size_t>(ops, 10'000); ++i) {
        const StateKey& key = u.keys[idx[i]];
        acc += store.read_at(key, snap).low64();
        acc += store.newer_than(key, snap) ? 1 : 0;
      }
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::size_t i = 0; i < ops; ++i) {
        const StateKey& key = u.keys[idx[i]];
        acc += store.read_at(key, snap).low64();
        acc += store.newer_than(key, snap) ? 1 : 0;
      }
      sink.fetch_add(acc, std::memory_order_relaxed);
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
    std::this_thread::yield();
  }
  Stopwatch sw;
  go.store(true, std::memory_order_release);
  workers.clear();  // join
  const double ms = sw.elapsed_ms();
  if (sink.load() == 0) std::printf("# impossible: zero sink\n");
  return static_cast<double>(threads * ops) / (ms * 1e3);
}

/// Validation-scan throughput: WSI read-set checks (`newer_than`) against
/// clean (unwritten) keys — the common validate-pass case.  Returns Mops/s.
template <typename Store>
double validate_throughput(const Store& store, const Universe& u,
                           std::size_t threads, std::size_t ops) {
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> stale_count{0};
  std::vector<std::jthread> scanners;
  const std::uint64_t snap = store.committed_version();  // nothing is newer
  for (std::size_t t = 0; t < threads; ++t) {
    scanners.emplace_back([&, t] {
      Xoshiro256 rng(0xA11E + t);
      while (!go.load(std::memory_order_acquire)) {
      }
      std::uint64_t stale = 0;
      for (std::size_t i = 0; i < ops; ++i) {
        const StateKey& key = u.keys[rng.below(u.keys.size())];
        stale += store.newer_than(key, snap) ? 1 : 0;
      }
      stale_count.fetch_add(stale, std::memory_order_relaxed);
    });
  }
  Stopwatch sw;
  go.store(true, std::memory_order_release);
  scanners.clear();
  const double ms = sw.elapsed_ms();
  if (stale_count.load() != 0) std::printf("# impossible: stale on snapshot\n");
  return static_cast<double>(threads * ops) / (ms * 1e3);
}

/// Readers racing one continuously-active committer — the proposer steady
/// state (in OCC-WSI the commit section is always live while executor
/// threads read their snapshots).  Returns aggregate reader Mops/s.  This is
/// where the single lock hurts most: every commit takes the one exclusive
/// lock and stalls all readers (catastrophically so if the writer is
/// preempted while holding it), while MvMemory pins one stripe at a time.
template <typename Store>
double mixed_throughput(Store& store, const Universe& u,
                        const ZipfSampler& zipf, std::size_t threads,
                        std::size_t ops,
                        const std::vector<std::vector<std::pair<StateKey, U256>>>&
                            extra_commits) {
  std::atomic<bool> go{false};
  std::atomic<bool> done{false};
  std::atomic<std::size_t> ready{0};
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::jthread> readers;
  for (std::size_t t = 0; t < threads; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(0xFACE + t);
      std::vector<std::uint32_t> idx(ops);
      for (auto& x : idx) x = static_cast<std::uint32_t>(zipf(rng));
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) {
      }
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < ops; ++i) {
        const std::uint64_t snap = store.committed_version();
        acc += store.read_at(u.keys[idx[i]], snap).low64();
      }
      sink.fetch_add(acc, std::memory_order_relaxed);
    });
  }
  std::jthread committer([&] {
    while (!go.load(std::memory_order_acquire)) {
    }
    std::uint64_t v = store.committed_version();
    std::size_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      store.commit(extra_commits[i], ++v);
      i = (i + 1) % extra_commits.size();
    }
  });
  while (ready.load(std::memory_order_acquire) < threads) {
    std::this_thread::yield();
  }
  Stopwatch sw;
  go.store(true, std::memory_order_release);
  readers.clear();  // join readers
  const double ms = sw.elapsed_ms();
  done.store(true, std::memory_order_release);
  return static_cast<double>(threads * ops) / (ms * 1e3);
}

// ---------------------------------------------------------------------------
// Differential gate: reference proposer output on this workload
// (preset_mainnet, seed 0xD1FF, 4 blocks).  Virtual-time mode is
// deterministic, so any divergence in values, abort decisions, or commit
// order shows up here as a root/abort mismatch.  Last recaptured
// (--capture-differential) after the txpool admission-front rework: the
// push_back() fix that preserves a retry's admission seq legitimately
// reordered equal-price retries (state roots were unchanged throughout).

struct ExpectedBlock {
  const char* state_root;
  const char* tx_root;
  std::uint64_t aborts;
};

constexpr const char* kRoot0 =
    "0xe0fee82415bc97fec60ee3a88d74f2a17c6b786f14a3163b26584bfa658cebe8";
constexpr const char* kRoot1 =
    "0xf704b83a14e2337da79fc51941444b1a0c92c3621c2782c56867154454880f55";
constexpr const char* kRoot2 =
    "0x39e31f289bf113ec6f9d81a080fd8a6d4317a6337803efd858637d4f6a7cfb02";
constexpr const char* kRoot3 =
    "0xf5091aecee9e820452e0ea5645e03706fb3a2e1cf151f84962b0c11cfe476e6d";

struct ExpectedRun {
  std::size_t threads;
  ExpectedBlock blocks[4];
};

constexpr ExpectedRun kExpected[] = {
    {1,
     {{kRoot0, "0xd41cb711bbab83b6f351eb742e77565f6a0adee88b51912ed7a0a941039f58cc", 0},
      {kRoot1, "0x842eeb3259a2217334cb470958bd9fe5436041c74b0defa1effaf4f0df531c6b", 0},
      {kRoot2, "0x6a1a789b0d5bb4416440bf24ad106afb8f7caad5ff7bb30c36c002e1e0915ac0", 0},
      {kRoot3, "0x4ccd9ef0f499fea30093047c546af138e379aee6a81b67c78988eafea09a14e6", 0}}},
    {2,
     {{kRoot0, "0xcdcdee6a00176c15ab193e6b8b66535876259dfd44a02f28c402defa5bb775cf", 18},
      {kRoot1, "0xcdf79abfa8e1824f179ce2b1249ddf71fb12911cc51c21945e267d1236153966", 2},
      {kRoot2, "0xed1983059d049eeeabf9ae2ac4d2cae351da30984cdf362037567ed11a46405c", 8},
      {kRoot3, "0xdf7d05b452d703be5ac2ef05013c44391a3e20b74c470a36f0273f8c8758df09", 12}}},
    {4,
     {{kRoot0, "0xd91f99762ae3937dbdd58cbaeab40023f71d92cf02bb59cf9740084cb09c1f68", 60},
      {kRoot1, "0x5330168ee6801b71805c7484ac410e7b52e43e86115e6bbb38d302b40c0880b9", 17},
      {kRoot2, "0x98fc85ac878b5eee7b1cc37ed74352321e07bd1ff37a96f412ffb7b958a585bc", 21},
      {kRoot3, "0x4c3a542026fbc76e282886703a84fb212938ce3aa6acab4e108773e4d6f610a6", 45}}},
    {8,
     {{kRoot0, "0xc08473ad0a43c9f240051f476bd3df4d28965dc1c15f0d5ca2b9ec3b3c281196", 183},
      {kRoot1, "0x30c79648561d76a9caa66afe1b9861fa462676bfa415cf0548bcd7997cf14725", 44},
      {kRoot2, "0xdf78d9b27e72216ddb01b0bf09f1c26df88de60412cb7403978839aaf88b2ae1", 80},
      {kRoot3, "0x66c6297e76fce8e817d3ef5889981c50af72ac9a7c49f05c5bce5141dfd74375", 126}}},
    {16,
     {{kRoot0, "0x68c45379b3cba11d45c82d963608a3b8a3cea7b6eefde880380c5857b76f5a5b", 405},
      {kRoot1, "0xaffc6fc260ce511def2a85d8443068e736b3a514916bfafa894c812c74b4e176", 88},
      {kRoot2, "0x4871a8b2e012621cb83a93bd272b60682958067c9cc83c5724bac85ab6b8a469", 164},
      {kRoot3, "0x4826e01dcb9dfcff0e9a314a9261e46146b1ad870676fcfa311963fe5487d002", 254}}},
};

// Re-emits the kExpected table from the CURRENT implementation
// (--capture-differential).  Run after an intentional behavior change —
// e.g. a pool ordering fix that legitimately alters retry order and block
// composition — and paste the output over the constants above.
void capture_differential() {
  for (const std::size_t threads : {1u, 2u, 4u, 8u, 16u}) {
    workload::WorkloadConfig wc = workload::preset_mainnet();
    wc.seed = 0xD1FF;
    workload::WorkloadGenerator gen(wc);
    const WorldState genesis = gen.genesis();
    ThreadPool workers(1);
    std::printf("    {%zu,\n", threads);
    for (int b = 0; b < 4; ++b) {
      txpool::TxPool pool;
      pool.add_all(gen.next_block());
      core::ProposerConfig cfg;
      cfg.threads = threads;
      core::BlockProposer proposer(cfg);
      core::ProposedBlock blk = proposer.propose(
          genesis, ctx_for(static_cast<std::uint64_t>(b) + 1), pool, workers);
      blk.await_seal();
      std::printf("     %s{\"%s\", \"%s\", %llu}%s\n", b == 0 ? "{" : " ",
                  blk.block.header.state_root.to_hex().c_str(),
                  blk.block.header.tx_root.to_hex().c_str(),
                  static_cast<unsigned long long>(blk.stats.aborts),
                  b == 3 ? "}}," : ",");
    }
  }
}

bool run_differential(bool smoke, std::string& detail) {
  bool ok = true;
  for (const ExpectedRun& run : kExpected) {
    if (smoke && run.threads != 4) continue;  // one config keeps smoke fast
    workload::WorkloadConfig wc = workload::preset_mainnet();
    wc.seed = 0xD1FF;
    workload::WorkloadGenerator gen(wc);
    const WorldState genesis = gen.genesis();
    ThreadPool workers(1);
    for (int b = 0; b < 4; ++b) {
      txpool::TxPool pool;
      pool.add_all(gen.next_block());
      core::ProposerConfig cfg;
      cfg.threads = run.threads;
      core::BlockProposer proposer(cfg);
      core::ProposedBlock blk = proposer.propose(
          genesis, ctx_for(static_cast<std::uint64_t>(b) + 1), pool, workers);
      blk.await_seal();
      const ExpectedBlock& exp = run.blocks[b];
      if (blk.block.header.state_root.to_hex() != exp.state_root ||
          blk.block.header.tx_root.to_hex() != exp.tx_root ||
          blk.stats.aborts != exp.aborts) {
        ok = false;
        detail += "mismatch threads=" + std::to_string(run.threads) +
                  " block=" + std::to_string(b) + "; ";
      }
    }
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Regime map: OCC-WSI vs Block-STM virtual speedup over the workload's
// conflict structure (largest dependency subgraph as a fraction of the
// block).  OCC pays a serialized commit section but re-orders around
// conflicts; Block-STM pins the preset order and pays re-executions — the
// crossover between the two engines is the map this phase publishes.
// Every point also carries the cross-engine exactness flags the CI smoke
// gates on: the OCC block must replay serially to its own root, and the
// Block-STM block must be bit-identical (txs, state root, receipts) to the
// serial execution of its candidates in pool pop order.

struct RegimePoint {
  std::string name;
  double subgraph_ratio = 0;
  double occ_speedup = 0;
  double stm_speedup = 0;
  std::uint64_t occ_aborts = 0;
  std::uint64_t stm_aborts = 0;
  bool occ_serializable = true;
  bool stm_exact = true;
};

RegimePoint run_regime_point(const char* name,
                             const workload::WorkloadConfig& preset,
                             int blocks) {
  workload::WorkloadConfig wc = preset;
  wc.seed = 0x4E61;
  workload::WorkloadGenerator gen(wc);
  const WorldState genesis = gen.genesis();
  ThreadPool workers(1);

  RegimePoint pt;
  pt.name = name;
  double ratio_sum = 0, occ_sum = 0, stm_sum = 0;
  for (int b = 0; b < blocks; ++b) {
    const std::uint64_t height = static_cast<std::uint64_t>(b) + 1;
    const std::vector<chain::Transaction> batch = gen.next_block();
    core::ProposerConfig pcfg;  // defaults = the engines' selection budget

    // Serial pop-order oracle (mirrors Block-STM candidate selection:
    // reserve by gas_limit) + the batch's conflict structure.
    std::vector<chain::Transaction> pop_order;
    {
      txpool::TxPool pool;
      pool.add_all(batch);
      std::uint64_t reserved = 0;
      while (auto tx = pool.pop()) {
        if (reserved + tx->gas_limit > pcfg.block_gas_limit) break;
        reserved += tx->gas_limit;
        pop_order.push_back(std::move(*tx));
      }
    }
    core::SerialOptions sopts;
    sopts.block_gas_limit = pcfg.block_gas_limit;
    const core::SerialResult oracle = core::execute_serial(
        genesis, ctx_for(height), std::span(pop_order), sopts);
    const sched::DependencyGraph graph = sched::build_dependency_graph(
        oracle.exec.profile, sched::Granularity::kAccount);
    ratio_sum += graph.largest_subgraph_ratio();

    const auto propose = [&](core::ScheduleMode mode) {
      txpool::TxPool pool;
      pool.add_all(batch);
      core::ProposerConfig cfg;
      cfg.mode = mode;
      cfg.threads = 8;
      core::BlockProposer proposer(cfg);
      core::ProposedBlock blk =
          proposer.propose(genesis, ctx_for(height), pool, workers);
      blk.await_seal();
      return blk;
    };
    const core::ProposedBlock occ = propose(core::ScheduleMode::kVirtualTime);
    const core::ProposedBlock stm = propose(core::ScheduleMode::kBlockStm);
    occ_sum += occ.stats.virtual_speedup();
    stm_sum += stm.stats.virtual_speedup();
    pt.occ_aborts += occ.stats.aborts;
    pt.stm_aborts += stm.stats.aborts;

    // OCC serializability: its block replayed in block order reaches the
    // same root.
    core::SerialOptions ropts;
    ropts.drop_unincludable = false;
    const core::SerialResult replay = core::execute_serial(
        genesis, ctx_for(height), std::span(occ.block.transactions), ropts);
    if (!replay.ok || replay.exec.state_root != occ.block.header.state_root)
      pt.occ_serializable = false;

    // Block-STM exactness: bit-identical to the pop-order oracle.
    if (stm.block.transactions != oracle.included ||
        stm.block.header.state_root != oracle.exec.state_root ||
        stm.block.header.gas_used != oracle.exec.gas_used ||
        chain::receipts_root(stm.receipts) !=
            chain::receipts_root(oracle.exec.receipts))
      pt.stm_exact = false;
  }
  pt.subgraph_ratio = ratio_sum / blocks;
  pt.occ_speedup = occ_sum / blocks;
  pt.stm_speedup = stm_sum / blocks;
  return pt;
}

std::vector<RegimePoint> run_regime_map(bool smoke) {
  workload::WorkloadConfig dex_heavy = workload::preset_mainnet();
  dex_heavy.dex_fraction = 0.6;
  dex_heavy.token_fraction = 0.3;
  const int blocks = smoke ? 2 : 8;
  return {
      run_regime_point("low_conflict", workload::preset_low_conflict(),
                       blocks),
      run_regime_point("mainnet", workload::preset_mainnet(), blocks),
      run_regime_point("mainnet_dex_heavy", dex_heavy, blocks),
      run_regime_point("high_conflict", workload::preset_high_conflict(),
                       blocks),
  };
}

// Pre-change Fig. 6 numbers measured on this host (bench_fig6_proposer,
// 30 blocks, preset_mainnet seed 0xF16) immediately before the rework.
struct Fig6Before {
  std::size_t threads;
  double wall_ms_per_block;
  double avg_speedup;
};
constexpr Fig6Before kFig6Before[] = {
    {2, 83.4, 1.76}, {4, 83.0, 2.92}, {8, 85.6, 3.86}, {16, 88.7, 4.19}};

struct Fig6After {
  std::size_t threads;
  double wall_ms_per_block;
  double avg_speedup;
};

std::vector<Fig6After> run_fig6(int blocks) {
  std::vector<Fig6After> out;
  ThreadPool workers(1);
  for (const std::size_t threads : {2u, 4u, 8u, 16u}) {
    workload::WorkloadConfig wc = workload::preset_mainnet();
    wc.seed = 0xF16;
    workload::WorkloadGenerator gen(wc);
    const WorldState genesis = gen.genesis();
    SpeedupHistogram hist;
    double wall = 0;
    for (int b = 0; b < blocks; ++b) {
      txpool::TxPool pool;
      pool.add_all(gen.next_block());
      core::ProposerConfig cfg;
      cfg.threads = threads;
      core::BlockProposer proposer(cfg);
      const core::ProposedBlock blk = proposer.propose(
          genesis, ctx_for(static_cast<std::uint64_t>(b) + 1), pool, workers);
      hist.add(blk.stats.virtual_speedup());
      wall += blk.stats.wall_ms;
    }
    out.push_back({threads, wall / blocks, hist.average()});
  }
  return out;
}

void run(bool smoke) {
  // Measure the Fig. 6 curve first, before the microbench phases touch the
  // heap: the pre-change reference numbers were captured in a fresh process
  // running only the proposer, and this keeps the comparison like-for-like
  // (same 30-block protocol as bench_fig6_proposer).
  const std::vector<Fig6After> fig6 =
      smoke ? std::vector<Fig6After>{} : run_fig6(30);

  const std::size_t accounts = smoke ? 256 : 1024;
  const std::size_t slots_per = 4;
  const std::size_t versions = smoke ? 64 : 256;
  const std::size_t writes_per = 8;
  const std::size_t total_ops = smoke ? 400'000 : 1'600'000;

  Universe u = make_universe(accounts, slots_per, versions, writes_per);
  // Heavy-tailed key popularity, as in the paper's workload model.
  const ZipfSampler zipf(u.keys.size(), 0.99);
  SingleLockStore single(u.base);
  MvStore mv(u.base, static_cast<std::uint32_t>(versions),
             static_cast<std::uint32_t>(versions));
  commit_all(single, u);
  commit_all(mv, u);

  const std::vector<std::size_t> thread_counts =
      smoke ? std::vector<std::size_t>{1, 8}
            : std::vector<std::size_t>{1, 2, 4, 8, 16};

  std::printf("{\n");
  std::printf("  \"workload\": {\"accounts\": %zu, \"slots_per_account\": %zu, "
              "\"keys\": %zu, \"versions\": %zu, \"writes_per_version\": %zu, "
              "\"hardware_concurrency\": %u},\n",
              accounts, slots_per, u.keys.size(), versions, writes_per,
              std::thread::hardware_concurrency());

  // -- phase 1: snapshot-read throughput --------------------------------
  double single_at_8 = 0, mv_at_8 = 0;
  std::printf("  \"snapshot_read_throughput\": [\n");
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    const std::size_t t = thread_counts[i];
    const std::size_t ops = total_ops / t;
    const double mops_single = read_throughput(single, u, zipf, t, ops);
    const double mops_mv = read_throughput(mv, u, zipf, t, ops);
    if (t == 8) {
      single_at_8 = mops_single;
      mv_at_8 = mops_mv;
    }
    std::printf("    {\"threads\": %zu, \"single_lock_mops\": %.2f, "
                "\"mv_memory_mops\": %.2f, \"speedup\": %.2f}%s\n",
                t, mops_single, mops_mv, mops_mv / mops_single,
                i + 1 < thread_counts.size() ? "," : "");
  }
  std::printf("  ],\n");

  // -- phase 1b: executor hot-path op (read + validate) -----------------
  double hot_single_at_1 = 0, hot_mv_at_1 = 0;
  double hot_single_at_8 = 0, hot_mv_at_8 = 0;
  std::printf("  \"executor_hot_path\": [\n");
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    const std::size_t t = thread_counts[i];
    const std::size_t ops = total_ops / t;
    const double mops_single = hot_path_throughput(single, u, zipf, t, ops);
    const double mops_mv = hot_path_throughput(mv, u, zipf, t, ops);
    if (t == 1) {
      hot_single_at_1 = mops_single;
      hot_mv_at_1 = mops_mv;
    }
    if (t == 8) {
      hot_single_at_8 = mops_single;
      hot_mv_at_8 = mops_mv;
    }
    std::printf("    {\"threads\": %zu, \"single_lock_mops\": %.2f, "
                "\"mv_memory_mops\": %.2f, \"speedup\": %.2f}%s\n",
                t, mops_single, mops_mv, mops_mv / mops_single,
                i + 1 < thread_counts.size() ? "," : "");
  }
  std::printf("  ],\n");

  // -- phase 2: reserve-table validation scans --------------------------
  std::printf("  \"validation_scan\": [\n");
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    const std::size_t t = thread_counts[i];
    const std::size_t ops = total_ops / t;
    const double mops_single = validate_throughput(single, u, t, ops);
    const double mops_mv = validate_throughput(mv, u, t, ops);
    std::printf("    {\"threads\": %zu, \"single_lock_mops\": %.2f, "
                "\"mv_memory_mops\": %.2f, \"speedup\": %.2f}%s\n",
                t, mops_single, mops_mv, mops_mv / mops_single,
                i + 1 < thread_counts.size() ? "," : "");
  }
  std::printf("  ],\n");

  // -- phase 3: readers racing one continuously-active committer --------
  // The proposer's actual operating condition (the commit section is live
  // for the whole block), and the acceptance metric for this PR: aggregate
  // snapshot-read throughput at 8 executor threads, MvMemory vs single-lock.
  double mixed_single_at_8 = 0, mixed_mv_at_8 = 0;
  {
    Xoshiro256 rng(0x0DD5);
    std::vector<std::vector<std::pair<StateKey, U256>>> extra;
    for (std::size_t v = 0; v < 64u; ++v) {
      std::vector<std::pair<StateKey, U256>> ws;
      std::unordered_map<StateKey, bool> seen;
      while (ws.size() < writes_per) {
        const std::size_t i = rng.below(u.keys.size());
        if (!seen.try_emplace(u.keys[i], true).second) continue;
        ws.emplace_back(u.keys[i], U256{v + ws.size()});
      }
      extra.push_back(std::move(ws));
    }
    std::printf("  \"read_under_commit\": [\n");
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      const std::size_t t = thread_counts[i];
      const std::size_t ops = total_ops / t / 2;
      // Fresh stores per store-kind so chain lengths match across kinds.
      Universe u2 = make_universe(accounts, slots_per, versions, writes_per);
      SingleLockStore single2(u2.base);
      MvStore mv2(u2.base, static_cast<std::uint32_t>(versions + kExtraPositions),
                  static_cast<std::uint32_t>(versions));
      commit_all(single2, u2);
      commit_all(mv2, u2);
      const double mops_single =
          mixed_throughput(single2, u2, zipf, t, ops, extra);
      const double mops_mv =
          mixed_throughput(mv2, u2, zipf, t, ops, extra);
      if (t == 8) {
        mixed_single_at_8 = mops_single;
        mixed_mv_at_8 = mops_mv;
      }
      std::printf("    {\"threads\": %zu, \"single_lock_mops\": %.2f, "
                  "\"mv_memory_mops\": %.2f, \"speedup\": %.2f}%s\n",
                  t, mops_single, mops_mv, mops_mv / mops_single,
                  i + 1 < thread_counts.size() ? "," : "");
    }
    std::printf("  ],\n");
  }

  // -- phase 4: Fig. 6 proposer curve (measured up front) ---------------
  if (!smoke) {
    const std::vector<Fig6After>& after = fig6;
    std::printf("  \"fig6_proposer\": [\n");
    for (std::size_t i = 0; i < after.size(); ++i) {
      const Fig6Before& before = kFig6Before[i];
      std::printf("    {\"threads\": %zu, \"before_wall_ms_per_block\": %.1f, "
                  "\"after_wall_ms_per_block\": %.1f, "
                  "\"wall_speedup\": %.2f, \"avg_virtual_speedup\": %.2f}%s\n",
                  after[i].threads, before.wall_ms_per_block,
                  after[i].wall_ms_per_block,
                  before.wall_ms_per_block / after[i].wall_ms_per_block,
                  after[i].avg_speedup, i + 1 < after.size() ? "," : "");
    }
    std::printf("  ],\n");
  }

  // -- phase 5: differential gate ---------------------------------------
  std::string detail;
  const bool identical = run_differential(smoke, detail);
  std::printf("  \"differential\": {\"bit_identical\": %s, \"configs\": "
              "\"preset_mainnet seed=0xD1FF, 4 blocks x threads %s\", "
              "\"detail\": \"%s\"},\n",
              identical ? "true" : "false", smoke ? "{4}" : "{1,2,4,8,16}",
              detail.c_str());

  // -- phase 6: engine regime map (OCC-WSI vs Block-STM, 8 threads) ------
  const std::vector<RegimePoint> regime = run_regime_map(smoke);
  bool regime_exact = true;
  bool regime_nonzero = true;
  std::printf("  \"regime_map\": {\"threads\": 8, \"x\": "
              "\"largest_subgraph_ratio\", \"y\": \"virtual_speedup\", "
              "\"points\": [\n");
  for (std::size_t i = 0; i < regime.size(); ++i) {
    const RegimePoint& p = regime[i];
    regime_exact = regime_exact && p.occ_serializable && p.stm_exact;
    regime_nonzero =
        regime_nonzero && p.occ_speedup > 0.0 && p.stm_speedup > 0.0;
    std::printf("    {\"workload\": \"%s\", \"largest_subgraph_ratio\": %.3f, "
                "\"occ_wsi_speedup\": %.2f, \"block_stm_speedup\": %.2f, "
                "\"occ_aborts\": %llu, \"stm_aborts\": %llu, "
                "\"occ_serializable\": %s, "
                "\"stm_matches_serial_pop_order\": %s}%s\n",
                p.name.c_str(), p.subgraph_ratio, p.occ_speedup, p.stm_speedup,
                static_cast<unsigned long long>(p.occ_aborts),
                static_cast<unsigned long long>(p.stm_aborts),
                p.occ_serializable ? "true" : "false",
                p.stm_exact ? "true" : "false",
                i + 1 < regime.size() ? "," : "");
  }
  std::printf("  ]},\n");

  // Acceptance metrics.  The executor hot-path op (snapshot read + WSI
  // validation of that key) is what striping takes off the one global lock.
  // Note on thread counts: on a single-core host, >1 "threads" measures
  // time-sliced interference rather than parallel scaling (the shared_mutex
  // is never truly contended, which flatters the single-lock baseline); the
  // 1-thread figure is the clean per-op comparison there, and the 8-thread
  // gap widens on multi-core hardware where the single lock's cache-line
  // ping-pong dominates.
  std::printf("  \"acceptance\": {\"hot_path_speedup_at_1_thread\": %.2f, "
              "\"hot_path_speedup_at_8_threads\": %.2f, "
              "\"read_under_commit_speedup_at_8_threads\": %.2f, "
              "\"uncontended_read_speedup_at_8_threads\": %.2f, "
              "\"target\": 3.0, \"single_core_host\": %s}\n",
              hot_mv_at_1 / hot_single_at_1,
              hot_mv_at_8 / hot_single_at_8,
              mixed_mv_at_8 / mixed_single_at_8,
              mv_at_8 / single_at_8,
              std::thread::hardware_concurrency() <= 1 ? "true" : "false");
  std::printf("}\n");

  // Sentinels for the CI perf-smoke gate.
  if (!identical) {
    std::fprintf(stderr, "DIFFERENTIAL MISMATCH: %s\n", detail.c_str());
    std::exit(1);
  }
  if (regime.size() < 4 || !regime_exact || !regime_nonzero) {
    std::fprintf(stderr,
                 "REGIME-MAP GATE: points=%zu exact=%d nonzero=%d (need >=4 "
                 "points, every OCC block serializable, every Block-STM "
                 "block bit-identical to its serial pop-order oracle, "
                 "nonzero speedups)\n",
                 regime.size(), regime_exact ? 1 : 0, regime_nonzero ? 1 : 0);
    std::exit(1);
  }
  if (hot_mv_at_8 < hot_single_at_8 ||
      mixed_mv_at_8 < mixed_single_at_8 || mv_at_8 < single_at_8) {
    std::fprintf(stderr,
                 "PERF-SMOKE REGRESSION: MvMemory below single-lock at "
                 "8 threads (hot-path %.2f vs %.2f, under-commit %.2f vs "
                 "%.2f, uncontended %.2f vs %.2f Mops/s)\n",
                 hot_mv_at_8, hot_single_at_8, mixed_mv_at_8,
                 mixed_single_at_8, mv_at_8, single_at_8);
    std::exit(1);
  }
}

}  // namespace
}  // namespace blockpilot::bench

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--capture-differential") == 0) {
    blockpilot::bench::capture_differential();
    return 0;
  }
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  blockpilot::bench::run(smoke);
  return 0;
}

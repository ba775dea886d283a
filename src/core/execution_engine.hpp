// ExecutionEngine: the seam between "what a proposer produces" and "how the
// block gets executed".
//
// BlockPilot's proposer originally had one concurrency-control discipline
// baked in (OCC with Write-Snapshot-Isolation, paper §4.2).  This interface
// factors the discipline out: an engine consumes a pending pool and emits a
// ProposedBlock — transactions, profile, receipts, post state, stats —
// while everything around it (NodeDriver, ConsensusSim, the benches) talks
// only to the seam.  Two families ship behind it:
//
//  * OCC-WSI   (engine_occ_wsi.cpp)  — commit order decided at runtime by a
//    serialized validate-and-commit section; write-write conflicts commit.
//  * Block-STM (engine_blockstm.cpp) — PRESET order (pool pop order),
//    optimistic execution over a multi-version memory with estimate-based
//    dependencies and a collaborative scheduler; no serialized commit
//    section at all (docs/blockstm.md).
//
// Each family is ONE run of its algorithm with two clocks: a deterministic
// discrete-event simulation over virtual lanes (the figure-generating mode)
// and real-thread lanes on a ThreadPool (the thread-safety mode).  The
// clock only decides how lanes are driven; the algorithm's steps and the
// block tail (finish_block: post state, coinbase, header, seal) are shared.
// ScheduleMode picks the (family, clock) pair; make_execution_engine maps
// it to an engine.
#pragma once

#include <cstdint>
#include <memory>

#include "chain/block.hpp"
#include "chain/receipt.hpp"
#include "commit/commit_pipeline.hpp"
#include "core/engine_select.hpp"
#include "core/execution_result.hpp"
#include "evm/state_transition.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"
#include "txpool/txpool.hpp"
#include "vtime/vtime.hpp"

namespace blockpilot::core {

/// Which concurrency-control family realizes the proposal, and how.
enum class ScheduleMode : std::uint8_t {
  /// OCC-WSI as a discrete-event simulation of `threads` virtual workers:
  /// each worker has a virtual clock; transactions execute (real EVM
  /// execution) against the snapshot committed as of their virtual start
  /// time, and validate against commits that landed during their virtual
  /// execution window.  Deterministic and host-independent — identical OCC
  /// dynamics (aborts, commit order, lane loads) on a laptop or a 1-vCPU CI
  /// box.  This is the figure-generating mode (DESIGN.md §1).
  kVirtualTime = 0,
  /// OCC-WSI on real std::thread workers racing on the pool — genuine
  /// concurrency for thread-safety validation.  OCC dynamics depend on host
  /// scheduling (a single-core host degenerates to serial execution with no
  /// aborts).
  kHostThreads,
  /// Block-STM as a discrete-event simulation: virtual workers pull
  /// execution/validation tasks from the collaborative scheduler; task
  /// outcomes apply at virtual completion times.  Deterministic.
  kBlockStm,
  /// Block-STM on real threads hammering the scheduler and the
  /// multi-version memory concurrently (the `stm` TSan gate).  By
  /// Block-STM's determinism theorem the produced block is bit-identical
  /// to kBlockStm's; only the stats (aborts, makespan) vary with host
  /// scheduling.
  kBlockStmHost,
  /// Per-block engine selection between the two DES twins: propose with
  /// OCC-WSI (kVirtualTime) while the previous block's largest-subgraph
  /// ratio stays at or below ProposerConfig::adaptive_threshold, switch to
  /// Block-STM (kBlockStm) above it (core/engine_select.hpp).  The signal
  /// is a pure function of the chain content, so a seeded run picks the
  /// same engine at every height on every host.  ProposerStats::engine_used
  /// records the choice per block.
  kAdaptive,
};

constexpr bool is_block_stm(ScheduleMode mode) noexcept {
  return mode == ScheduleMode::kBlockStm || mode == ScheduleMode::kBlockStmHost;
}
constexpr bool is_host_threads(ScheduleMode mode) noexcept {
  return mode == ScheduleMode::kHostThreads ||
         mode == ScheduleMode::kBlockStmHost;
}

struct ProposerConfig {
  std::size_t threads = 4;
  ScheduleMode mode = ScheduleMode::kVirtualTime;
  std::uint64_t block_gas_limit = 30'000'000;
  /// Hard cap on included transactions (0 = unlimited): lets benchmarks
  /// propose fixed-size blocks.
  std::size_t max_txs = 0;
  /// Safety valve: a transaction that keeps coming back kNotReady is
  /// dropped after this many attempts.  Deferred transactions only re-enter
  /// the pool on commits (TxPool::progress), so retries are structurally
  /// bounded by committed-transaction count — a deep airdrop nonce chain
  /// can legitimately rack up hundreds of retries (one per unrelated
  /// commit), hence the generous default.  Only a transaction whose
  /// predecessor never arrives ultimately hits it.
  int max_not_ready_attempts = 100'000;
  vtime::CostModel costs;
  /// When set, header sealing (state root + receipts root) runs
  /// asynchronously on this pipeline: propose() returns a block whose
  /// state_root / receipts_root are zero until ProposedBlock::await_seal()
  /// fills them from the CommitHandle.  When null, sealing is inline
  /// (original behavior).
  commit::CommitPipeline* commit_pipeline = nullptr;
  /// CodeAnalysis cache the execution lanes resolve bytecode through
  /// (null = the process-wide evm::CodeAnalysisCache::global()).
  evm::CodeAnalysisCache* analysis_cache = nullptr;
  /// kAdaptive only: largest-subgraph ratio above which the next block is
  /// proposed with Block-STM instead of OCC-WSI (engine_select.hpp).
  double adaptive_threshold = kAdaptiveStmThreshold;
};

struct ProposerStats {
  std::uint64_t committed = 0;
  std::uint64_t aborts = 0;        // discarded speculative executions
  std::uint64_t not_ready = 0;     // nonce-gap deferrals
  std::uint64_t dropped = 0;       // invalid / stuck transactions
  std::uint64_t serial_gas = 0;    // sum of committed gas (serial baseline)
  std::uint64_t vtime_makespan = 0;
  double wall_ms = 0.0;
  /// Engine that actually produced the block: the configured mode for the
  /// fixed engines, the per-block pick (kVirtualTime or kBlockStm) for
  /// kAdaptive.
  ScheduleMode engine_used = ScheduleMode::kVirtualTime;
  /// Largest-subgraph ratio of the produced block's dependency graph —
  /// the adaptive signal for the NEXT block (0 when not computed; only the
  /// adaptive engine derives it).
  double largest_subgraph_ratio = 0.0;

  double virtual_speedup() const noexcept {
    return vtime::speedup(serial_gas, vtime_makespan);
  }
};

struct ProposedBlock {
  chain::Block block;
  chain::BlockProfile profile;
  std::vector<chain::Receipt> receipts;  // commit order (== block order)
  std::shared_ptr<state::WorldState> post_state;
  ProposerStats stats;

  /// Pending asynchronous seal (invalid handle when sealing was inline).
  commit::CommitHandle commit;

  /// Settles an asynchronous seal: blocks on the commit handle and fills
  /// header.state_root / header.receipts_root.  No-op when sealing was
  /// inline.  The block must not be broadcast before this returns.
  void await_seal();
};

/// One concurrency-control discipline's realization of block proposal.
/// The fixed engines are stateless between propose() calls: all proposal
/// state lives on the stack of one call, so a single engine may be reused
/// across blocks (and, for the virtual engines, across threads if calls
/// don't overlap).  The adaptive engine carries one double across calls —
/// the previous block's largest-subgraph ratio — so a driver keeps one
/// engine per proposing node.
class ExecutionEngine {
 public:
  explicit ExecutionEngine(ProposerConfig config) : config_(config) {}
  virtual ~ExecutionEngine() = default;

  /// Drains `pool` (up to the gas limit / tx cap) into a new block on top
  /// of `pre`.  `workers` is required (non-null, size >= config.threads) by
  /// the host-threads engines and ignored by the virtual-time ones.
  virtual ProposedBlock propose(const state::WorldState& pre,
                                const evm::BlockContext& block_ctx,
                                txpool::TxPool& pool,
                                ThreadPool* workers) = 0;

  const ProposerConfig& config() const noexcept { return config_; }

 protected:
  /// The block tail every engine shares.  `post` is the pre state with the
  /// run's versions flattened in; the coinbase is credited with the fee
  /// sum, the header filled from `block_ctx` and `gas_used`, the
  /// commitment (state root, receipts root) sealed inline or queued on
  /// config_.commit_pipeline, and `stats` completed (committed, serial gas,
  /// engine, wall time since `wall`) into result.stats.  Requires
  /// result.block's transactions and result.receipts to be in place.
  void finish_block(ProposedBlock& result,
                    std::shared_ptr<state::WorldState> post,
                    const evm::BlockContext& block_ctx, std::uint64_t gas_used,
                    const U256& fees, ProposerStats stats,
                    const Stopwatch& wall);

  ProposerConfig config_;
};

/// Maps config.mode to its engine.
std::unique_ptr<ExecutionEngine> make_execution_engine(
    const ProposerConfig& config);

namespace detail {
// Family factories (defined in the respective engine_*.cpp).
std::unique_ptr<ExecutionEngine> make_occ_wsi_engine(
    const ProposerConfig& config, bool host_threads);
std::unique_ptr<ExecutionEngine> make_blockstm_engine(
    const ProposerConfig& config, bool host_threads);
}  // namespace detail

}  // namespace blockpilot::core

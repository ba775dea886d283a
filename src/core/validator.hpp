// BlockValidator: scheduled deterministic parallel re-execution
// (paper §4.3 + Algorithm 2).
//
// Four phases per block:
//  * Preparation — build the dependency graph from the proposer's block
//    profile (account-level conflicts by default), split into subgraphs,
//    gas-weighted LPT assignment of subgraphs onto worker threads;
//  * Tx Execution — each worker executes its transactions serially (its
//    subgraphs are internally ordered by block position) over the parent
//    state plus its own accumulated writes; cross-thread reads cannot occur
//    because conflicting transactions share a thread by construction;
//  * Block Validation — the applier consumes results in strict block order,
//    verifies each transaction's observed read/write sets against the
//    profile (honest-proposer check, §4.4), applies writes + the serial
//    coinbase fee, and finally compares the world-state root with the
//    proposed header;
//  * Block Commitment — the caller commits the returned post state.
#pragma once

#include <memory>
#include <string>

#include "chain/block.hpp"
#include "chain/profile.hpp"
#include "commit/commit_pipeline.hpp"
#include "core/engine_select.hpp"
#include "core/execution_result.hpp"
#include "evm/state_transition.hpp"
#include "sched/depgraph.hpp"
#include "support/thread_pool.hpp"
#include "vtime/vtime.hpp"

namespace blockpilot::core {

/// Which replay discipline re-executes the block (docs/blockstm.md §8).
enum class ValidatorEngine : std::uint8_t {
  /// Subgraph-LPT scheduled replay — the paper's Algorithm 2, kept
  /// verbatim as the frozen oracle the Block-STM path is gated against.
  kSubgraphLpt = 0,
  /// Preset-order multi-version replay (Block-STM over MvMemory, driven by
  /// the collaborative scheduler), seeded from the block profile's
  /// broadcast write sets: each transaction's footprint is pre-populated
  /// as ESTIMATE markers, so first incarnations SUSPEND on their true
  /// dependencies instead of aborting.  With an honest profile the replay
  /// converges with zero aborts and zero validation waves.
  ///
  /// Like the proposer's kBlockStm mode this is the discrete-event twin:
  /// `threads` virtual workers driven by one real thread, so the virtual
  /// makespan is bit-reproducible and independent of host scheduling (a
  /// single-core host would otherwise collapse every replay onto the first
  /// worker the pool happens to wake).
  kBlockStm,
  /// Same algorithm on real pool threads (the thread-safety twin, mirror
  /// of the proposer's kBlockStmHost).  The produced verdict/roots are
  /// bit-identical to kBlockStm by Block-STM's determinism theorem; only
  /// the stats (suspensions, lane makespan) vary with host scheduling.
  kBlockStmHost,
  /// Per-block pick between kSubgraphLpt and kBlockStm from the profile's
  /// largest-subgraph ratio vs adaptive_threshold (engine_select.hpp).
  /// Stateless — the profile ships with the block, so the signal is
  /// available in the Preparation phase and concurrent sibling
  /// validations stay race-free.
  kAdaptive,
};

struct ValidatorConfig {
  std::size_t threads = 4;
  sched::Granularity granularity = sched::Granularity::kAccount;
  vtime::CostModel costs;
  /// Replay discipline (see ValidatorEngine).  Both engines accept exactly
  /// the blocks whose serial preset-order execution matches the profile
  /// and the header — the engine-differential matrix gates that verdicts,
  /// roots, gas and receipts are bit-identical.
  ValidatorEngine engine = ValidatorEngine::kSubgraphLpt;
  /// kAdaptive only: largest-subgraph ratio above which the block is
  /// replayed with Block-STM instead of subgraph-LPT.
  double adaptive_threshold = kAdaptiveStmThreshold;
  /// Test knob: when set, Block-STM ESTIMATE pre-seeding reads its write
  /// sets from this profile instead of the validated one.  Seeds are
  /// strictly a scheduling hint — a stale seed set degrades to extra
  /// suspensions/validation waves, never to a wrong result — and the
  /// seeding tests gate exactly that by validating honest blocks with
  /// deliberately stale seeds.  Null = seed from the block's own profile.
  const chain::BlockProfile* stm_seed_override = nullptr;
  /// Warm the state cache from the block profile's key sets before
  /// execution (the geth prefetching technique the paper's evaluation
  /// enables, §5.4).  When false, every first-touch read charges
  /// costs.io_read_cost on its worker's virtual clock.
  bool prefetch = true;
  /// When set, the Block Commitment phase (state-root computation + header
  /// comparison) runs asynchronously on this pipeline: validate() returns a
  /// provisionally-valid outcome carrying a CommitHandle, and the root check
  /// happens in ValidationOutcome::await_commit().  When null, the root is
  /// checked inline (original behavior).
  commit::CommitPipeline* commit_pipeline = nullptr;
  /// CodeAnalysis cache the workers' interpreters resolve bytecode through
  /// (null = the process-wide evm::CodeAnalysisCache::global()).  Tests and
  /// benches point this at a private cache to isolate hit-rate accounting.
  evm::CodeAnalysisCache* analysis_cache = nullptr;
};

struct ValidatorStats {
  std::uint64_t serial_gas = 0;      // geth-equivalent serial cost
  std::uint64_t vtime_makespan = 0;  // max(worker lanes, applier chain)
  double wall_ms = 0.0;
  std::size_t subgraphs = 0;
  double largest_subgraph_ratio = 0.0;
  std::uint64_t critical_path_gas = 0;
  /// Engine that actually replayed the block (kAdaptive resolves to one of
  /// the fixed engines per block).
  ValidatorEngine engine_used = ValidatorEngine::kSubgraphLpt;
  /// Block-STM replay dynamics (untouched by the subgraph-LPT path).
  /// With an honest profile the pre-seeded estimates keep aborts and
  /// validation waves at zero (suspensions track the block's real
  /// dependencies); stale seeds show up in these counters, never in the
  /// verdict.
  std::uint64_t stm_aborts = 0;
  std::uint64_t stm_suspensions = 0;
  std::uint64_t stm_validation_waves = 0;

  double virtual_speedup() const noexcept {
    return vtime::speedup(serial_gas, vtime_makespan);
  }
};

struct ValidationOutcome {
  bool valid = false;
  std::string reject_reason;  // empty when valid
  BlockExecution exec;        // meaningful when valid
  ValidatorStats stats;

  /// Pending asynchronous Block Commitment (invalid handle when the root
  /// was checked inline).  While the handle is pending, `valid` reflects
  /// execution-level validity only.
  commit::CommitHandle commit;
  Hash256 expected_state_root;  // header root to compare against

  /// Settles the asynchronous root check: blocks on the commit handle,
  /// fills exec.state_root, and downgrades `valid` on mismatch.  Idempotent;
  /// a no-op for inline-committed outcomes.  Returns the final validity.
  bool await_commit();
};

class BlockValidator {
 public:
  explicit BlockValidator(ValidatorConfig config) : config_(config) {}

  /// Re-executes `block` on top of `pre` and checks it against `profile`
  /// and the block header's state root.
  ValidationOutcome validate(const state::WorldState& pre,
                             const chain::Block& block,
                             const chain::BlockProfile& profile,
                             ThreadPool& workers);

  const ValidatorConfig& config() const noexcept { return config_; }

 private:
  ValidatorConfig config_;
};

}  // namespace blockpilot::core

// ValidatorPipeline: multi-block processing (paper §4.3 Fig. 5, §5.6).
//
// Validators in a Byzantine network receive several blocks per height
// (forks / uncles) and must validate all of them.  The pipeline overlaps
// their four phases:
//  * blocks at the SAME height share the parent state and execute fully
//    concurrently on one worker pool ("free workers will execute
//    transactions regardless of the block information");
//  * a block at height h+1 must wait for its parent's block-validation
//    phase before its own validation can complete (the world state it
//    builds on has to be final).
//
// Timing model (DESIGN.md §1/§4): the subgraphs of all in-flight blocks are
// list-scheduled onto `threads` virtual workers; a worker that executes
// consecutive jobs from *different* blocks pays block_switch_cost (§5.6:
// "workers shift between different contexts to handle distinct blocks and
// send out relevant information") — this contention term is what caps and
// then slightly degrades throughput past ~4 concurrent blocks with 16
// workers, reproducing Fig. 9's shape.  Real execution runs concurrently on
// the actual pool for correctness; the virtual makespan is derived from the
// measured per-block schedules.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/validator.hpp"

namespace blockpilot::core {

struct BlockBundle {
  chain::Block block;
  chain::BlockProfile profile;
};

struct PipelineStats {
  std::uint64_t serial_gas = 0;      // Σ gas over all processed blocks
  std::uint64_t vtime_makespan = 0;  // pipeline virtual completion time
  double wall_ms = 0.0;
  std::size_t blocks = 0;
  std::uint64_t async_commits = 0;   // outcomes settled via CommitHandle
  double commit_wait_ms = 0.0;       // wall time blocked awaiting roots

  double virtual_speedup() const noexcept {
    return vtime::speedup(serial_gas, vtime_makespan);
  }
};

struct PipelineResult {
  std::vector<ValidationOutcome> outcomes;  // one per block, input order
  PipelineStats stats;

  bool all_valid() const noexcept {
    for (const auto& o : outcomes)
      if (!o.valid) return false;
    return !outcomes.empty();
  }
};

class ValidatorPipeline {
 public:
  /// `config.threads` is the pipeline's worker count (a lone block gets all
  /// of them; concurrent siblings run one lane each); the other fields
  /// reach every BlockValidator unchanged.  With a commit pipeline, roots
  /// are computed asynchronously: process_height() settles them before
  /// returning, ChainSession overlaps them with the next height.
  explicit ValidatorPipeline(ValidatorConfig config) : config_(config) {}

  /// Validates sibling blocks (all at the same height, all children of
  /// `pre`) concurrently.  This is the Fig. 9 experiment surface.
  PipelineResult process_height(const state::WorldState& pre,
                                std::span<const BlockBundle> siblings,
                                ThreadPool& workers);

  /// Speculative variant of process_height(): returns as soon as execution
  /// finishes, leaving each outcome's asynchronous root check pending on its
  /// CommitHandle.  `valid` then reflects execution-level validity only —
  /// callers may vote on and build on the speculative tip, but must settle
  /// every outcome (ValidationOutcome::await_commit()) before treating it
  /// as final.  Behaves exactly like process_height() when no commit
  /// pipeline is configured (roots are then checked inline).
  PipelineResult process_height_speculative(
      const state::WorldState& pre, std::span<const BlockBundle> siblings,
      ThreadPool& workers);

 private:
  ValidatorConfig config_;
};

/// ChainSession: height-granular chain validation for an event-driven node.
///
/// A live node receives one height's siblings at a time, votes, keeps
/// executing ahead while commitments are still in flight, and must be able
/// to *revoke* a speculative suffix when a settlement fails.  ChainSession
/// is that incremental surface (and the only chain-validation path):
///
///   push_height()  speculatively validates the next height's siblings on
///                  the current tip (roots pending on the commit pipeline);
///   choose()       overrides the canonical sibling (the node's vote);
///   settle_next()  awaits the oldest unsettled height's roots and reports
///                  whether its canonical block survived;
///   fork_choice()  after a failed settlement, picks the survivor with the
///                  smallest block hash among siblings whose settled root
///                  matched their own header;
///   adopt_fork()   re-roots the chain on that survivor and truncates every
///                  height built on the revoked block, invoking the
///                  revocation callback per dropped height so the node can
///                  retract votes and re-propose.
///
/// Speculation safety: heights build on the first execution-valid sibling
/// (or the explicitly chosen one) before its root is known, which is
/// exactly the paper's §5.2 overlap of commitment with the next block's
/// execution.  Heights serialize in virtual time (a child's validation
/// needs its parent's final state).
class ChainSession {
 public:
  /// Invoked by adopt_fork() once per truncated height index (ascending),
  /// before the records are dropped.
  using RevokeFn = std::function<void(std::size_t height)>;

  ChainSession(ValidatorConfig config, const state::WorldState& genesis)
      : pipeline_(config),
        base_(std::make_shared<state::WorldState>(genesis)) {}

  void set_revocation_callback(RevokeFn fn) { on_revoke_ = std::move(fn); }

  /// Validates the next height's siblings on the current tip; returns the
  /// default canonical sibling (first execution-valid, SIZE_MAX when none).
  /// With an async commit pipeline the outcomes' root checks stay pending.
  std::size_t push_height(std::span<const BlockBundle> siblings,
                          ThreadPool& workers);

  /// Overrides the canonical sibling of an unsettled height (the node's
  /// vote).  The next push_height() builds on this sibling's post state.
  void choose(std::size_t height, std::size_t sibling);

  /// Records that the height's vote reached its consensus quorum — the
  /// network layer's promise that settling it cannot produce a second
  /// settled root at this height.  A height may sit here with partial
  /// votes indefinitely: its speculative commitments stay pending on the
  /// commit pipeline without blocking deeper pushes; only settlement is
  /// gated on the flag (by the caller — see the consensus loop).
  void mark_quorum(std::size_t height);
  bool has_quorum(std::size_t height) const;

  /// Awaits every sibling root of the oldest unsettled height; returns
  /// whether the canonical sibling settled clean.  On false, the caller
  /// runs fork_choice()/adopt_fork() (or abandons the chain).
  ///
  /// Asserts when nothing is unsettled: a caller whose votes were lost by
  /// the network must check can_settle() (or unsettled_count()) instead of
  /// blocking here — quorum loss parks the height, it must not deadlock or
  /// double-settle the session.
  bool settle_next();

  /// True when an unsettled height exists (settle_next() is callable).
  bool can_settle() const noexcept { return settled_ < heights_.size(); }
  std::size_t unsettled_count() const noexcept {
    return heights_.size() - settled_;
  }

  /// Drops every *unsettled* height record from `from_height` on (the
  /// revocation callback fires per dropped height, ascending) and rewinds
  /// the tip to the last surviving height.  This is the quorum-miss
  /// re-proposal path: a height whose votes never formed a quorum is
  /// discarded — outcomes with pending CommitHandles are simply dropped;
  /// the CommitPipeline publishes abandoned submissions on its own and its
  /// destructor drains them, so lost votes cannot wedge the pipeline.
  /// `from_height` must not cut into settled heights.
  void drop_unsettled(std::size_t from_height);

  /// Survivor with the smallest block hash among this settled height's
  /// siblings whose root matched their own header; SIZE_MAX when none.
  std::size_t fork_choice(std::size_t height) const;

  /// Re-roots the chain on `sibling` at `height` and truncates every height
  /// above it (revocation callback fires per dropped height).  The next
  /// push_height() resumes from the survivor's post state.
  void adopt_fork(std::size_t height, std::size_t sibling);

  /// Marks every outcome from `height` on invalid ("parent block failed
  /// commitment") — the no-survivor terminal path.
  void cascade_from(std::size_t height);

  std::size_t height_count() const noexcept { return heights_.size(); }
  std::size_t settled_count() const noexcept { return settled_; }

  /// Post state of the deepest canonical block (the speculative tip);
  /// genesis before any push.
  const state::WorldState& tip() const;

  std::size_t sibling_count(std::size_t height) const {
    return heights_[height].outcomes.size();
  }
  std::size_t canonical(std::size_t height) const {
    return heights_[height].canonical;
  }
  ValidationOutcome& outcome(std::size_t height, std::size_t sibling) {
    return heights_[height].outcomes[sibling];
  }
  const ValidationOutcome& outcome(std::size_t height,
                                   std::size_t sibling) const {
    return heights_[height].outcomes[sibling];
  }
  const Hash256& block_hash(std::size_t height, std::size_t sibling) const {
    return heights_[height].block_hashes[sibling];
  }

  /// Accumulated pipeline stats over every push/settle so far.
  const PipelineStats& stats() const noexcept { return stats_; }

 private:
  struct HeightRecord {
    std::vector<ValidationOutcome> outcomes;
    std::vector<Hash256> block_hashes;
    std::size_t canonical = SIZE_MAX;
    bool settled = false;
    bool ok = false;      // canonical survived settlement
    bool quorum = false;  // consensus quorum recorded for this height
  };

  ValidatorPipeline pipeline_;
  std::shared_ptr<const state::WorldState> base_;
  std::vector<HeightRecord> heights_;
  std::size_t settled_ = 0;
  PipelineStats stats_;
  RevokeFn on_revoke_;
};

/// Virtual-time list-scheduling model for one pipeline round: `jobs` are
/// subgraph costs tagged by owning block, scheduled heaviest-first onto
/// `workers` virtual workers with a context-switch charge when a worker's
/// consecutive jobs belong to different blocks.  Returns the execution
/// makespan.  Exposed for unit tests and ablation benches.
struct PipelineJob {
  std::size_t block_index = 0;
  std::uint64_t cost = 0;
};
std::uint64_t simulate_shared_workers(std::vector<PipelineJob> jobs,
                                      std::size_t workers,
                                      std::uint64_t switch_cost);

}  // namespace blockpilot::core

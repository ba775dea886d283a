// CommitPipeline: state commitment off the critical path.
//
// BlockPilot's proposer and validator agree on a block when their post-state
// MPT roots match (paper §5.2), but computing that root is pure hashing —
// it reads the post state and touches nothing the *next* block's execution
// needs.  This subsystem moves root computation onto the shared thread pool
// and hands back a future-style CommitHandle, so the core pipeline overlaps
// block N's commitment with block N+1's execution and compares roots only
// where the handle is awaited.
//
// Ordering: submissions complete in FIFO order (one pool task at a time
// runs the queued commitments in submission order), so block N's root is
// always ready no later than block N+1's — the chain layer relies on this
// when it settles a round speculatively.
//
// Layering: bp_commit sits on bp_state/bp_support only.  Roots that need
// higher layers (the receipts root lives in bp_chain) are injected as an
// AuxRootFn closure, keeping the dependency arrow pointing downward.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "state/state_key.hpp"
#include "state/world_state.hpp"
#include "support/thread_pool.hpp"
#include "types/address.hpp"

namespace blockpilot::commit {

/// Extra root computed alongside the state root (e.g. the receipts root),
/// injected by the caller so this module stays below bp_chain.
using AuxRootFn = std::function<Hash256()>;

/// Settlement notification: invoked exactly once per submission, right after
/// the commitment's result publishes (in FIFO order).  Runs on the committing
/// pool thread in async mode and inline at submit time in degraded mode, so
/// the callback must be cheap and must not block on the pipeline itself.
struct CommitResult;
using SettleFn = std::function<void(const CommitResult&)>;

/// Result of one asynchronous commitment.
struct CommitResult {
  Hash256 state_root;
  Hash256 aux_root;  // zero when no AuxRootFn was supplied
  std::shared_ptr<const state::WorldState> post_state;
  double commit_ms = 0.0;   // time spent hashing (excludes queue wait)
  std::uint64_t sequence = 0;  // FIFO position within the pipeline
  std::size_t nodes_appended = 0;  // dirty nodes written to the node store
  double persist_ms = 0.0;         // time spent appending (0 with no store)
  // The state root's share of commit_ms, split (CommitStats): storage
  // folds and account encodings, then the account trie.  Both 0 when the
  // state's root was already memoized.
  double storage_fold_ms = 0.0;
  double account_hash_ms = 0.0;
};

class CommitPipeline;

/// Future-style handle to a pending commitment.  Copyable (shared-future
/// semantics); a default-constructed handle is invalid and means "no async
/// commitment was requested".
class CommitHandle {
 public:
  CommitHandle() = default;

  /// True when this handle refers to a submitted commitment.
  bool valid() const noexcept { return future_.valid(); }

  /// True when the result is available without blocking.
  bool ready() const {
    return valid() && future_.wait_for(std::chrono::seconds(0)) ==
                          std::future_status::ready;
  }

  /// Blocks until the result is available and returns it.
  const CommitResult& get() const { return future_.get(); }

  void wait() const { future_.wait(); }

 private:
  friend class CommitPipeline;
  explicit CommitHandle(std::shared_future<CommitResult> f)
      : future_(std::move(f)) {}

  std::shared_future<CommitResult> future_;
};

/// Aggregate pipeline counters (bench/test hooks).
struct CommitPipelineStats {
  std::uint64_t submitted = 0;
  std::uint64_t inline_runs = 0;  // executed synchronously (no pool)
  std::uint64_t settled = 0;      // results published (== callbacks fired)
  std::size_t max_pending = 0;    // high-water mark of in-flight commitments
  double total_commit_ms = 0.0;   // sum of CommitResult::commit_ms
};

class CommitPipeline {
 public:
  /// With a pool, commitments run asynchronously on it, and each one's
  /// hashing and persisting fan out across the pool's lanes too (see
  /// WorldState::state_root); with nullptr they run inline at submit time,
  /// serially (useful for tests and as a degraded mode).
  explicit CommitPipeline(ThreadPool* pool = nullptr) : pool_(pool) {}

  /// Drains before dying: in-flight tasks reference the pipeline's mutex,
  /// counters, and condition variable, so destruction must wait for every
  /// submitted commitment — including abandoned ones whose handles were
  /// dropped by a revoked speculative suffix — to publish.
  ~CommitPipeline() { drain(); }

  CommitPipeline(const CommitPipeline&) = delete;
  CommitPipeline& operator=(const CommitPipeline&) = delete;

  /// Queues the commitment of `post`.  The state must not be mutated after
  /// submission (the pipeline hashes it concurrently) — callers hand over a
  /// sealed post-state snapshot.  `on_settled`, when provided, fires once the
  /// result publishes (see SettleFn): a push-style settlement notification
  /// for callers that would otherwise poll CommitHandle::ready().
  CommitHandle submit(std::shared_ptr<const state::WorldState> post,
                      AuxRootFn aux = {}, SettleFn on_settled = {});

  /// Synchronous commitment of a state (the work one task performs).  With
  /// a store, the state's dirty trie nodes are appended right after the
  /// root is known — the batch rides the commit future, off the proposer's
  /// sealing path.  With `lanes`, root and persist run across its lanes,
  /// the calling thread included.
  static CommitResult compute(std::shared_ptr<const state::WorldState> post,
                              const AuxRootFn& aux, std::uint64_t sequence,
                              db::NodeStore* store = nullptr,
                              ThreadPool* lanes = nullptr);

  /// Attaches a node store: every subsequent commitment persists its post
  /// state's new trie nodes as part of the committing task (durability —
  /// the commit_root barrier — stays with the chain layer at finalization).
  /// `store` must outlive the pipeline; nullptr detaches.  Set it before
  /// the first submit — installation is not synchronized against in-flight
  /// tasks.
  void set_node_store(db::NodeStore* store);

  CommitPipelineStats stats() const;

  bool async() const noexcept { return pool_ != nullptr; }

  /// Commitments submitted but not yet published.  Always 0 in inline mode.
  std::size_t pending() const;

  /// Speculation-depth backpressure: blocks the caller until at most
  /// `max_pending` commitments are in flight.  A node that may run only
  /// `depth` unsettled heights ahead parks here instead of spinning on
  /// await(); returns immediately in inline mode (nothing ever pends).
  void wait_pending_at_most(std::size_t max_pending) const;

  /// Blocks until every submitted commitment has published.
  void drain() const { wait_pending_at_most(0); }

 private:
  // One queued commitment.
  struct Job {
    std::promise<CommitResult> promise;
    std::shared_ptr<const state::WorldState> post;
    AuxRootFn aux;
    SettleFn on_settled;
    std::uint64_t seq = 0;
    db::NodeStore* store = nullptr;
  };

  /// Runs queued jobs in order until none is left (one pool task).
  void drain_jobs();

  ThreadPool* pool_;
  mutable std::mutex mu_;
  mutable std::condition_variable settled_cv_;
  std::deque<Job> jobs_;    // submitted, not yet started; guarded by mu_
  bool draining_ = false;   // a drain_jobs() task is queued or running
  std::uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;
  CommitPipelineStats stats_;
  db::NodeStore* node_store_ = nullptr;  // snapshot taken per submit under mu_
};

}  // namespace blockpilot::commit

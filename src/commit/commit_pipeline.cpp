#include "commit/commit_pipeline.hpp"

#include "support/assert.hpp"
#include "support/stopwatch.hpp"

namespace blockpilot::commit {

CommitResult CommitPipeline::compute(
    std::shared_ptr<const state::WorldState> post, const AuxRootFn& aux,
    std::uint64_t sequence, db::NodeStore* store) {
  BP_ASSERT_MSG(post != nullptr, "commit of null state");
  Stopwatch sw;
  CommitResult out;
  out.sequence = sequence;
  out.state_root = post->state_root();
  if (aux) out.aux_root = aux();
  out.commit_ms = sw.elapsed_ms();
  if (store != nullptr) {
    Stopwatch psw;
    out.nodes_appended = post->persist_commitment(*store);
    out.persist_ms = psw.elapsed_ms();
  }
  out.post_state = std::move(post);
  return out;
}

void CommitPipeline::set_node_store(db::NodeStore* store) {
  std::scoped_lock lk(mu_);
  node_store_ = store;
}

CommitHandle CommitPipeline::submit(
    std::shared_ptr<const state::WorldState> post, AuxRootFn aux,
    SettleFn on_settled) {
  std::unique_lock lk(mu_);
  const std::uint64_t seq = next_seq_++;
  ++stats_.submitted;
  db::NodeStore* store = node_store_;

  if (pool_ == nullptr) {
    // Degraded/sync mode: do the work at submit time.  The settlement
    // notification fires inline, before submit() returns — nothing pends.
    std::promise<CommitResult> p;
    CommitResult r = compute(std::move(post), aux, seq, store);
    stats_.total_commit_ms += r.commit_ms;
    ++stats_.inline_runs;
    ++stats_.settled;
    p.set_value(std::move(r));
    auto fut = p.get_future().share();
    tail_ = fut;
    lk.unlock();
    if (on_settled) on_settled(fut.get());
    return CommitHandle(fut);
  }

  // ThreadPool::Task is a copyable std::function, so the move-only promise
  // rides in a shared_ptr.
  auto promise = std::make_shared<std::promise<CommitResult>>();
  auto fut = promise->get_future().share();
  std::shared_future<CommitResult> prev = tail_;
  tail_ = fut;
  ++pending_;
  stats_.max_pending = std::max(stats_.max_pending, pending_);
  pool_->submit([this, promise, prev, fut, post = std::move(post),
                 aux = std::move(aux), on_settled = std::move(on_settled), seq,
                 store]() mutable {
    // FIFO publication: never resolve before the predecessor.  The pool's
    // queue is FIFO too, so by the time this task runs its predecessor has
    // at least started — waiting here cannot starve the pool.
    if (prev.valid()) prev.wait();
    CommitResult r = compute(std::move(post), aux, seq, store);
    const double commit_ms = r.commit_ms;
    // The callback fires BEFORE the promise resolves: the successor task is
    // parked in prev.wait() until set_value below, so settlement
    // notifications are strictly FIFO across submissions — resolving first
    // would let the successor's callback race (and overtake) ours.  It
    // also fires before this task releases its pending slot, so drain() —
    // and the destructor, which drains — implies every notification has
    // finished.  The task must not touch the pipeline after the decrement
    // below: a drained pipeline may already be destroyed.  (Callbacks may
    // submit follow-ups, but must not block on this pipeline's own
    // backpressure, nor wait on their own handle.)
    if (on_settled) on_settled(r);
    promise->set_value(std::move(r));
    {
      std::scoped_lock lk(mu_);
      stats_.total_commit_ms += commit_ms;
      ++stats_.settled;
      --pending_;
      // Notify UNDER the lock: a drain()er woken by this broadcast cannot
      // re-acquire mu_ (and thus cannot return and destroy the pipeline)
      // until this task has fully left the condition variable and released
      // the mutex — the unlock below is the task's last touch of `this`.
      settled_cv_.notify_all();
    }
  });
  return CommitHandle(fut);
}

CommitPipelineStats CommitPipeline::stats() const {
  std::scoped_lock lk(mu_);
  return stats_;
}

std::size_t CommitPipeline::pending() const {
  std::scoped_lock lk(mu_);
  return pending_;
}

void CommitPipeline::wait_pending_at_most(std::size_t max_pending) const {
  std::unique_lock lk(mu_);
  settled_cv_.wait(lk, [&] { return pending_ <= max_pending; });
}

}  // namespace blockpilot::commit

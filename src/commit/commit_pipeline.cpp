#include "commit/commit_pipeline.hpp"

#include "support/assert.hpp"
#include "support/stopwatch.hpp"

namespace blockpilot::commit {

CommitResult CommitPipeline::compute(
    std::shared_ptr<const state::WorldState> post, const AuxRootFn& aux,
    std::uint64_t sequence, db::NodeStore* store, ThreadPool* lanes) {
  BP_ASSERT_MSG(post != nullptr, "commit of null state");
  Stopwatch sw;
  CommitResult out;
  out.sequence = sequence;
  const state::CommitStats before = post->commit_stats();
  // With lanes, the aux root hashes as a lane beside the state root.
  for_each_lane(lanes, aux ? 2 : 1, [&](std::size_t part) {
    if (part == 0) {
      out.state_root = post->state_root(lanes);
    } else {
      out.aux_root = aux();
    }
  });
  const state::CommitStats after = post->commit_stats();
  out.storage_fold_ms = after.storage_fold_ms - before.storage_fold_ms;
  out.account_hash_ms = after.account_hash_ms - before.account_hash_ms;
  out.commit_ms = sw.elapsed_ms();
  if (store != nullptr) {
    Stopwatch psw;
    out.nodes_appended = post->persist_commitment(*store, lanes);
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
    lk.unlock();
    if (on_settled) on_settled(fut.get());
    return CommitHandle(fut);
  }

  // One drain task at a time runs the queued jobs in order, so a job never
  // waits on its predecessor on a pool worker: a parked successor would
  // hold a worker its predecessor's lanes could use.
  Job job{std::promise<CommitResult>{}, std::move(post), std::move(aux),
          std::move(on_settled), seq, store};
  auto fut = job.promise.get_future().share();
  jobs_.push_back(std::move(job));
  ++pending_;
  stats_.max_pending = std::max(stats_.max_pending, pending_);
  if (!draining_) {
    draining_ = true;
    pool_->submit([this] { drain_jobs(); });
  }
  return CommitHandle(fut);
}

void CommitPipeline::drain_jobs() {
  std::unique_lock lk(mu_);
  for (;;) {
    Job job = std::move(jobs_.front());
    jobs_.pop_front();
    lk.unlock();
    CommitResult r =
        compute(std::move(job.post), job.aux, job.seq, job.store, pool_);
    const double commit_ms = r.commit_ms;
    // The callback fires BEFORE the promise resolves, and both before the
    // next job starts, so settlement notifications are strictly FIFO and
    // a waiter woken by the future sees its callback done.  It also fires
    // before this job releases its pending slot, so drain() — and the
    // destructor, which drains — implies every notification has finished.
    // (Callbacks may submit follow-ups, which this loop picks up, but must
    // not block on this pipeline's own backpressure, nor wait on their own
    // handle.)
    if (job.on_settled) job.on_settled(r);
    job.promise.set_value(std::move(r));
    lk.lock();
    stats_.total_commit_ms += commit_ms;
    ++stats_.settled;
    --pending_;
    // Notify and leave UNDER the lock: a drain()er woken by this broadcast
    // cannot re-acquire mu_ (and thus cannot return and destroy the
    // pipeline) until this task has left the condition variable and
    // released the mutex — the unlock on return is the task's last touch
    // of `this`.
    settled_cv_.notify_all();
    if (jobs_.empty()) {
      draining_ = false;
      return;
    }
  }
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

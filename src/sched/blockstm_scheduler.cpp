#include "sched/blockstm_scheduler.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace blockpilot::sched {

BlockStmScheduler::BlockStmScheduler(std::size_t num_txns)
    : n_(num_txns), txns_(std::make_unique<TxnState[]>(num_txns)) {}

bool BlockStmScheduler::done() const noexcept {
  // Safe for idle workers: a worker holding a task keeps num_active_tasks_
  // nonzero, so the task holder itself never observes a premature "done"
  // and drives any remaining work to completion (see scheduler file
  // comment).  Other workers exiting on the narrow claim-race window only
  // shed tail parallelism.
  return num_active_tasks_.load(std::memory_order_seq_cst) == 0 &&
         execution_idx_.load(std::memory_order_seq_cst) >= n_ &&
         validation_idx_.load(std::memory_order_seq_cst) >= n_;
}

void BlockStmScheduler::decrease_execution_idx(std::uint32_t to) {
  std::uint32_t cur = execution_idx_.load(std::memory_order_seq_cst);
  while (cur > to &&
         !execution_idx_.compare_exchange_weak(cur, to,
                                               std::memory_order_seq_cst)) {
  }
}

void BlockStmScheduler::decrease_validation_idx(std::uint32_t to) {
  std::uint32_t cur = validation_idx_.load(std::memory_order_seq_cst);
  while (cur > to &&
         !validation_idx_.compare_exchange_weak(cur, to,
                                                std::memory_order_seq_cst)) {
  }
  // Loop exit with cur > to means our CAS performed the lowering (cur holds
  // the value we swapped out); cur <= to means someone else got there first.
  if (cur > to) validation_waves_.fetch_add(1, std::memory_order_relaxed);
}

BlockStmScheduler::Task BlockStmScheduler::try_incarnate(std::uint32_t txn) {
  TxnState& t = txns_[txn];
  std::scoped_lock lk(t.mu);
  if (t.status == Status::kReady) {
    t.status = Status::kExecuting;
    return {Task::Kind::kExecute, txn, t.incarnation};
  }
  return {};
}

BlockStmScheduler::Task BlockStmScheduler::next_task() {
  num_active_tasks_.fetch_add(1, std::memory_order_seq_cst);
  // Prefer validation whenever it trails execution: catching
  // mis-speculation early keeps the abort cascade short (paper Alg. 3).
  if (validation_idx_.load(std::memory_order_seq_cst) <
      execution_idx_.load(std::memory_order_seq_cst)) {
    const std::uint32_t idx =
        validation_idx_.fetch_add(1, std::memory_order_seq_cst);
    if (idx < n_) {
      TxnState& t = txns_[idx];
      std::scoped_lock lk(t.mu);
      if (t.status == Status::kExecuted)
        return {Task::Kind::kValidate, idx, t.incarnation};
      // Not validatable right now; a later finish_execution re-lowers the
      // counter when this transaction becomes EXECUTED.
    }
  } else if (execution_idx_.load(std::memory_order_seq_cst) < n_) {
    const std::uint32_t idx =
        execution_idx_.fetch_add(1, std::memory_order_seq_cst);
    if (idx < n_) {
      Task task = try_incarnate(idx);
      if (task) return task;
    }
  }
  num_active_tasks_.fetch_sub(1, std::memory_order_seq_cst);
  return {};
}

BlockStmScheduler::Task BlockStmScheduler::finish_execution(
    std::uint32_t txn, std::uint32_t incarnation, bool wrote_new_location) {
  std::vector<std::uint32_t> resumed;
  {
    TxnState& t = txns_[txn];
    std::scoped_lock lk(t.mu);
    BP_ASSERT(t.status == Status::kExecuting);
    BP_ASSERT(t.incarnation == incarnation);
    t.status = Status::kExecuted;
    resumed.swap(t.dependents);
  }
  if (!resumed.empty()) {
    std::uint32_t min_resumed = resumed.front();
    for (const std::uint32_t dep : resumed) {
      TxnState& d = txns_[dep];
      std::scoped_lock lk(d.mu);
      BP_ASSERT(d.status == Status::kSuspended);
      d.status = Status::kReady;
      min_resumed = std::min(min_resumed, dep);
    }
    decrease_execution_idx(min_resumed);
  }
  if (validation_idx_.load(std::memory_order_seq_cst) > txn) {
    if (wrote_new_location) {
      // New write path: higher transactions that already validated may
      // have missed it — re-cover from here (the validation wave).
      decrease_validation_idx(txn);
    } else {
      // Same write set as the previous incarnation: only this
      // transaction's own reads need rechecking.  Task stays in flight.
      return {Task::Kind::kValidate, txn, incarnation};
    }
  }
  num_active_tasks_.fetch_sub(1, std::memory_order_seq_cst);
  return {};
}

bool BlockStmScheduler::try_validation_abort(std::uint32_t txn,
                                             std::uint32_t incarnation) {
  TxnState& t = txns_[txn];
  std::scoped_lock lk(t.mu);
  if (t.status == Status::kExecuted && t.incarnation == incarnation) {
    t.status = Status::kAborting;
    aborts_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;  // stale validation: the incarnation already moved on
}

BlockStmScheduler::Task BlockStmScheduler::finish_validation(
    std::uint32_t txn, std::uint32_t incarnation, bool aborted) {
  if (aborted) {
    {
      TxnState& t = txns_[txn];
      std::scoped_lock lk(t.mu);
      BP_ASSERT(t.status == Status::kAborting);
      BP_ASSERT(t.incarnation == incarnation);
      t.status = Status::kReady;
      t.incarnation = incarnation + 1;
    }
    // Everything after the aborted transaction may have read its (now
    // ESTIMATE) writes: re-cover the validation wave behind it.
    decrease_validation_idx(txn + 1);
    if (execution_idx_.load(std::memory_order_seq_cst) > txn) {
      // The execution counter already passed it: re-execute here rather
      // than strand the incarnation.  Task stays in flight.
      Task task = try_incarnate(txn);
      if (task) return task;
    }
  }
  num_active_tasks_.fetch_sub(1, std::memory_order_seq_cst);
  return {};
}

bool BlockStmScheduler::add_dependency(std::uint32_t txn,
                                       std::uint32_t blocking_txn) {
  BP_ASSERT(blocking_txn < txn);
  TxnState& b = txns_[blocking_txn];
  TxnState& t = txns_[txn];
  std::scoped_lock lk(b.mu, t.mu);
  if (b.status == Status::kExecuted)
    return false;  // resolved in the meantime — caller re-executes now
  BP_ASSERT(t.status == Status::kExecuting);
  t.status = Status::kSuspended;
  b.dependents.push_back(txn);
  suspensions_.fetch_add(1, std::memory_order_relaxed);
  num_active_tasks_.fetch_sub(1, std::memory_order_seq_cst);
  return true;
}

}  // namespace blockpilot::sched

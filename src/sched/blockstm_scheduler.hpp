// BlockStmScheduler: the collaborative scheduler of Block-STM (Gelashvili
// et al., PPoPP 2022, Algorithms 2-4), driven by the one Block-STM run the
// proposer and the validator share (core/blockstm_run.cpp,
// docs/blockstm.md).
//
// The block's transactions carry a preset order (their pool pop order); the
// scheduler hands out two kinds of tasks over that order:
//
//  * execution tasks — run incarnation `i` of a transaction against the
//    multi-version memory (state::MvMemory);
//  * validation tasks — re-read an executed incarnation's read set and
//    abort it if any observed version changed.
//
// Both task streams advance through atomic counters (execution_idx /
// validation_idx) that workers claim from with fetch_add; validation is
// preferred whenever it trails execution, so mis-speculation is caught as
// early as possible.  An abort makes the transaction's next incarnation
// READY and *lowers* validation_idx — the validation wave re-covers every
// transaction whose reads could have observed the aborted writes.  A
// re-execution that writes a location its previous incarnation did not
// write also lowers validation_idx (new writes can invalidate higher
// transactions that already validated); one that only rewrites its old
// locations needs just its own revalidation, returned directly to the
// finishing worker.
//
// Dependencies: an execution that reads an ESTIMATE marker (the footprint
// of an aborted lower transaction, see MvMemory) suspends itself on the
// writing transaction instead of spinning; finish_execution resumes all
// waiters.  add_dependency fails (and the caller simply re-executes) when
// the blocking transaction finished in the meantime — the race the paper
// resolves the same way.
//
// Every task handed out must be closed by exactly one finish_* call (or
// parked via a successful add_dependency); the scheduler is done when both
// counters have passed the block and no task is in flight.  Outcomes are
// final only then: until quiescence any executed transaction can still be
// revalidated and aborted.
//
// Thread-safe: counters are seq_cst atomics and per-transaction status is
// guarded by a per-transaction mutex (the paper's per-txn locks).  The
// virtual clock drives it from a single thread (determinism); real lanes
// drive it concurrently (the `stm` TSan gate).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace blockpilot::sched {

class BlockStmScheduler {
 public:
  struct Task {
    enum class Kind : std::uint8_t { kNone = 0, kExecute, kValidate };
    Kind kind = Kind::kNone;
    std::uint32_t txn = 0;
    std::uint32_t incarnation = 0;

    explicit operator bool() const noexcept { return kind != Kind::kNone; }
  };

  explicit BlockStmScheduler(std::size_t num_txns);

  /// True once every transaction is executed and validated and no task is
  /// in flight.  Monotone: once done, stays done.
  bool done() const noexcept;

  /// Claims the next task (validation preferred when it trails execution).
  /// kNone means "nothing claimable right now" — the caller should retry
  /// (host threads) or idle until another worker finishes (DES).
  Task next_task();

  /// Closes an execution task.  `wrote_new_location` = this incarnation
  /// wrote a key its predecessor incarnation did not (triggers a
  /// validation wave over higher transactions instead of a single
  /// revalidation).  Resumes transactions suspended on this one.  May
  /// return a follow-up validation task for the same transaction, which
  /// keeps the task in flight.
  Task finish_execution(std::uint32_t txn, std::uint32_t incarnation,
                        bool wrote_new_location);

  /// Tries to abort an executed incarnation (validation failure).  Fails
  /// if the incarnation moved on — a stale validation, ignored.
  bool try_validation_abort(std::uint32_t txn, std::uint32_t incarnation);

  /// Closes a validation task.  `aborted` must be the result of a
  /// successful try_validation_abort for this (txn, incarnation).  May
  /// return the follow-up execution task (the aborted transaction's next
  /// incarnation), which keeps the task in flight.
  Task finish_validation(std::uint32_t txn, std::uint32_t incarnation,
                         bool aborted);

  /// Suspends `txn` (currently executing) on `blocking_txn`'s completion.
  /// Returns false — and parks nothing — if the blocking transaction
  /// already finished executing: the caller re-executes immediately with
  /// the same incarnation.  On true, the caller's task is closed (the
  /// resume path re-issues the execution).
  bool add_dependency(std::uint32_t txn, std::uint32_t blocking_txn);

  /// Total incarnation aborts (== re-executions scheduled).
  std::uint64_t aborts() const noexcept {
    return aborts_.load(std::memory_order_relaxed);
  }

  /// Times validation_idx was actually lowered (a wave re-covering the
  /// transactions behind an abort or a grown write set).  With an exact
  /// pre-seeded footprint (MvMemory::seed_estimates from an honest block
  /// profile) no wave fires at all; a stale profile degrades to extra
  /// waves — the observable the seeding tests gate on.
  std::uint64_t validation_waves() const noexcept {
    return validation_waves_.load(std::memory_order_relaxed);
  }

  /// Executions parked on a dependency (successful add_dependency calls).
  std::uint64_t suspensions() const noexcept {
    return suspensions_.load(std::memory_order_relaxed);
  }

  /// True while another next_task() call could still claim work: a null
  /// task with claimable() true was a wasted cursor claim (the target was
  /// mid-execution), not cursor exhaustion.  Real workers just spin; a
  /// discrete-event caller uses this to retry in zero virtual time instead
  /// of idling its virtual worker until the next completion event.
  bool claimable() const noexcept {
    return execution_idx_.load(std::memory_order_seq_cst) < n_ ||
           validation_idx_.load(std::memory_order_seq_cst) <
               execution_idx_.load(std::memory_order_seq_cst);
  }

  std::size_t size() const noexcept { return n_; }

 private:
  enum class Status : std::uint8_t {
    kReady = 0,     // next incarnation waiting for an execution task
    kExecuting,     // an execution task holds it
    kSuspended,     // parked on a dependency (no task in flight for it)
    kExecuted,      // latest incarnation finished; validatable
    kAborting,      // validation failure claimed it; re-execution pending
  };

  struct alignas(64) TxnState {
    std::mutex mu;  // guards every field below
    Status status = Status::kReady;
    std::uint32_t incarnation = 0;
    std::vector<std::uint32_t> dependents;  // suspended on this txn
  };

  Task try_incarnate(std::uint32_t txn);
  void decrease_execution_idx(std::uint32_t to);
  void decrease_validation_idx(std::uint32_t to);

  const std::size_t n_;
  std::unique_ptr<TxnState[]> txns_;
  std::atomic<std::uint32_t> execution_idx_{0};
  std::atomic<std::uint32_t> validation_idx_{0};
  std::atomic<std::uint64_t> num_active_tasks_{0};
  std::atomic<std::uint64_t> aborts_{0};
  std::atomic<std::uint64_t> validation_waves_{0};
  std::atomic<std::uint64_t> suspensions_{0};
};

}  // namespace blockpilot::sched

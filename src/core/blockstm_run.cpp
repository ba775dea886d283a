#include "core/blockstm_run.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_set>

#include "sched/blockstm_scheduler.hpp"
#include "state/exec_buffer.hpp"
#include "support/assert.hpp"

namespace blockpilot::core {
namespace {

using sched::BlockStmScheduler;
using state::StateKey;
using Task = BlockStmScheduler::Task;
using WarmKeys = std::unordered_set<StateKey>;  // a lane's first-read set

/// Latest executed incarnation of one transaction.  The mutex covers a
/// validation of incarnation i racing the store of incarnation i+1 on real
/// lanes; the incarnation field lets such a stale validation detect itself.
struct alignas(64) TxSlot {
  std::mutex mu;
  std::uint32_t incarnation = 0;
  BlockStmTx tx;
};

/// One execution attempt, computed before it is published: the virtual
/// clock publishes it at its completion time, real lanes at once.
struct Attempt {
  bool blocked = false;  // hit an ESTIMATE: suspend, discard the result
  std::uint32_t blocking = 0;
  BlockStmTx tx;
  std::uint64_t cost = 0;  // virtual cost of the attempt
};

class Run {
 public:
  Run(const std::vector<chain::Transaction>& txs, state::MvMemory& mv,
      const evm::BlockContext& ctx, const vtime::CostModel& costs)
      : txs_(txs),
        mv_(mv),
        ctx_(ctx),
        costs_(costs),
        scheduler_(txs.size()),
        slots_(std::make_unique<TxSlot[]>(txs.size())) {}

  /// Virtual clock: one real thread drives `lanes` virtual workers.  A
  /// task's outcome is computed at dispatch against the current memory, but
  /// applies only at its virtual completion time — the execution window
  /// during which concurrent dispatches cannot see it.  Returns the
  /// makespan.
  std::uint64_t run_virtual(std::size_t lanes) {
    struct VLane {
      bool busy = false;
      std::uint64_t clock = 0;
      Task task;
      Attempt exec;            // task.kind == kExecute
      bool verdict_ok = true;  // task.kind == kValidate
      WarmKeys warm;
    };
    std::vector<VLane> vl(lanes);
    std::uint64_t final_time = 0;

    // Completion events: (time, lane), earliest first, lane index breaking
    // ties deterministically.
    using Event = std::pair<std::uint64_t, std::size_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;

    // One real thread: view and buffer are shared by every virtual lane.
    state::MvView view(mv_);
    state::ExecBuffer buffer;

    auto dispatch = [&](std::size_t w, const Task& t, std::uint64_t now) {
      VLane& l = vl[w];
      l.busy = true;
      l.task = t;
      l.clock = now;
      if (t.kind == Task::Kind::kExecute) {
        l.exec = execute(t, view, buffer, l.warm);
        events.emplace(now + l.exec.cost, w);
      } else {
        l.verdict_ok = validate(t);
        events.emplace(now + costs_.commit_cost, w);
      }
    };
    auto try_dispatch = [&](std::size_t w, std::uint64_t now) {
      if (vl[w].busy) return;
      // Real lanes spin on next_task, so a wasted cursor claim (the target
      // was mid-flight) costs them nothing; retry in zero virtual time
      // until a task arrives or the cursors genuinely exhaust.
      do {
        const Task t = scheduler_.next_task();
        if (t) {
          dispatch(w, t, now);
          return;
        }
      } while (scheduler_.claimable());
    };

    for (std::size_t w = 0; w < lanes; ++w) try_dispatch(w, 0);

    while (!events.empty()) {
      const auto [now, w] = events.top();
      events.pop();
      VLane& l = vl[w];
      BP_ASSERT(l.busy);
      l.busy = false;
      l.clock = now;
      final_time = std::max(final_time, now);

      const Task follow = l.task.kind == Task::Kind::kExecute
                              ? finish_execution(l.task, l.exec)
                              : finish_validation(l.task, l.verdict_ok);
      if (follow) dispatch(w, follow, now);
      for (std::size_t other = 0; other < lanes; ++other)
        try_dispatch(other, std::max(vl[other].clock, now));
    }
    return final_time;
  }

  /// Real clock: `lanes` threads spin on the scheduler until it quiesces.
  /// Returns the makespan of the lanes' virtual costs.
  std::uint64_t run_host(std::size_t lanes, ThreadPool& pool) {
    vtime::WorkLedger ledger(lanes);
    auto lane_fn = [&](std::size_t lane) {
      state::MvView view(mv_);
      state::ExecBuffer buffer;
      WarmKeys warm;
      while (!scheduler_.done()) {
        Task t = scheduler_.next_task();
        if (!t) {
          std::this_thread::yield();
          continue;
        }
        while (t) {
          if (t.kind == Task::Kind::kExecute) {
            Attempt a = execute(t, view, buffer, warm);
            ledger.add(lane, a.cost);
            t = finish_execution(t, a);
          } else {
            const bool ok = validate(t);
            ledger.add(lane, costs_.commit_cost);
            t = finish_validation(t, ok);
          }
        }
      }
    };
    pool.fork_join(lanes, lane_fn);
    return ledger.makespan();
  }

  /// Moves the converged outcomes and the scheduler stats out.
  void take(BlockStmRun& out) {
    BP_ASSERT(scheduler_.done());
    out.txs.reserve(txs_.size());
    for (std::size_t i = 0; i < txs_.size(); ++i)
      out.txs.push_back(std::move(slots_[i].tx));
    out.aborts = scheduler_.aborts();
    out.suspensions = scheduler_.suspensions();
    out.validation_waves = scheduler_.validation_waves();
  }

 private:
  /// Runs incarnation `t` against the multi-version memory.  Without a
  /// prefetcher each key first read on this lane stalls on the backing
  /// store (§5.4): `warm` tracks the lane's keys.
  Attempt execute(const Task& t, state::MvView& view,
                  state::ExecBuffer& buffer, WarmKeys& warm) {
    view.begin(t.txn);
    buffer.rebase(view);
    Attempt a;
    a.tx.result = evm::execute_transaction(buffer, ctx_, txs_[t.txn]);
    a.cost = a.tx.result.gas_used;
    a.blocked = view.blocked();
    a.blocking = view.blocking_txn();
    if (a.blocked) return a;
    a.tx.reads = view.read_log();
    if (a.tx.result.status == evm::TxStatus::kIncluded)
      buffer.write_set_into(a.tx.writes);
    if (costs_.io_read_cost != 0) {
      std::size_t cold_reads = 0;
      for (const auto& e : a.tx.reads)
        if (warm.insert(e.key).second) ++cold_reads;
      a.cost += cold_reads * costs_.io_read_cost;
    }
    return a;
  }

  /// Closes an execution task.  A blocked attempt parks on its blocker; a
  /// failed park means the blocker finished meanwhile, so the same
  /// incarnation re-runs at once.  Otherwise the attempt is published to
  /// its slot and the multi-version memory.  Returns the follow-up task.
  Task finish_execution(const Task& t, Attempt& a) {
    if (a.blocked)
      return scheduler_.add_dependency(t.txn, a.blocking) ? Task{} : t;
    const bool wrote_new = mv_.record(t.txn, t.incarnation, a.tx.writes);
    {
      TxSlot& slot = slots_[t.txn];
      std::scoped_lock lk(slot.mu);
      slot.incarnation = t.incarnation;
      slot.tx = std::move(a.tx);
    }
    return scheduler_.finish_execution(t.txn, t.incarnation, wrote_new);
  }

  /// Re-reads an incarnation's read set against the multi-version memory.
  /// True = every read still observes the same version.
  bool validate(const Task& t) {
    std::vector<state::MvView::LogEntry> reads;
    {
      TxSlot& slot = slots_[t.txn];
      std::scoped_lock lk(slot.mu);
      if (slot.incarnation != t.incarnation)
        return true;  // stale task: the abort attempt would fail anyway
      reads = slot.tx.reads;
    }
    for (const auto& e : reads) {
      const state::MvMemory::ReadResult r = mv_.read(e.key, t.txn);
      if (e.version.txn == state::MvMemory::Version::kBase) {
        if (r.kind != state::MvMemory::ReadKind::kBase) return false;
      } else if (r.kind != state::MvMemory::ReadKind::kOk ||
                 !(r.version == e.version)) {
        return false;  // changed writer/incarnation, or now an ESTIMATE
      }
    }
    return true;
  }

  /// Applies a validation verdict and closes its task.  Returns the
  /// aborted transaction's re-execution, if any.
  Task finish_validation(const Task& t, bool ok) {
    bool aborted = false;
    if (!ok && scheduler_.try_validation_abort(t.txn, t.incarnation)) {
      // Leave the footprint as ESTIMATE markers so higher transactions
      // suspend instead of speculating through known-dirty data.
      mv_.convert_to_estimates(t.txn);
      aborted = true;
    }
    return scheduler_.finish_validation(t.txn, t.incarnation, aborted);
  }

  const std::vector<chain::Transaction>& txs_;
  state::MvMemory& mv_;
  const evm::BlockContext& ctx_;
  const vtime::CostModel& costs_;
  BlockStmScheduler scheduler_;
  std::unique_ptr<TxSlot[]> slots_;
};

}  // namespace

BlockStmRun run_block_stm(const std::vector<chain::Transaction>& txs,
                          state::MvMemory& mv, const evm::BlockContext& ctx,
                          std::size_t lanes, const vtime::CostModel& costs,
                          ThreadPool* pool) {
  BP_ASSERT(lanes >= 1);
  BlockStmRun out;
  if (txs.empty()) return out;
  Run run(txs, mv, ctx, costs);
  out.makespan = pool == nullptr ? run.run_virtual(lanes)
                                 : run.run_host(lanes, *pool);
  run.take(out);
  return out;
}

}  // namespace blockpilot::core

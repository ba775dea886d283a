// OCC-WSI execution engine (paper §4.2, Algorithm 1).
//
// Lanes repeatedly:
//  1. pop the highest-gas-price transaction from the pending pool;
//  2. take a snapshot version (the count of committed transactions) of the
//     multi-version memory and execute the transaction against it;
//  3. enter the serialized commit section (Algorithm 1's DetectConflit +
//     "Synchronize with all worker threads"):
//       - capacity gate: a transaction that no longer fits closes the block
//         to new pops (attempts already in flight still commit if they fit);
//       - WSI validation: if any key in the transaction's read set has a
//         committed version newer than the snapshot, the execution observed
//         stale data -> abort, push the transaction back into the pool;
//       - otherwise commit: record the write set at the next block position
//         (version = position + 1), publish it, append to the block, record
//         the profile entry.
// Write-write conflicts do NOT abort: blind writes serialize by version
// order, which is the WSI relaxation the paper exploits.
//
// The algorithm is written once (OccWsiRun: execute_next = steps 1-2,
// decide = step 3); the clock only decides how lanes are driven:
//
//  * kVirtualTime — `threads` virtual lanes in a discrete-event loop on the
//    calling thread.  An attempt's commit event fires at its start time +
//    gas + commit_cost, earliest first (lane index breaks ties), so the
//    dynamics are deterministic and host-independent;
//  * kHostThreads — `threads` real lanes on the ThreadPool race through the
//    same two steps (the thread-safety surface).
//
// The multi-version state is state::MvMemory, indexed by block position:
// version v is stored at position v - 1, so a snapshot at version s reads
// at index s ("the largest committed version <= s") and Table[key] > s is
// MvMemory::written_from(key, s).  The commit section (commit_mu, uncontended
// on the virtual clock) records the write set and then release-publishes
// the new committed count, which lanes acquire as their next snapshot; the
// pool acknowledgment runs outside it.
#include <algorithm>
#include <atomic>
#include <mutex>
#include <queue>
#include <unordered_map>

#include "core/execution_engine.hpp"
#include "evm/gas.hpp"
#include "state/exec_buffer.hpp"
#include "state/versioned_state.hpp"
#include "support/assert.hpp"
#include "support/stopwatch.hpp"

namespace blockpilot::core {
namespace {

/// One execution attempt, carried from execute_next to decide.  A lane
/// reuses its attempt, so the capture vectors keep their capacity until a
/// commit hands them to the block profile.
struct Attempt {
  chain::Transaction tx;
  evm::TxExecResult result;
  std::vector<state::StateKey> reads;                    // sorted
  std::vector<std::pair<state::StateKey, U256>> writes;  // key-sorted
  std::uint32_t snapshot = 0;  // committed transactions when it started
};

/// Execution scratch, recycled across transactions and across re-runs of
/// aborted ones: the view and the buffer keep their table allocations.  One
/// per real lane; one shared by all virtual lanes (their event loop runs on
/// one thread).
struct Scratch {
  explicit Scratch(const state::MvMemory& mv) : view(mv) {}
  state::MvView view;
  state::ExecBuffer buffer;
};

/// Bound on a block's positions: each included transaction spends at least
/// the intrinsic gas, so no more than gas_limit / intrinsic + 1 fit.
std::size_t max_positions(const ProposerConfig& cfg) {
  const std::size_t by_gas = cfg.block_gas_limit / evm::gas::kTxIntrinsic + 1;
  return cfg.max_txs != 0 ? std::min(cfg.max_txs, by_gas) : by_gas;
}

enum class Decision : std::uint8_t { kCommitted, kAborted, kFull };

/// Algorithm 1's state for one proposal and its two steps.  Lanes may call
/// them concurrently: everything below commit_mu is guarded by it.
struct OccWsiRun {
  OccWsiRun(const ProposerConfig& cfg, const state::WorldState& pre,
            const evm::BlockContext& exec_ctx, txpool::TxPool& txs)
      : config(cfg), ctx(exec_ctx), pool(txs), mv(pre, max_positions(cfg)) {}

  /// Lines 6-9: pops the next transaction into `a` and executes it against
  /// the current committed snapshot, capturing rs / ws.  Invalid
  /// transactions are dropped and nonce-gapped ones deferred (dropped once
  /// they exceed max_not_ready_attempts); the lane then pops again.  False
  /// when the pool is empty or the block is full.
  bool execute_next(Scratch& scratch, Attempt& a);

  /// Lines 5 and 10-23: the commit section.  Pushes the transaction back
  /// when it no longer fits (kFull) or read stale data (kAborted);
  /// otherwise commits it at the next block position.
  Decision decide(Attempt& a);

  const ProposerConfig& config;
  const evm::BlockContext& ctx;
  txpool::TxPool& pool;
  state::MvMemory mv;
  /// Published block positions: a lane's snapshot.  Release-stored under
  /// commit_mu after the position's record, acquired in execute_next.
  std::atomic<std::uint32_t> committed{0};
  std::atomic<bool> full{false};  // gas limit / tx cap reached

  std::mutex commit_mu;
  ProposedBlock out;  // transactions, profile, receipts in commit order
  ProposerStats stats;
  std::uint64_t gas_used = 0;
  U256 fees;
  std::uint64_t commit_events = 0;  // commit-section entries (incl. aborts)
  std::unordered_map<Hash256, int> not_ready_attempts;
};

bool OccWsiRun::execute_next(Scratch& scratch, Attempt& a) {
  while (!full.load(std::memory_order_acquire)) {
    auto popped = pool.pop();
    if (!popped.has_value()) return false;
    a.tx = std::move(*popped);

    a.snapshot = committed.load(std::memory_order_acquire);
    scratch.view.begin(a.snapshot);
    scratch.buffer.rebase(scratch.view);
    a.result = evm::execute_transaction(scratch.buffer, ctx, a.tx);
    if (a.result.status == evm::TxStatus::kIncluded) {
      scratch.buffer.sorted_read_keys_into(a.reads);
      scratch.buffer.write_set_into(a.writes);
      return true;
    }

    // kNotReady: an earlier same-sender transaction is pending.  Defer
    // until a commit advances the pool; drop if no predecessor ever shows.
    std::scoped_lock lk(commit_mu);
    if (a.result.status == evm::TxStatus::kNotReady) {
      ++stats.not_ready;
      if (++not_ready_attempts[a.tx.hash()] <= config.max_not_ready_attempts) {
        pool.defer(std::move(a.tx));
        continue;
      }
    }
    ++stats.dropped;
    pool.dropped(a.tx.from, a.tx.nonce);
  }
  return false;
}

Decision OccWsiRun::decide(Attempt& a) {
  Address sender;
  std::uint64_t nonce = 0;
  {
    std::scoped_lock lk(commit_mu);
    ++commit_events;

    if (gas_used + a.result.gas_used > config.block_gas_limit ||
        (config.max_txs != 0 &&
         out.block.transactions.size() >= config.max_txs)) {
      full.store(true, std::memory_order_release);
      pool.push_back(std::move(a.tx));
      return Decision::kFull;
    }

    // WSI validation: abort iff a read key gained a version after the
    // snapshot (lines 13-16).  Write-write overlap commits.  written_from
    // is exact here: every record runs under commit_mu.
    for (const state::StateKey& key : a.reads) {
      if (mv.written_from(key, a.snapshot)) {
        ++stats.aborts;
        pool.push_back(std::move(a.tx));
        return Decision::kAborted;
      }
    }

    const auto position =
        static_cast<std::uint32_t>(out.block.transactions.size());
    mv.record(position, 0, a.writes);
    committed.store(position + 1, std::memory_order_release);
    gas_used += a.result.gas_used;
    fees += a.result.fee();

    chain::Receipt receipt;
    receipt.success = (a.result.vm_status == evm::Status::kSuccess);
    receipt.gas_used = a.result.gas_used;
    receipt.cumulative_gas = gas_used;
    receipt.logs = std::move(a.result.logs);
    out.receipts.push_back(std::move(receipt));

    chain::TxProfile profile;
    profile.reads = std::move(a.reads);
    profile.writes = std::move(a.writes);
    profile.gas_used = a.result.gas_used;
    out.profile.txs.push_back(std::move(profile));

    sender = a.tx.from;
    nonce = a.tx.nonce;
    out.block.transactions.push_back(std::move(a.tx));
  }
  // Acknowledge the commit: advances the sender's base nonce and releases
  // deferred same-sender successors.
  pool.committed(sender, nonce);
  return Decision::kCommitted;
}

/// Virtual clock: `lanes` virtual workers as a discrete-event simulation.
/// Returns the time of the last commit.
std::uint64_t drive_virtual(OccWsiRun& run, std::size_t lanes,
                            std::uint64_t commit_cost) {
  struct Lane {
    Attempt attempt;
    std::uint64_t clock = 0;
    bool busy = false;
  };
  std::vector<Lane> lane(lanes);
  Scratch scratch(run.mv);
  // Completion events (time, lane), earliest first.
  using Event = std::pair<std::uint64_t, std::size_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;

  // Starts lane l's next attempt at virtual time `now`; the lane idles
  // (clock unchanged) when nothing is poppable.
  auto start = [&](std::size_t l, std::uint64_t now) {
    if (!run.execute_next(scratch, lane[l].attempt)) return;
    lane[l].busy = true;
    lane[l].clock = now;
    events.emplace(now + lane[l].attempt.result.gas_used + commit_cost, l);
  };

  for (std::size_t l = 0; l < lanes; ++l) start(l, 0);
  std::uint64_t last_commit = 0;
  while (!events.empty()) {
    const auto [now, l] = events.top();
    events.pop();
    lane[l].busy = false;
    lane[l].clock = now;
    const Decision d = run.decide(lane[l].attempt);
    if (d == Decision::kFull) continue;  // remaining in-flight events drain
    start(l, now);  // re-pop at once; an abort's wasted work stays charged
    if (d == Decision::kAborted) continue;
    last_commit = std::max(last_commit, now);
    // Idle lanes may now find work (the commit released deferred txs).
    for (std::size_t other = 0; other < lanes; ++other) {
      if (!lane[other].busy) start(other, std::max(lane[other].clock, now));
    }
  }
  return last_commit;
}

/// Real clock: `lanes` threads on `workers` race through the same steps.
/// Returns the busiest lane's charged work.
std::uint64_t drive_real(OccWsiRun& run, std::size_t lanes,
                         std::uint64_t commit_cost, ThreadPool& workers) {
  vtime::WorkLedger ledger(lanes);
  auto lane_loop = [&](std::size_t l) {
    Scratch scratch(run.mv);
    Attempt attempt;
    while (run.execute_next(scratch, attempt)) {
      // Aborted attempts are charged too (wasted work is real work).
      ledger.add(l, attempt.result.gas_used + commit_cost);
      run.decide(attempt);
    }
  };
  workers.fork_join(lanes, lane_loop);
  return ledger.makespan();
}

class OccWsiEngine final : public ExecutionEngine {
 public:
  OccWsiEngine(const ProposerConfig& config, bool host_threads)
      : ExecutionEngine(config), host_threads_(host_threads) {}

  ProposedBlock propose(const state::WorldState& pre,
                        const evm::BlockContext& block_ctx,
                        txpool::TxPool& pool, ThreadPool* workers) override {
    BP_ASSERT(config_.threads >= 1);
    BP_ASSERT(!host_threads_ ||
              (workers != nullptr && workers->size() >= config_.threads));
    Stopwatch wall;
    evm::BlockContext exec_ctx = block_ctx;
    if (config_.analysis_cache)
      exec_ctx.analysis_cache = config_.analysis_cache;

    OccWsiRun run(config_, pre, exec_ctx, pool);
    const std::uint64_t commit_cost = config_.costs.commit_cost;
    const std::uint64_t makespan =
        host_threads_
            ? drive_real(run, config_.threads, commit_cost, *workers)
            : drive_virtual(run, config_.threads, commit_cost);

    auto post = std::make_shared<state::WorldState>(pre);
    run.mv.flatten_into(*post);
    ProposerStats stats = run.stats;
    // The commit section is a serial resource: even with perfect lane
    // balance the makespan cannot beat the chained commit decisions.
    stats.vtime_makespan =
        std::max(makespan, run.commit_events * commit_cost);
    finish_block(run.out, std::move(post), block_ctx, run.gas_used, run.fees,
                 stats, wall);
    return std::move(run.out);
  }

 private:
  bool host_threads_;
};

}  // namespace

namespace detail {

std::unique_ptr<ExecutionEngine> make_occ_wsi_engine(
    const ProposerConfig& config, bool host_threads) {
  return std::make_unique<OccWsiEngine>(config, host_threads);
}

}  // namespace detail
}  // namespace blockpilot::core

#include "core/validator.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <unordered_set>

#include "core/blockstm_run.hpp"
#include "core/serial_executor.hpp"
#include "state/exec_buffer.hpp"
#include "state/read_view.hpp"
#include "support/assert.hpp"
#include "support/stopwatch.hpp"

namespace blockpilot::core {
namespace {

using state::StateKey;

/// Parent state + a worker's accumulated writes.  Sound because conflicting
/// transactions are co-located on one thread: no transaction ever reads a
/// key another thread writes.
class ThreadOverlay final : public state::ReadView {
 public:
  explicit ThreadOverlay(const state::WorldState& base) noexcept
      : base_(base) {}

  U256 read(const StateKey& key) const override {
    const auto it = writes_.find(key);
    if (it != writes_.end()) return it->second;
    return base_.get(key);
  }
  std::shared_ptr<const state::Bytes> code(const Address& addr) const override {
    return base_.code(addr);
  }
  Hash256 code_hash(const Address& addr) const override {
    return base_.code_hash(addr);
  }

  void merge(const std::vector<std::pair<StateKey, U256>>& writes) {
    for (const auto& [key, value] : writes) writes_[key] = value;
  }

 private:
  const state::WorldState& base_;
  std::unordered_map<StateKey, U256> writes_;
};

struct TxOutcome {
  evm::TxExecResult result;
  std::vector<StateKey> reads;                        // sorted
  std::vector<std::pair<StateKey, U256>> writes;      // sorted
};

/// Slot board the applier drains in block order.
struct ResultBoard {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::optional<TxOutcome>> slots;
  std::atomic<bool> failed{false};
  std::string fail_reason;

  void post(std::size_t index, TxOutcome outcome) {
    {
      std::scoped_lock lk(mu);
      slots[index] = std::move(outcome);
    }
    cv.notify_all();
  }

  void fail(const std::string& reason) {
    {
      std::scoped_lock lk(mu);
      if (!failed.load(std::memory_order_relaxed)) fail_reason = reason;
    }
    failed.store(true, std::memory_order_release);
    cv.notify_all();
  }

  /// Blocks until slot `index` is posted or a failure is flagged; nullopt
  /// on failure.
  std::optional<TxOutcome> take(std::size_t index) {
    std::unique_lock lk(mu);
    cv.wait(lk, [&] {
      return slots[index].has_value() ||
             failed.load(std::memory_order_acquire);
    });
    if (!slots[index].has_value()) return std::nullopt;
    auto out = std::move(*slots[index]);
    slots[index].reset();
    return out;
  }
};

bool same_writes(const std::vector<std::pair<StateKey, U256>>& observed,
                 const std::vector<std::pair<StateKey, U256>>& expected) {
  if (observed.size() != expected.size()) return false;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    if (!(observed[i].first == expected[i].first) ||
        observed[i].second != expected[i].second)
      return false;
  }
  return true;
}

/// The Block Validation and Block Commitment phases, shared by every
/// replay engine: transactions are checked against the profile in block
/// order (honest-proposer check, §4.4), applied with the serial coinbase
/// fee and receipted; then the header's gas, receipts root and bloom are
/// checked and the state root is computed inline or queued on the commit
/// pipeline.  One tail means one set of reject strings for every engine.
class BlockApplier {
 public:
  BlockApplier(const ValidatorConfig& config, const state::WorldState& pre,
               const chain::Block& block, const chain::BlockProfile& profile,
               ValidationOutcome& outcome)
      : config_(config),
        block_(block),
        profile_(profile),
        outcome_(outcome),
        post_(std::make_shared<state::WorldState>(pre)) {}

  /// Checks transaction i's replay (`reads` sorted by state_key_less)
  /// against its profile entry, then applies it and appends its receipt.
  /// False = rejected, with the reason in the outcome.
  bool apply(std::size_t i, evm::TxExecResult& result,
             const std::vector<StateKey>& reads,
             const std::vector<std::pair<StateKey, U256>>& writes) {
    if (result.status != evm::TxStatus::kIncluded)
      return reject("transaction " + std::to_string(i) +
                    " failed to execute in scheduled replay");
    applier_chain_ += config_.costs.apply_cost;

    const chain::TxProfile& expected = profile_.txs[i];
    if (result.gas_used != expected.gas_used)
      return reject("gas mismatch at tx " + std::to_string(i));
    if (reads != expected.reads)
      return reject("read-set mismatch at tx " + std::to_string(i));
    if (!same_writes(writes, expected.writes))
      return reject("write-set mismatch at tx " + std::to_string(i));

    apply_tx_writes(*post_, writes, block_.header.coinbase, result.fee());
    gas_used_ += result.gas_used;

    chain::Receipt receipt;
    receipt.success = (result.vm_status == evm::Status::kSuccess);
    receipt.gas_used = result.gas_used;
    receipt.cumulative_gas = gas_used_;
    receipt.logs = std::move(result.logs);
    outcome_.exec.receipts.push_back(std::move(receipt));
    return true;
  }

  /// Header checks, then the state root.  `exec_makespan` is the execution
  /// lanes' virtual makespan.  Call once, after every transaction applied.
  void finish(std::uint64_t exec_makespan) {
    if (gas_used_ != block_.header.gas_used) {
      reject("header gas_used mismatch");
      return;
    }
    if (chain::receipts_root(outcome_.exec.receipts) !=
        block_.header.receipts_root) {
      reject("receipts root mismatch");
      return;
    }
    if (!(chain::block_bloom(outcome_.exec.receipts) ==
          block_.header.logs_bloom)) {
      reject("logs bloom mismatch");
      return;
    }

    outcome_.expected_state_root = block_.header.state_root;
    if (config_.commit_pipeline != nullptr) {
      // ---- Block Commitment, asynchronous ----
      // The root computation moves onto the commit pipeline; `valid` is
      // provisional (execution-level) until await_commit() compares the
      // root against the header.  The post state is sealed — nothing
      // mutates it after submission.
      outcome_.commit = config_.commit_pipeline->submit(post_);
    } else {
      const Hash256 root = post_->state_root();
      if (root != block_.header.state_root) {
        reject("state root mismatch");
        return;
      }
      outcome_.exec.state_root = root;
    }

    // ---- ready for Block Commitment (caller appends to the ledger) ----
    outcome_.valid = true;
    outcome_.exec.profile = profile_;
    outcome_.exec.gas_used = gas_used_;
    outcome_.exec.post_state = std::move(post_);
    outcome_.stats.serial_gas = gas_used_;
    outcome_.stats.vtime_makespan = std::max(exec_makespan, applier_chain_);
  }

 private:
  bool reject(std::string reason) {
    outcome_.reject_reason = std::move(reason);
    return false;
  }

  const ValidatorConfig& config_;
  const chain::Block& block_;
  const chain::BlockProfile& profile_;
  ValidationOutcome& outcome_;
  std::shared_ptr<state::WorldState> post_;
  std::uint64_t applier_chain_ = 0;
  std::uint64_t gas_used_ = 0;
};

/// The paper's Algorithm 2 (subgraph-LPT scheduled replay) — the frozen
/// oracle the Block-STM replay is gated against.  The applier drains the
/// lanes' results in block order while they are still executing.
void replay_subgraph_lpt(const ValidatorConfig& config,
                         const state::WorldState& pre,
                         const chain::Block& block,
                         const chain::BlockProfile& profile,
                         const sched::DependencyGraph& graph,
                         const evm::BlockContext& block_ctx,
                         ThreadPool& workers, ValidationOutcome& outcome) {
  const std::size_t n = block.transactions.size();
  const sched::ThreadPlan plan = sched::lpt_schedule(graph, config.threads);

  ResultBoard board;
  board.slots.resize(n);
  vtime::WorkLedger ledger(config.threads);

  // ---- Tx Execution phase (worker pool) ----
  auto run_lane = [&](std::size_t lane) {
    const auto& my_txs = plan.per_thread[lane];
    ThreadOverlay overlay(pre);
    // I/O model (§5.4): without prefetching, each first-touch state read on
    // this worker stalls on the backing store; the prefetcher eliminates
    // those stalls by warming the cache from the block profile during the
    // preparation phase (off the execution critical path).
    std::unordered_set<StateKey> lane_cache;
    // Dispatch overhead: one per subgraph assigned to this lane.
    std::uint64_t lane_subgraphs = 0;
    for (const auto& sg : graph.subgraphs) {
      if (!sg.tx_indices.empty() &&
          std::binary_search(my_txs.begin(), my_txs.end(),
                             sg.tx_indices.front()))
        ++lane_subgraphs;
    }
    ledger.add(lane, lane_subgraphs * config.costs.dispatch_cost);

    // One buffer per lane, reset per transaction: keeps the read/write
    // table allocations hot instead of reallocating for every replay.
    state::ExecBuffer buffer(overlay);
    for (const std::size_t i : my_txs) {
      if (board.failed.load(std::memory_order_acquire)) return;
      buffer.reset();
      const evm::TxExecResult r = evm::execute_transaction(
          buffer, block_ctx, block.transactions[i]);
      if (r.status != evm::TxStatus::kIncluded) {
        board.fail("transaction " + std::to_string(i) +
                   " failed to execute in scheduled replay");
        return;
      }
      ledger.add(lane, r.gas_used);

      TxOutcome out;
      out.result = r;
      buffer.sorted_read_keys_into(out.reads);
      buffer.write_set_into(out.writes);

      if (!config.prefetch) {
        std::size_t cold_reads = 0;
        for (const auto& key : out.reads)
          if (lane_cache.insert(key).second) ++cold_reads;
        ledger.add(lane, cold_reads * config.costs.io_read_cost);
      }

      overlay.merge(out.writes);
      board.post(i, std::move(out));
    }
  };

  // ---- Block Validation phase (applier, on the calling thread) ----
  std::optional<BlockApplier> applier;
  auto apply_in_order = [&] {
    applier.emplace(config, pre, block, profile, outcome);
    for (std::size_t i = 0; i < n && !board.failed; ++i) {
      auto out = board.take(i);
      if (!out.has_value()) break;
      if (!applier->apply(i, out->result, out->reads, out->writes)) {
        board.fail(outcome.reject_reason);
        break;
      }
    }
  };
  // A throwing lane must still release the applier's take(), or the join
  // never comes; fork_join rethrows once both sides are done.
  auto guarded_lane = [&](std::size_t lane) {
    try {
      run_lane(lane);
    } catch (...) {
      board.fail("replay lane threw");
      throw;
    }
  };
  workers.fork_join(config.threads, guarded_lane, apply_in_order);

  if (board.failed.load(std::memory_order_acquire)) {
    outcome.reject_reason = board.fail_reason;
    return;
  }
  applier->finish(ledger.makespan());
}

/// Block-STM replay (docs/blockstm.md §8) of the block's preset order.  The
/// broadcast profile already names every transaction's write set; seeding
/// those footprints as ESTIMATE markers (the DiPETrans idea of shipping the
/// leader's conflict analysis to followers) turns the first incarnations'
/// discovery phase into scheduled suspension.  With an honest profile the
/// replay converges with zero aborts and zero validation waves.
///
/// Seeds are strictly a scheduling hint: they register as incarnation 0's
/// write set, so the first real record() replaces them like any
/// re-incarnation would.  A stale profile degrades to extra suspensions and
/// waves (ValidatorStats::stm_*), never to a wrong result, because the
/// converged replay equals the serial preset-order execution (Block-STM's
/// determinism theorem) and the shared applier checks it like the oracle's.
/// `lanes` null = the virtual clock (kBlockStm), else real pool lanes.
void replay_block_stm(const ValidatorConfig& config,
                      const state::WorldState& pre, const chain::Block& block,
                      const chain::BlockProfile& profile,
                      const evm::BlockContext& block_ctx, ThreadPool* lanes,
                      ValidationOutcome& outcome) {
  const std::size_t n = block.transactions.size();
  state::MvMemory mv(pre, n);
  // The override (tests) may be stale or mis-sized; clamp to the block.
  const chain::BlockProfile& seeds = config.stm_seed_override != nullptr
                                         ? *config.stm_seed_override
                                         : profile;
  const std::size_t seedable = std::min<std::size_t>(seeds.txs.size(), n);
  for (std::size_t i = 0; i < seedable; ++i)
    mv.seed_estimates(static_cast<std::uint32_t>(i), seeds.txs[i].writes);

  vtime::CostModel costs = config.costs;
  if (config.prefetch) costs.io_read_cost = 0;
  BlockStmRun run = run_block_stm(block.transactions, mv, block_ctx,
                                  config.threads, costs, lanes);
  outcome.stats.stm_aborts = run.aborts;
  outcome.stats.stm_suspensions = run.suspensions;
  outcome.stats.stm_validation_waves = run.validation_waves;

  // The replay has quiesced: the applier consumes it in block order.
  BlockApplier applier(config, pre, block, profile, outcome);
  std::vector<StateKey> reads;
  for (std::size_t i = 0; i < n; ++i) {
    BlockStmTx& tx = run.txs[i];
    reads.clear();
    for (const auto& e : tx.reads) reads.push_back(e.key);
    std::sort(reads.begin(), reads.end(),
              state::state_key_less);  // log keys are already unique
    if (!applier.apply(i, tx.result, reads, tx.writes)) return;
  }
  applier.finish(run.makespan);
}

}  // namespace

ValidationOutcome BlockValidator::validate(const state::WorldState& pre,
                                           const chain::Block& block,
                                           const chain::BlockProfile& profile,
                                           ThreadPool& workers) {
  BP_ASSERT(config_.threads >= 1);
  Stopwatch wall;
  ValidationOutcome outcome;
  ValidatorEngine engine = config_.engine;
  if (profile.txs.size() != block.transactions.size()) {
    // Every engine rejects a malformed profile the same way; kAdaptive
    // resolves to the oracle.
    outcome.reject_reason = "profile size mismatch";
    if (engine == ValidatorEngine::kAdaptive)
      engine = ValidatorEngine::kSubgraphLpt;
  } else {
    // ---- Preparation phase ----
    // The dependency-graph stats stay profile-derived for every engine, so
    // the adaptive signal and the figure surfaces are engine-independent.
    const sched::DependencyGraph graph =
        sched::build_dependency_graph(profile, config_.granularity);
    outcome.stats.subgraphs = graph.subgraphs.size();
    outcome.stats.largest_subgraph_ratio = graph.largest_subgraph_ratio();
    outcome.stats.critical_path_gas = graph.critical_path_gas();
    // kAdaptive: the block's own profile carries the signal (it ships with
    // the block, so it is available before execution starts).
    if (engine == ValidatorEngine::kAdaptive) {
      engine = outcome.stats.largest_subgraph_ratio > config_.adaptive_threshold
                   ? ValidatorEngine::kBlockStm
                   : ValidatorEngine::kSubgraphLpt;
    }

    evm::BlockContext block_ctx;
    block_ctx.number = block.header.number;
    block_ctx.timestamp = block.header.timestamp;
    block_ctx.coinbase = block.header.coinbase;
    block_ctx.gas_limit = block.header.gas_limit;
    block_ctx.analysis_cache = config_.analysis_cache;

    if (engine == ValidatorEngine::kSubgraphLpt) {
      replay_subgraph_lpt(config_, pre, block, profile, graph, block_ctx,
                          workers, outcome);
    } else {
      replay_block_stm(config_, pre, block, profile, block_ctx,
                       engine == ValidatorEngine::kBlockStmHost ? &workers
                                                                : nullptr,
                       outcome);
    }
  }
  outcome.stats.engine_used = engine;
  outcome.stats.wall_ms = wall.elapsed_ms();
  return outcome;
}

bool ValidationOutcome::await_commit() {
  if (!commit.valid()) return valid;  // inline-committed (or rejected early)
  if (!valid) return false;           // execution already failed
  const commit::CommitResult& r = commit.get();
  exec.state_root = r.state_root;
  if (r.state_root != expected_state_root) {
    valid = false;
    reject_reason = "state root mismatch";
  }
  return valid;
}

}  // namespace blockpilot::core

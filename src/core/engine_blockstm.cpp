// Block-STM proposer engine (Gelashvili et al., PPoPP 2022; see
// docs/blockstm.md for the mapping onto BlockPilot).
//
// Where OCC-WSI decides the block order at runtime inside a serialized
// commit section, Block-STM FIXES the order up front — here, the pool's pop
// order — and makes speculation converge to the serial execution of that
// preset order:
//
//  1. candidate selection pops transactions (highest gas price first) until
//     the reserved gas (sum of gas limits) would exceed the block limit or
//     the tx cap is reached;
//  2. the shared Block-STM run (core/blockstm_run.hpp) drives the
//     candidates to quiescence over the multi-version memory;
//  3. one preset-order pass then materializes receipts, profile, fees and
//     pool acknowledgments, and the post state is flattened and sealed.
//
// A transaction that cannot execute in its slot (nonce gap = kNotReady,
// invalid = kInvalid) records an EMPTY write set: it occupies its preset
// position but contributes nothing, mirroring the serial executor's
// drop_unincludable skip — which is what keeps the produced block
// bit-identical to a serial execution of the candidates in pop order (the
// cross-engine differential gate).
//
// kBlockStm runs the virtual clock (deterministic abort dynamics and
// makespan); kBlockStmHost runs real pool lanes (the `stm` TSan gate).  By
// determinism of the final outcome the blocks are bit-identical; only the
// stats vary with host scheduling.
#include <algorithm>

#include "core/blockstm_run.hpp"
#include "core/execution_engine.hpp"
#include "support/assert.hpp"
#include "support/stopwatch.hpp"

namespace blockpilot::core {
namespace {

/// Pops the block's candidates: highest price first, until the reserved gas
/// (sum of gas LIMITS — the pre-execution upper bound) would exceed the
/// block limit.  Every included transaction's gas_used <= gas_limit, so the
/// assembled block can never exceed the limit — the capacity gate runs
/// before execution, unlike OCC's post-execution gate.
std::vector<chain::Transaction> select_candidates(txpool::TxPool& pool,
                                                  const ProposerConfig& cfg) {
  std::vector<chain::Transaction> txs;
  std::uint64_t reserved = 0;
  while (cfg.max_txs == 0 || txs.size() < cfg.max_txs) {
    auto popped = pool.pop();
    if (!popped.has_value()) break;
    if (reserved + popped->gas_limit > cfg.block_gas_limit) {
      pool.push_back(std::move(*popped));
      break;
    }
    reserved += popped->gas_limit;
    txs.push_back(std::move(*popped));
  }
  return txs;
}

class BlockStmEngine final : public ExecutionEngine {
 public:
  BlockStmEngine(const ProposerConfig& config, bool host_threads)
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

    std::vector<chain::Transaction> txs = select_candidates(pool, config_);
    state::MvMemory mv(pre, txs.size());
    vtime::CostModel costs = config_.costs;
    costs.io_read_cost = 0;  // the §5.4 cold-read model is the validator's
    BlockStmRun run = run_block_stm(txs, mv, exec_ctx, config_.threads, costs,
                                    host_threads_ ? workers : nullptr);

    // Commit after quiescence, in preset order.  Outcomes are final only
    // once the scheduler is done: an earlier commit could publish an
    // incarnation a revalidation still aborts (docs/blockstm.md §4).
    // Acknowledgments follow the same order: commits advance the senders'
    // base nonces, so a price-inverted successor deferred at a lower index
    // becomes poppable again for the next block.
    ProposedBlock result;
    ProposerStats stats{};
    std::uint64_t gas_used = 0;
    U256 total_fees;
    for (std::size_t i = 0; i < txs.size(); ++i) {
      BlockStmTx& out = run.txs[i];
      chain::Transaction& tx = txs[i];
      switch (out.result.status) {
        case evm::TxStatus::kIncluded: {
          gas_used += out.result.gas_used;
          total_fees += out.result.fee();

          chain::Receipt receipt;
          receipt.success = (out.result.vm_status == evm::Status::kSuccess);
          receipt.gas_used = out.result.gas_used;
          receipt.cumulative_gas = gas_used;
          receipt.logs = std::move(out.result.logs);
          result.receipts.push_back(std::move(receipt));

          chain::TxProfile profile;
          profile.reads.reserve(out.reads.size());
          for (const auto& e : out.reads) profile.reads.push_back(e.key);
          std::sort(profile.reads.begin(), profile.reads.end(),
                    state::state_key_less);  // log keys are already unique
          profile.writes = std::move(out.writes);
          profile.gas_used = out.result.gas_used;
          result.profile.txs.push_back(std::move(profile));

          pool.committed(tx.from, tx.nonce);
          result.block.transactions.push_back(std::move(tx));
          break;
        }
        case evm::TxStatus::kNotReady:
          ++stats.not_ready;
          pool.defer(std::move(tx));
          break;
        case evm::TxStatus::kInvalid:
          ++stats.dropped;
          pool.dropped(tx.from, tx.nonce);
          break;
      }
    }

    auto post = std::make_shared<state::WorldState>(pre);
    mv.flatten_into(*post);
    stats.aborts = run.aborts;
    stats.vtime_makespan = run.makespan;
    finish_block(result, std::move(post), block_ctx, gas_used, total_fees,
                 stats, wall);
    return result;
  }

 private:
  bool host_threads_;
};

}  // namespace

namespace detail {

std::unique_ptr<ExecutionEngine> make_blockstm_engine(
    const ProposerConfig& config, bool host_threads) {
  return std::make_unique<BlockStmEngine>(config, host_threads);
}

}  // namespace detail
}  // namespace blockpilot::core

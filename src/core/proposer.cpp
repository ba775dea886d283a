#include "core/proposer.hpp"

#include "sched/depgraph.hpp"
#include "support/assert.hpp"

namespace blockpilot::core {
namespace {

/// Per-block engine selection between the two DES twins (engine_select.hpp):
/// OCC-WSI while the previous block's largest-subgraph ratio stays at or
/// below the threshold, Block-STM above it.  The ratio is derived from the
/// profile of the block this engine just proposed — a pure function of the
/// chain content, so a seeded run is bit-reproducible.
class AdaptiveEngine final : public ExecutionEngine {
 public:
  explicit AdaptiveEngine(const ProposerConfig& config)
      : ExecutionEngine(config) {
    ProposerConfig occ = config;
    occ.mode = ScheduleMode::kVirtualTime;
    ProposerConfig stm = config;
    stm.mode = ScheduleMode::kBlockStm;
    occ_ = detail::make_occ_wsi_engine(occ, /*host_threads=*/false);
    stm_ = detail::make_blockstm_engine(stm, /*host_threads=*/false);
  }

  ProposedBlock propose(const state::WorldState& pre,
                        const evm::BlockContext& block_ctx,
                        txpool::TxPool& pool, ThreadPool* workers) override {
    const bool use_stm = ratio_ > config_.adaptive_threshold;
    ProposedBlock blk = (use_stm ? *stm_ : *occ_)
                            .propose(pre, block_ctx, pool, workers);
    blk.stats.engine_used =
        use_stm ? ScheduleMode::kBlockStm : ScheduleMode::kVirtualTime;
    // An empty block carries no signal; keep the previous ratio so a quiet
    // interval doesn't reset the regime.
    if (!blk.profile.txs.empty()) {
      ratio_ = sched::build_dependency_graph(blk.profile,
                                             sched::Granularity::kAccount)
                   .largest_subgraph_ratio();
    }
    blk.stats.largest_subgraph_ratio = ratio_;
    return blk;
  }

 private:
  std::unique_ptr<ExecutionEngine> occ_;
  std::unique_ptr<ExecutionEngine> stm_;
  double ratio_ = 0.0;
};

}  // namespace

std::unique_ptr<ExecutionEngine> make_execution_engine(
    const ProposerConfig& config) {
  if (config.mode == ScheduleMode::kAdaptive)
    return std::make_unique<AdaptiveEngine>(config);
  if (is_block_stm(config.mode))
    return detail::make_blockstm_engine(config, is_host_threads(config.mode));
  return detail::make_occ_wsi_engine(config, is_host_threads(config.mode));
}

void ExecutionEngine::finish_block(ProposedBlock& result,
                                   std::shared_ptr<state::WorldState> post,
                                   const evm::BlockContext& block_ctx,
                                   std::uint64_t gas_used, const U256& fees,
                                   ProposerStats stats, const Stopwatch& wall) {
  // Fees stay out of every tracked write set (DESIGN.md decision 8):
  // crediting them per transaction would make every transaction conflict
  // through the coinbase balance.
  if (!fees.is_zero()) {
    const auto cb_key = state::StateKey::balance(block_ctx.coinbase);
    post->set(cb_key, post->get(cb_key) + fees);
  }
  chain::BlockHeader& header = result.block.header;
  header.number = block_ctx.number;
  header.coinbase = block_ctx.coinbase;
  header.timestamp = block_ctx.timestamp;
  header.gas_limit = config_.block_gas_limit;
  header.gas_used = gas_used;
  header.tx_root = chain::transactions_root(result.block.transactions);
  header.logs_bloom = chain::block_bloom(result.receipts);
  result.post_state = std::move(post);
  if (config_.commit_pipeline == nullptr) {
    header.state_root = result.post_state->state_root();
    header.receipts_root = chain::receipts_root(result.receipts);
  } else {
    // Receipts root rides along as the aux root so the whole commitment —
    // not just the state root — leaves the proposer's critical path.
    result.commit = config_.commit_pipeline->submit(
        result.post_state, [receipts = result.receipts] {
          return chain::receipts_root(receipts);
        });
  }

  stats.committed = result.block.transactions.size();
  stats.serial_gas = gas_used;
  stats.engine_used = config_.mode;
  stats.wall_ms = wall.elapsed_ms();
  result.stats = stats;
}

void ProposedBlock::await_seal() {
  if (!commit.valid()) return;
  const commit::CommitResult& r = commit.get();
  block.header.state_root = r.state_root;
  block.header.receipts_root = r.aux_root;
}

}  // namespace blockpilot::core

// Fork-heavy validation with the multi-block pipeline (§3.4, §4.3, Fig. 5).
//
// In a Byzantine network, several proposers produce sibling blocks at the
// same height; validators must validate all of them (uncle blocks still
// earn rewards and secure the chain).  This example:
//   * runs three independent proposers at each height (forks!);
//   * validates all siblings concurrently through the pipeline;
//   * commits every valid sibling, follows the canonical branch, and
//     reports the pipeline's aggregate speedup vs one-at-a-time validation.
//
//   ./build/examples/fork_pipeline
#include <cstdio>

#include "core/blockpilot.hpp"

using namespace blockpilot;

namespace {

evm::BlockContext ctx_for(std::uint64_t height) {
  evm::BlockContext ctx;
  ctx.number = height;
  ctx.timestamp = 1'700'000'000 + height * 12;
  ctx.coinbase = Address::from_id(0xC0FFEE);
  return ctx;
}

}  // namespace

int main() {
  constexpr std::size_t kProposers = 3;
  constexpr std::uint64_t kHeights = 4;

  workload::WorkloadConfig config = workload::preset_mainnet();
  config.seed = 99;
  config.txs_per_block = 80;
  workload::WorkloadGenerator gen(config);
  chain::Blockchain chain(gen.genesis());
  ThreadPool workers(4);

  core::ProposerConfig pcfg;
  pcfg.threads = 8;
  core::ValidatorConfig plcfg;
  plcfg.threads = 16;

  for (std::uint64_t height = 1; height <= kHeights; ++height) {
    const auto parent_hash = chain.head().header.hash();
    const auto parent_state = chain.head_state();

    // ---- kProposers competing proposers (each drains its own mempool
    // view; in a real network they see different pending sets) ----
    std::vector<core::BlockBundle> siblings;
    for (std::size_t p = 0; p < kProposers; ++p) {
      txpool::TxPool pool;
      pool.add_all(gen.next_block());  // distinct tx sets per proposer
      core::BlockProposer proposer(pcfg);
      core::ProposedBlock blk =
          proposer.propose(*parent_state, ctx_for(height), pool, workers);
      blk.block.header.parent_hash = parent_hash;
      siblings.push_back({std::move(blk.block), std::move(blk.profile)});
    }

    // ---- validate ALL siblings concurrently through the pipeline ----
    core::ValidatorPipeline pipeline(plcfg);
    const core::PipelineResult result =
        pipeline.process_height(*parent_state, std::span(siblings), workers);

    std::size_t valid = 0;
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
      const auto& outcome = result.outcomes[i];
      if (!outcome.valid) {
        std::printf("  height %llu sibling %zu REJECTED: %s\n",
                    static_cast<unsigned long long>(height), i,
                    outcome.reject_reason.c_str());
        continue;
      }
      ++valid;
      chain.commit_block(siblings[i].block, outcome.exec.post_state);
    }
    std::printf("height %llu: %zu/%zu siblings valid, pipeline speedup "
                "%.2fx over serial validation of all forks\n",
                static_cast<unsigned long long>(height), valid,
                siblings.size(), result.stats.virtual_speedup());
  }

  std::printf("\nfinal chain height: %llu   blocks stored (incl. uncles): "
              "%zu   head root: %s\n",
              static_cast<unsigned long long>(chain.height()),
              chain.block_count() - 1,
              chain.head().header.state_root.to_hex().c_str());
  return 0;
}

// Quickstart: the full BlockPilot lifecycle in ~100 lines.
//
//   1. create a genesis world state and fund accounts;
//   2. submit transactions to the pending pool;
//   3. PROPOSE a block with the parallel OCC-WSI engine (Algorithm 1);
//   4. VALIDATE it with the scheduled parallel validator (Algorithm 2);
//   5. COMMIT it to the chain and inspect the result.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/blockpilot.hpp"

using namespace blockpilot;

int main() {
  // ---- 1. genesis -------------------------------------------------------
  // The workload generator doubles as a convenient genesis builder: funded
  // externally-owned accounts plus deployed token/DEX contracts.
  workload::WorkloadConfig config = workload::preset_mainnet();
  config.seed = 2026;
  workload::WorkloadGenerator gen(config);
  chain::Blockchain chain(gen.genesis());
  std::printf("genesis root: %s\n",
              chain.genesis().header.state_root.to_hex().c_str());

  // ---- 2. pending transactions ------------------------------------------
  txpool::TxPool pool;
  pool.add_all(gen.next_block());  // a mainnet-like batch (~132 txs)
  std::printf("pending pool: %zu transactions\n", pool.size());

  // ---- 3. propose in parallel (OCC-WSI) ----------------------------------
  evm::BlockContext ctx;
  ctx.number = 1;
  ctx.timestamp = 1'700'000'000;
  ctx.coinbase = Address::from_id(0xC0FFEE);

  ThreadPool workers(4);
  core::ProposerConfig pcfg;
  pcfg.threads = 8;  // 8 virtual workers (deterministic virtual-time mode)
  core::BlockProposer proposer(pcfg);
  core::ProposedBlock proposed =
      proposer.propose(*chain.head_state(), ctx, pool, workers);
  proposed.block.header.parent_hash = chain.head().header.hash();

  std::printf("proposed block #%llu: %zu txs, %llu gas, %llu aborts, "
              "proposer speedup %.2fx\n",
              static_cast<unsigned long long>(proposed.block.header.number),
              proposed.block.transactions.size(),
              static_cast<unsigned long long>(proposed.block.header.gas_used),
              static_cast<unsigned long long>(proposed.stats.aborts),
              proposed.stats.virtual_speedup());

  // ---- 4. validate in parallel (dependency-graph schedule) ---------------
  core::ValidatorConfig vcfg;
  vcfg.threads = 8;
  core::BlockValidator validator(vcfg);
  const core::ValidationOutcome outcome = validator.validate(
      *chain.head_state(), proposed.block, proposed.profile, workers);

  if (!outcome.valid) {
    std::printf("block REJECTED: %s\n", outcome.reject_reason.c_str());
    return 1;
  }
  std::printf("block validated: %zu subgraphs, largest %.0f%% of block, "
              "validator speedup %.2fx\n",
              outcome.stats.subgraphs,
              outcome.stats.largest_subgraph_ratio * 100.0,
              outcome.stats.virtual_speedup());

  // ---- 5. commit (with receipts, so logs stay queryable) -----------------
  chain.commit_block(proposed.block, outcome.exec.post_state,
                     outcome.exec.receipts);
  std::printf("chain height: %llu, head root: %s\n",
              static_cast<unsigned long long>(chain.height()),
              chain.head().header.state_root.to_hex().c_str());

  // Receipts are available per transaction.
  std::size_t reverted = 0;
  for (const auto& receipt : outcome.exec.receipts)
    if (!receipt.success) ++reverted;
  std::printf("receipts: %zu ok, %zu reverted\n",
              outcome.exec.receipts.size() - reverted, reverted);
  return 0;
}

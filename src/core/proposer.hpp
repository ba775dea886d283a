// BlockProposer: parallel block production behind the ExecutionEngine seam.
//
// The facade owns a ProposerConfig and dispatches propose() to the engine
// selected by config.mode (core/execution_engine.hpp):
//
//  * kVirtualTime / kHostThreads — OCC with Write-Snapshot-Isolation
//    (paper §4.2, Algorithm 1): workers execute against committed
//    snapshots and pass through a serialized commit section that aborts
//    read-stale transactions; write-write conflicts commit ("transactions
//    with conflicting writes can be committed to the same block").
//  * kBlockStm / kBlockStmHost — Block-STM (PPoPP 2022): the pool pop
//    order becomes the block's preset order, incarnations speculate over a
//    multi-version memory, a collaborative scheduler validates and aborts;
//    no serialized commit section (docs/blockstm.md).
//
// Either way the produced block carries its profile (read/write sets +
// per-tx gas) for broadcast, enabling validators' dependency-graph
// scheduling (§4.2 end).
#pragma once

#include <memory>

#include "core/execution_engine.hpp"

namespace blockpilot::core {

class BlockProposer {
 public:
  explicit BlockProposer(ProposerConfig config)
      : config_(config), engine_(make_execution_engine(config)) {}

  /// Drains `pool` (up to the gas limit / tx cap) into a new block on top
  /// of `pre`.  Dispatches on config.mode; `workers` is used only by the
  /// host-threads modes (which need at least config.threads pool threads).
  ProposedBlock propose(const state::WorldState& pre,
                        const evm::BlockContext& block_ctx,
                        txpool::TxPool& pool, ThreadPool& workers) {
    return engine_->propose(pre, block_ctx, pool, &workers);
  }

  const ProposerConfig& config() const noexcept { return config_; }

 private:
  ProposerConfig config_;
  std::unique_ptr<ExecutionEngine> engine_;
};

}  // namespace blockpilot::core

// One Block-STM run (Gelashvili et al., PPoPP 2022; docs/blockstm.md): the
// collaborative scheduler (sched::BlockStmScheduler) and the multi-version
// memory (state::MvMemory) drive a preset-ordered batch of transactions to
// quiescence.  Both sides of BlockPilot call it:
//
//  * the proposer (engine_blockstm.cpp) after candidate selection, with an
//    empty memory;
//  * the validator (validator.cpp) with the block's preset order and a
//    memory pre-seeded with ESTIMATE markers from the broadcast profile.
//
// The caller reads the per-transaction outcomes only after the run returns,
// i.e. after every task has closed (docs/blockstm.md §4 explains why there
// is no earlier, incremental commit).
//
// The clock is the caller's choice, not a second copy of the algorithm:
// without a pool, `lanes` virtual workers run as a discrete-event
// simulation on the calling thread (bit-reproducible makespan and abort
// counts); with a pool, `lanes` real threads race through the same
// scheduler (the `stm` TSan target — stats then vary with host scheduling,
// the outcomes do not).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "chain/transaction.hpp"
#include "evm/state_transition.hpp"
#include "state/versioned_state.hpp"
#include "support/thread_pool.hpp"
#include "vtime/vtime.hpp"

namespace blockpilot::core {

/// Converged outcome of one transaction's last incarnation.
struct BlockStmTx {
  evm::TxExecResult result;
  /// Keys read from below the transaction, with the version observed:
  /// unique keys in first-read order.
  std::vector<state::MvView::LogEntry> reads;
  /// Key-sorted write set.  Empty unless result.status is kIncluded: a
  /// transaction that cannot execute in its slot (nonce gap, invalid)
  /// holds its preset position but contributes nothing — the serial
  /// executor's drop_unincludable skip.
  std::vector<std::pair<state::StateKey, U256>> writes;
};

struct BlockStmRun {
  std::vector<BlockStmTx> txs;  // preset order
  std::uint64_t makespan = 0;   // largest lane's virtual cost
  std::uint64_t aborts = 0;
  std::uint64_t suspensions = 0;
  std::uint64_t validation_waves = 0;
};

/// Runs `txs` in preset order over `mv` (sized to txs.size(); the caller
/// may have seeded ESTIMATEs) until the scheduler quiesces.  An execution
/// costs its gas plus costs.io_read_cost per key first read on its lane
/// (the §5.4 cold-read model; zero skips it), a validation
/// costs.commit_cost.  `pool` null = virtual lanes on the calling thread;
/// otherwise real lanes, submitted to `pool` when lanes > 1.
BlockStmRun run_block_stm(const std::vector<chain::Transaction>& txs,
                          state::MvMemory& mv, const evm::BlockContext& ctx,
                          std::size_t lanes, const vtime::CostModel& costs,
                          ThreadPool* pool);

}  // namespace blockpilot::core

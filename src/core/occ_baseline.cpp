#include "core/occ_baseline.hpp"

#include <atomic>

#include "core/serial_executor.hpp"
#include "state/exec_buffer.hpp"
#include "state/read_view.hpp"
#include "support/assert.hpp"
#include "support/stopwatch.hpp"

namespace blockpilot::core {
namespace {

struct Speculative {
  evm::TxExecResult result;
  std::unordered_map<state::StateKey, U256> reads;  // key -> observed value
  std::vector<std::pair<state::StateKey, U256>> writes;
  bool executable = false;
};

}  // namespace

TwoPhaseOccOutcome TwoPhaseOcc::validate(const state::WorldState& pre,
                                         const chain::Block& block,
                                         ThreadPool& workers) {
  TwoPhaseOccOutcome outcome;
  Stopwatch wall;
  const std::size_t n = block.transactions.size();

  evm::BlockContext block_ctx;
  block_ctx.number = block.header.number;
  block_ctx.timestamp = block.header.timestamp;
  block_ctx.coinbase = block.header.coinbase;
  block_ctx.gas_limit = block.header.gas_limit;

  // ---- Phase 1: fully parallel speculative execution over pre-state ----
  std::vector<Speculative> spec(n);
  vtime::WorkLedger ledger(config_.threads);
  const state::WorldStateView pre_view(pre);

  auto run_lane = [&](std::size_t lane) {
    // Static round-robin partition: tx i belongs to lane (i % threads).
    for (std::size_t i = lane; i < n; i += config_.threads) {
      state::ExecBuffer buffer(pre_view);
      const evm::TxExecResult r =
          evm::execute_transaction(buffer, block_ctx, block.transactions[i]);
      spec[i].result = r;
      spec[i].executable = (r.status == evm::TxStatus::kIncluded);
      spec[i].reads = buffer.read_set();
      spec[i].writes = buffer.write_set();
      if (spec[i].executable) ledger.add(lane, r.gas_used);
    }
  };

  workers.fork_join(config_.threads, run_lane);

  // ---- Phase 2: in-order commit with value validation; stale or
  // non-executable speculations re-execute serially ----
  auto post = std::make_shared<state::WorldState>(pre);
  std::uint64_t serial_chain = 0;  // the serial phase's virtual time
  std::uint64_t gas_used = 0;

  for (std::size_t i = 0; i < n; ++i) {
    bool fresh = spec[i].executable;
    if (fresh) {
      for (const auto& [key, observed] : spec[i].reads) {
        if (post->get(key) != observed) {
          fresh = false;
          break;
        }
      }
    }

    const evm::TxExecResult* result = &spec[i].result;
    const std::vector<std::pair<state::StateKey, U256>>* writes =
        &spec[i].writes;
    evm::TxExecResult reexec_result;
    std::vector<std::pair<state::StateKey, U256>> reexec_writes;

    if (!fresh) {
      ++outcome.stats.reexecuted;
      const state::WorldStateView view(*post);
      state::ExecBuffer buffer(view);
      reexec_result =
          evm::execute_transaction(buffer, block_ctx, block.transactions[i]);
      if (reexec_result.status != evm::TxStatus::kIncluded) {
        outcome.reject_reason =
            "transaction " + std::to_string(i) + " unexecutable";
        outcome.stats.wall_ms = wall.elapsed_ms();
        return outcome;
      }
      reexec_writes = buffer.write_set();
      result = &reexec_result;
      writes = &reexec_writes;
      serial_chain += reexec_result.gas_used;
    }
    serial_chain += config_.costs.apply_cost;

    apply_tx_writes(*post, *writes, block_ctx.coinbase, result->fee());
    gas_used += result->gas_used;

    chain::Receipt receipt;
    receipt.success = (result->vm_status == evm::Status::kSuccess);
    receipt.gas_used = result->gas_used;
    receipt.cumulative_gas = gas_used;
    receipt.logs = result->logs;
    outcome.exec.receipts.push_back(std::move(receipt));
  }

  if (gas_used != block.header.gas_used) {
    outcome.reject_reason = "header gas_used mismatch";
    outcome.stats.wall_ms = wall.elapsed_ms();
    return outcome;
  }
  if (chain::receipts_root(outcome.exec.receipts) !=
      block.header.receipts_root) {
    outcome.reject_reason = "receipts root mismatch";
    outcome.stats.wall_ms = wall.elapsed_ms();
    return outcome;
  }
  const Hash256 root = post->state_root();
  if (root != block.header.state_root) {
    outcome.reject_reason = "state root mismatch";
    outcome.stats.wall_ms = wall.elapsed_ms();
    return outcome;
  }

  outcome.valid = true;
  outcome.exec.gas_used = gas_used;
  outcome.exec.state_root = root;
  outcome.exec.post_state = std::move(post);
  outcome.stats.serial_gas = gas_used;
  outcome.stats.vtime_makespan = ledger.makespan() + serial_chain;
  outcome.stats.wall_ms = wall.elapsed_ms();
  return outcome;
}

}  // namespace blockpilot::core

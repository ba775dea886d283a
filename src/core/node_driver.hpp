// NodeDriver: the live-ingestion node loop.
//
// Couples the layers end to end the way a running node would: a
// TrafficGenerator firehose feeds the TxPool's admission front while the
// BlockProposer pulls fixed-gas blocks out of it; sealing rides the
// CommitPipeline (speculative, up to `speculation_depth` unsettled heights)
// and settled blocks append to the Blockchain.  The driver measures what
// the replay benches cannot: steady-state throughput under a continuous
// arrival stream, pool occupancy over time, and per-transaction
// admission-to-settle latency.
//
// Determinism: with the proposer in kVirtualTime mode and
// `concurrent_submission` off, the entire run — every admission decision,
// block body, and block hash — is a pure function of (profile, seed).
// Wall-clock only enters the *measurements* (latency, tx/s), never the
// state evolution, so the soak tests can assert bit-stable re-runs.  With
// `concurrent_submission` on, a feeder thread races submissions against the
// proposer's pops — the TSan configuration of the ingestion soak.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/blockchain.hpp"
#include "core/proposer.hpp"
#include "txpool/txpool.hpp"
#include "workload/traffic.hpp"

namespace blockpilot::core {

struct NodeDriverConfig {
  ProposerConfig proposer;       // commit_pipeline field is managed by run()
  txpool::TxPoolConfig pool;
  workload::TrafficProfile profile;
  std::uint64_t seed = 1;

  std::uint64_t blocks = 32;        // blocks to drive
  std::size_t ticks_per_block = 2;  // traffic ticks fed per block interval
  std::size_t speculation_depth = 2;  // unsettled heights allowed in flight

  /// Feed the pool from a separate thread while the proposer drains it
  /// (races add() against pop(); the TSan soak configuration).  State
  /// evolution is no longer deterministic in this mode.
  bool concurrent_submission = false;

  /// Re-submit capacity-evicted transactions at the next block boundary,
  /// modelling clients that watch the chain and re-broadcast dropped
  /// transactions.  Without this feedback an open-loop generator leaves a
  /// permanent nonce hole at every evicted slot (the generator's nonce
  /// counters only march forward), and under sustained overload every
  /// sender eventually strands behind such a hole.
  bool resubmit_evicted = true;

  std::uint64_t coinbase_id = 0xC0FFEE;
  std::uint64_t timestamp_base = 1'700'000'000;
};

struct LatencySummary {
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  std::size_t samples = 0;
};

struct NodeDriverResult {
  std::uint64_t blocks = 0;
  std::uint64_t txs_committed = 0;
  std::uint64_t empty_blocks = 0;
  std::uint64_t aborts = 0;
  std::uint64_t not_ready = 0;
  std::uint64_t dropped = 0;

  double wall_ms = 0.0;
  double tx_per_s = 0.0;

  txpool::TxPoolStats pool_stats;       // final snapshot
  workload::TrafficStats traffic;
  std::vector<std::size_t> occupancy;   // pool residency after each settle
  LatencySummary admit_to_settle;

  /// Chain fingerprint for bit-stability assertions: identical runs must
  /// produce identical hash sequences (hashes cover parent, roots, body).
  std::vector<Hash256> block_hashes;
  Hash256 final_state_root;

  /// Engine that produced each block, in height order (the configured mode
  /// for fixed engines; the per-block pick under ScheduleMode::kAdaptive).
  /// Part of the bit-stability surface: identical seeded runs must choose
  /// identically at every height.
  std::vector<ScheduleMode> engine_by_height;

  /// TxPool conservation invariant at end of run: every admitted
  /// transaction is accounted committed, dropped, evicted, replaced,
  /// stale-dropped, or still resident.
  bool conserved = false;

  /// (sender, nonce) slots that appeared in more than one committed block —
  /// must be zero (the nonce ladder admits each slot to at most one block).
  std::uint64_t duplicate_commits = 0;
};

class NodeDriver {
 public:
  explicit NodeDriver(NodeDriverConfig config) : config_(std::move(config)) {}

  /// Drives the full loop for config.blocks block intervals and settles
  /// every outstanding seal before returning.
  NodeDriverResult run();

  const NodeDriverConfig& config() const noexcept { return config_; }

 private:
  NodeDriverConfig config_;
};

}  // namespace blockpilot::core

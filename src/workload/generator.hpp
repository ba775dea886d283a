// Synthetic mainnet-like workload generation (DESIGN.md §1, substitution 2).
//
// Emits a genesis world state (funded EOAs, deployed token/DEX/counter
// contracts, pre-seeded token balances and pool reserves) and a stream of
// blocks whose conflict structure is calibrated to the paper's measured
// statistics: 132 transactions per block on average, Zipf-popular hotspot
// contracts, and a largest-conflict-subgraph averaging ~27.5 % of a block.
//
// All randomness flows from one seed; identical configs produce identical
// transaction streams on any host.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "chain/transaction.hpp"
#include "state/world_state.hpp"
#include "support/rng.hpp"

namespace blockpilot::workload {

struct WorkloadConfig {
  std::uint64_t seed = 0x5eed;

  std::size_t num_eoa = 2000;   // externally-owned (sender) accounts
  std::size_t num_tokens = 12;  // token contracts
  std::size_t num_dex = 6;      // DEX (hotspot) contracts

  std::size_t txs_per_block = 132;  // paper: average mainnet block
  /// When true, block sizes vary +-40 % around txs_per_block (mainnet
  /// blocks are far from constant-size).
  bool jitter_block_size = true;

  // Transaction-kind mix (fractions sum to <= 1; remainder = native).
  // The defaults are calibrated (see DESIGN.md §1) so that account-level
  // dependency graphs reproduce the paper's measured conflict structure:
  // largest subgraph ~27.5 % of a block on average (§5.5) and validator
  // scalability that knees around 6 threads (§5.4).
  double token_fraction = 0.42;
  double dex_fraction = 0.33;  // primary hotspot knob (see presets below)
  /// NFT-drop traffic: sequential mints on a shared counter (§5.5's "NFT"
  /// pattern).  Off by default; preset_nft_drop() exercises it.
  double nft_fraction = 0.0;
  /// Airdrop traffic: bursts of consecutive-nonce transfers from a single
  /// distributor account ("token distributions", §5.5) — same-sender nonce
  /// chains that stress the proposer's kNotReady deferral path.
  double airdrop_fraction = 0.0;
  std::size_t airdrop_burst = 8;  // transfers per airdrop burst

  /// Zipf skew of contract popularity: higher -> traffic concentrates on
  /// the hottest token/DEX, growing the largest subgraph.
  double contract_zipf_s = 1.5;
  /// Zipf skew of token-transfer recipients (popular payees create sparse
  /// storage conflicts inside token traffic).
  double recipient_zipf_s = 1.0;

  std::uint64_t default_gas_price_min = 10;  // priced in wei-like units
  std::uint64_t default_gas_price_max = 200;

  /// Sender partitioning: generator i of N draws senders only from its own
  /// slice of the EOA range, so N independent generators (the traffic
  /// harness's submission sources) never collide on a (sender, nonce) slot.
  /// Recipients still span the full range — cross-partition conflicts stay.
  std::size_t sender_partition_index = 0;
  std::size_t sender_partition_count = 1;
};

/// Presets sweeping the hotspot regime for Fig. 8: from nearly
/// conflict-free to single-subgraph blocks.
WorkloadConfig preset_mainnet();      // calibrated to ~27.5 % largest subgraph
WorkloadConfig preset_low_conflict();
WorkloadConfig preset_high_conflict();
/// NFT-drop day: heavy mint traffic on few collections plus airdrops.
WorkloadConfig preset_nft_drop();

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(WorkloadConfig config);

  /// Funded and deployed genesis state (idempotent; independent of the
  /// transaction stream position), returned already committed so copies
  /// answer state_root() from the memo.  The first call builds and commits
  /// it; later calls (on this generator or a copy of it) return copies
  /// that share its tries and root memo.
  state::WorldState genesis() const;

  /// Next block's transaction batch.  Per-sender nonces are tracked across
  /// calls, so consecutive batches chain correctly.
  std::vector<chain::Transaction> next_block();

  /// A batch of exactly `n` transactions (benchmark parameter sweeps).
  std::vector<chain::Transaction> next_batch(std::size_t n);

  const WorkloadConfig& config() const noexcept { return config_; }

  // Deterministic address layout.
  Address eoa(std::size_t i) const;
  Address token(std::size_t i) const;
  Address dex(std::size_t i) const;
  Address counter_addr() const;
  Address nft(std::size_t i) const;

  static constexpr std::size_t kNftCollections = 3;

 private:
  chain::Transaction make_native(Xoshiro256& rng);
  chain::Transaction make_token(Xoshiro256& rng);
  chain::Transaction make_dex(Xoshiro256& rng);
  chain::Transaction make_nft(Xoshiro256& rng);
  void append_airdrop(std::vector<chain::Transaction>& out, Xoshiro256& rng,
                      std::size_t max_txs);
  chain::Transaction base_tx(Xoshiro256& rng, const Address& from);
  Address pick_sender(Xoshiro256& rng) const;
  state::WorldState build_genesis() const;

  /// The genesis built by the first genesis() call, shared by copies of
  /// this generator so they stay copyable.
  struct GenesisCell {
    std::once_flag once;
    state::WorldState state;
  };

  WorkloadConfig config_;
  Xoshiro256 rng_;
  ZipfSampler contract_zipf_;
  ZipfSampler recipient_zipf_;
  std::unordered_map<Address, std::uint64_t> next_nonce_;
  std::shared_ptr<GenesisCell> genesis_ = std::make_shared<GenesisCell>();
};

}  // namespace blockpilot::workload

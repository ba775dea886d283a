#include "workload/generator.hpp"

#include "support/assert.hpp"
#include "workload/contracts.hpp"

namespace blockpilot::workload {
namespace {

// Address-space layout: ids chosen so EOAs, tokens and DEXes never collide.
constexpr std::uint64_t kEoaBase = 0x1000'0000ULL;
constexpr std::uint64_t kTokenBase = 0x2000'0000ULL;
constexpr std::uint64_t kDexBase = 0x3000'0000ULL;
constexpr std::uint64_t kCounterId = 0x4000'0000ULL;
constexpr std::uint64_t kNftBase = 0x5000'0000ULL;

// 1e21 base units: enough for any fee/value stream this generator emits.
const U256 kInitialBalance = U256{1'000'000'000ULL} * U256{1'000'000'000'000ULL};
// Pre-seeded token balance per holder.
const U256 kInitialTokenBalance = U256{1'000'000'000'000ULL};
// DEX pool reserves (large vs swap sizes so pools never drain in practice).
const U256 kInitialReserve = U256{1'000'000'000ULL} * U256{1'000'000'000ULL};

}  // namespace

WorkloadConfig preset_mainnet() { return WorkloadConfig{}; }

WorkloadConfig preset_low_conflict() {
  WorkloadConfig c;
  c.token_fraction = 0.30;
  c.dex_fraction = 0.0;
  c.recipient_zipf_s = 0.0;  // uniform recipients: conflicts are rare
  c.contract_zipf_s = 0.0;
  return c;
}

WorkloadConfig preset_high_conflict() {
  WorkloadConfig c;
  c.token_fraction = 0.10;
  c.dex_fraction = 0.80;
  c.num_dex = 1;  // one pool: every swap chains on the reserve slots
  c.contract_zipf_s = 0.0;
  return c;
}

WorkloadConfig preset_nft_drop() {
  WorkloadConfig c;
  c.token_fraction = 0.15;
  c.dex_fraction = 0.05;
  c.nft_fraction = 0.50;
  c.airdrop_fraction = 0.15;
  return c;
}

WorkloadGenerator::WorkloadGenerator(WorkloadConfig config)
    : config_(config),
      rng_(config.seed),
      contract_zipf_(std::max<std::size_t>(
                         1, std::max(config.num_tokens, config.num_dex)),
                     config.contract_zipf_s),
      recipient_zipf_(std::max<std::size_t>(1, config.num_eoa),
                      config.recipient_zipf_s) {
  BP_ASSERT(config_.num_eoa >= 2);
  BP_ASSERT(config_.token_fraction + config_.dex_fraction +
                config_.nft_fraction + config_.airdrop_fraction <=
            1.0 + 1e-9);
  BP_ASSERT(config_.airdrop_burst >= 1);
  BP_ASSERT(config_.sender_partition_count >= 1);
  BP_ASSERT(config_.sender_partition_index < config_.sender_partition_count);
}

Address WorkloadGenerator::pick_sender(Xoshiro256& rng) const {
  const std::size_t span = config_.num_eoa / config_.sender_partition_count;
  if (span == 0) return eoa(rng.below(config_.num_eoa));  // degenerate: share
  const std::size_t base = config_.sender_partition_index * span;
  return eoa(base + rng.below(span));
}

Address WorkloadGenerator::eoa(std::size_t i) const {
  BP_ASSERT(i < config_.num_eoa);
  return Address::from_id(kEoaBase + i);
}
Address WorkloadGenerator::token(std::size_t i) const {
  BP_ASSERT(i < config_.num_tokens);
  return Address::from_id(kTokenBase + i);
}
Address WorkloadGenerator::dex(std::size_t i) const {
  BP_ASSERT(i < config_.num_dex);
  return Address::from_id(kDexBase + i);
}
Address WorkloadGenerator::counter_addr() const {
  return Address::from_id(kCounterId);
}
Address WorkloadGenerator::nft(std::size_t i) const {
  BP_ASSERT(i < kNftCollections);
  return Address::from_id(kNftBase + i);
}

state::WorldState WorkloadGenerator::genesis() const {
  std::call_once(genesis_->once,
                 [this] { genesis_->state = build_genesis(); });
  return genesis_->state;
}

state::WorldState WorkloadGenerator::build_genesis() const {
  state::WorldState ws;
  using state::StateKey;

  for (std::size_t i = 0; i < config_.num_eoa; ++i)
    ws.set(StateKey::balance(eoa(i)), kInitialBalance);

  const Bytes token_code = token_contract();
  for (std::size_t t = 0; t < config_.num_tokens; ++t) {
    const Address addr = token(t);
    ws.set_code(addr, token_code);
    // Every EOA holds tokens so transfers rarely revert.
    for (std::size_t i = 0; i < config_.num_eoa; ++i)
      ws.set(StateKey::storage(addr, eoa(i).to_u256()), kInitialTokenBalance);
  }

  const Bytes dex_code = dex_contract();
  for (std::size_t d = 0; d < config_.num_dex; ++d) {
    const Address addr = dex(d);
    ws.set_code(addr, dex_code);
    ws.set(StateKey::storage(addr, U256{0}), kInitialReserve);
    ws.set(StateKey::storage(addr, U256{1}), kInitialReserve);
  }

  ws.set_code(counter_addr(), counter_contract());

  const Bytes nft_code = nft_contract();
  for (std::size_t n = 0; n < kNftCollections; ++n)
    ws.set_code(nft(n), nft_code);
  // Commit once here: every copy (one per chain, replica and engine) then
  // answers state_root() from the carried memo instead of re-hashing.
  (void)ws.state_root();
  return ws;
}

chain::Transaction WorkloadGenerator::base_tx(Xoshiro256& rng,
                                              const Address& from) {
  chain::Transaction tx;
  tx.from = from;
  tx.nonce = next_nonce_[from]++;
  tx.gas_price = U256{rng.range(config_.default_gas_price_min,
                                config_.default_gas_price_max)};
  return tx;
}

chain::Transaction WorkloadGenerator::make_native(Xoshiro256& rng) {
  const Address from = pick_sender(rng);
  chain::Transaction tx = base_tx(rng, from);
  // Zipf-popular recipients: two transfers to one payee conflict on its
  // balance counter — the paper's canonical "counter" conflict.
  tx.to = eoa(recipient_zipf_(rng));
  tx.value = U256{rng.range(1, 1'000'000)};
  tx.gas_limit = 25'000;
  return tx;
}

chain::Transaction WorkloadGenerator::make_token(Xoshiro256& rng) {
  const Address from = pick_sender(rng);
  chain::Transaction tx = base_tx(rng, from);
  const std::size_t which =
      config_.num_tokens == 0 ? 0 : contract_zipf_(rng) % config_.num_tokens;
  tx.to = token(which);
  const Address recipient = eoa(recipient_zipf_(rng));
  tx.data = token_transfer_calldata(recipient, U256{rng.range(1, 10'000)});
  tx.gas_limit = 120'000;
  return tx;
}

chain::Transaction WorkloadGenerator::make_dex(Xoshiro256& rng) {
  const Address from = pick_sender(rng);
  chain::Transaction tx = base_tx(rng, from);
  const std::size_t which =
      config_.num_dex == 0 ? 0 : contract_zipf_(rng) % config_.num_dex;
  tx.to = dex(which);
  tx.data = dex_swap_calldata(U256{rng.range(1'000, 1'000'000)});
  tx.gas_limit = 160'000;
  return tx;
}

std::vector<chain::Transaction> WorkloadGenerator::next_block() {
  std::size_t n = config_.txs_per_block;
  if (config_.jitter_block_size && n >= 5) {
    const std::size_t lo = n - (n * 2) / 5;
    const std::size_t hi = n + (n * 2) / 5;
    n = rng_.range(lo, hi);
  }
  return next_batch(n);
}

chain::Transaction WorkloadGenerator::make_nft(Xoshiro256& rng) {
  const Address from = pick_sender(rng);
  chain::Transaction tx = base_tx(rng, from);
  tx.to = nft(rng.below(kNftCollections));
  tx.gas_limit = 120'000;
  return tx;  // no calldata: the contract mints to CALLER
}

void WorkloadGenerator::append_airdrop(std::vector<chain::Transaction>& out,
                                       Xoshiro256& rng,
                                       std::size_t max_txs) {
  // One distributor sends a run of consecutive-nonce transfers: the nonce
  // chain forces serial commit order within the burst.
  const Address distributor = pick_sender(rng);
  const std::size_t burst = std::min(config_.airdrop_burst, max_txs);
  for (std::size_t i = 0; i < burst; ++i) {
    chain::Transaction tx = base_tx(rng, distributor);
    tx.to = eoa(rng.below(config_.num_eoa));
    tx.value = U256{rng.range(1, 1000)};
    tx.gas_limit = 25'000;
    out.push_back(std::move(tx));
  }
}

std::vector<chain::Transaction> WorkloadGenerator::next_batch(std::size_t n) {
  std::vector<chain::Transaction> txs;
  txs.reserve(n);
  while (txs.size() < n) {
    const double roll = rng_.uniform01();
    double threshold = config_.dex_fraction;
    if (roll < threshold && config_.num_dex > 0) {
      txs.push_back(make_dex(rng_));
      continue;
    }
    threshold += config_.token_fraction;
    if (roll < threshold && config_.num_tokens > 0) {
      txs.push_back(make_token(rng_));
      continue;
    }
    threshold += config_.nft_fraction;
    if (roll < threshold) {
      txs.push_back(make_nft(rng_));
      continue;
    }
    threshold += config_.airdrop_fraction;
    if (roll < threshold) {
      // A burst counts as one draw but emits several transactions.
      append_airdrop(txs, rng_, n - txs.size());
      continue;
    }
    txs.push_back(make_native(rng_));
  }
  return txs;
}

}  // namespace blockpilot::workload

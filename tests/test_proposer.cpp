// OCC-WSI proposer tests (paper Algorithm 1).
//
// The central property: a proposed block must be SERIALIZABLE — replaying
// its transactions serially, in block order, from the same pre-state must
// reproduce the proposer's post-state root exactly.
#include <gtest/gtest.h>

#include "core/blockpilot.hpp"

namespace blockpilot::core {
namespace {

evm::BlockContext ctx_for(std::uint64_t height) {
  evm::BlockContext ctx;
  ctx.number = height;
  ctx.timestamp = 1'700'000'000 + height * 12;
  ctx.coinbase = Address::from_id(0xC0FFEE);
  return ctx;
}

struct ProposerFixture : ::testing::Test {
  workload::WorkloadGenerator gen{workload::preset_mainnet()};
  state::WorldState genesis = gen.genesis();

  ProposedBlock propose(std::vector<chain::Transaction> txs,
                        std::size_t threads) {
    txpool::TxPool pool;
    pool.add_all(std::move(txs));
    ProposerConfig cfg;
    cfg.threads = threads;
    BlockProposer proposer(cfg);
    ThreadPool workers(std::max<std::size_t>(threads, 1));
    return proposer.propose(genesis, ctx_for(1), pool, workers);
  }
};

TEST_F(ProposerFixture, SingleThreadIncludesEverything) {
  const auto block = propose(gen.next_batch(40), 1);
  EXPECT_EQ(block.stats.committed, 40u);
  EXPECT_EQ(block.block.transactions.size(), 40u);
  EXPECT_EQ(block.profile.size(), 40u);
  EXPECT_GT(block.stats.serial_gas, 0u);
}

TEST_F(ProposerFixture, ParallelBlockIsSerializable) {
  const auto block = propose(gen.next_batch(100), 8);
  ASSERT_GT(block.block.transactions.size(), 0u);

  // Serial replay in block order must reach the identical state root.
  SerialOptions opts;
  opts.drop_unincludable = false;
  const SerialResult replay = execute_serial(
      genesis, ctx_for(1), std::span(block.block.transactions), opts);
  ASSERT_TRUE(replay.ok);
  EXPECT_EQ(replay.exec.state_root, block.block.header.state_root);
  EXPECT_EQ(replay.exec.gas_used, block.block.header.gas_used);
}

TEST_F(ProposerFixture, ProfileMatchesSerialReplay) {
  const auto block = propose(gen.next_batch(60), 4);
  SerialOptions opts;
  opts.drop_unincludable = false;
  const SerialResult replay = execute_serial(
      genesis, ctx_for(1), std::span(block.block.transactions), opts);
  ASSERT_TRUE(replay.ok);
  ASSERT_EQ(replay.exec.profile.size(), block.profile.size());
  for (std::size_t i = 0; i < block.profile.size(); ++i) {
    EXPECT_EQ(replay.exec.profile.txs[i].gas_used,
              block.profile.txs[i].gas_used)
        << "tx " << i;
    EXPECT_EQ(replay.exec.profile.txs[i].reads, block.profile.txs[i].reads)
        << "tx " << i;
    EXPECT_EQ(replay.exec.profile.txs[i].writes, block.profile.txs[i].writes)
        << "tx " << i;
  }
}

TEST_F(ProposerFixture, SameSenderNoncesStayOrdered) {
  // Five transactions from one sender must commit in nonce order even when
  // executed by competing threads.
  std::vector<chain::Transaction> txs;
  const Address sender = gen.eoa(0);
  for (std::uint64_t n = 0; n < 5; ++n) {
    chain::Transaction tx;
    tx.from = sender;
    tx.to = gen.eoa(n + 1);
    tx.nonce = n;
    tx.value = U256{100};
    tx.gas_limit = 25'000;
    tx.gas_price = U256{50 - n};  // descending price tempts reordering
    txs.push_back(tx);
  }
  const auto block = propose(std::move(txs), 4);
  ASSERT_EQ(block.block.transactions.size(), 5u);
  for (std::uint64_t n = 0; n < 5; ++n)
    EXPECT_EQ(block.block.transactions[n].nonce, n);
}

TEST_F(ProposerFixture, GasLimitBoundsBlock) {
  txpool::TxPool pool;
  pool.add_all(gen.next_batch(100));
  ProposerConfig cfg;
  cfg.threads = 4;
  cfg.block_gas_limit = 500'000;  // room for only a handful of txs
  BlockProposer proposer(cfg);
  ThreadPool workers(4);
  const auto block = proposer.propose(genesis, ctx_for(1), pool, workers);
  EXPECT_LE(block.block.header.gas_used, cfg.block_gas_limit);
  EXPECT_GT(block.block.transactions.size(), 0u);
  EXPECT_LT(block.block.transactions.size(), 100u);
  EXPECT_FALSE(pool.empty());  // leftovers stay pooled for the next block
}

TEST_F(ProposerFixture, MaxTxCapRespected) {
  txpool::TxPool pool;
  pool.add_all(gen.next_batch(50));
  ProposerConfig cfg;
  cfg.threads = 2;
  cfg.max_txs = 10;
  BlockProposer proposer(cfg);
  ThreadPool workers(2);
  const auto block = proposer.propose(genesis, ctx_for(1), pool, workers);
  EXPECT_EQ(block.block.transactions.size(), 10u);
}

TEST_F(ProposerFixture, HighContentionStillSerializable) {
  // All transactions hammer one DEX: worst-case WSI abort pressure.
  workload::WorkloadGenerator hot(workload::preset_high_conflict());
  state::WorldState hot_genesis = hot.genesis();
  txpool::TxPool pool;
  pool.add_all(hot.next_batch(60));
  ProposerConfig cfg;
  cfg.threads = 8;
  BlockProposer proposer(cfg);
  ThreadPool workers(8);
  const auto block = proposer.propose(hot_genesis, ctx_for(1), pool, workers);
  ASSERT_GT(block.block.transactions.size(), 0u);

  SerialOptions opts;
  opts.drop_unincludable = false;
  const SerialResult replay = execute_serial(
      hot_genesis, ctx_for(1), std::span(block.block.transactions), opts);
  ASSERT_TRUE(replay.ok);
  EXPECT_EQ(replay.exec.state_root, block.block.header.state_root);
}

TEST_F(ProposerFixture, EmptyPoolYieldsEmptyBlock) {
  const auto block = propose({}, 4);
  EXPECT_TRUE(block.block.transactions.empty());
  EXPECT_EQ(block.block.header.gas_used, 0u);
  EXPECT_EQ(block.block.header.state_root, genesis.state_root());
}

TEST_F(ProposerFixture, StatsAreCoherent) {
  const auto block = propose(gen.next_batch(80), 8);
  EXPECT_EQ(block.stats.committed, block.block.transactions.size());
  EXPECT_EQ(block.stats.serial_gas, block.block.header.gas_used);
  EXPECT_GT(block.stats.vtime_makespan, 0u);
  EXPECT_GE(block.stats.virtual_speedup(), 1.0);
}

TEST_F(ProposerFixture, LongAirdropNonceChainsCommitInOrder) {
  // Airdrop bursts create 20-deep same-sender nonce chains; with 16
  // virtual workers racing, the deferral path must still commit every
  // transaction, in per-sender nonce order.
  workload::WorkloadConfig wc;
  wc.seed = 0xA1D;
  wc.token_fraction = 0.0;
  wc.dex_fraction = 0.0;
  wc.nft_fraction = 0.0;
  wc.airdrop_fraction = 1.0;
  wc.airdrop_burst = 20;
  workload::WorkloadGenerator airdrop_gen(wc);
  state::WorldState airdrop_genesis = airdrop_gen.genesis();

  txpool::TxPool pool;
  pool.add_all(airdrop_gen.next_batch(100));
  ProposerConfig cfg;
  cfg.threads = 16;
  BlockProposer proposer(cfg);
  ThreadPool workers(1);
  const auto block =
      proposer.propose(airdrop_genesis, ctx_for(1), pool, workers);
  EXPECT_EQ(block.block.transactions.size(), 100u);
  EXPECT_EQ(block.stats.dropped, 0u);

  std::unordered_map<Address, std::uint64_t> next;
  for (const auto& tx : block.block.transactions) {
    const auto it = next.find(tx.from);
    const std::uint64_t want = it == next.end() ? 0 : it->second;
    EXPECT_EQ(tx.nonce, want) << "sender " << tx.from.to_hex();
    next[tx.from] = want + 1;
  }

  SerialOptions opts;
  opts.drop_unincludable = false;
  const SerialResult replay = execute_serial(
      airdrop_genesis, ctx_for(1), std::span(block.block.transactions), opts);
  ASSERT_TRUE(replay.ok);
  EXPECT_EQ(replay.exec.state_root, block.block.header.state_root);
}

TEST_F(ProposerFixture, HostThreadsModeAlsoSerializable) {
  // The real-thread realization (genuine concurrency, host-dependent
  // scheduling) must produce serializable blocks too — thread-safety of
  // the multi-version memory, pool, and commit section under actual races
  // (the stm label runs it under ThreadSanitizer).
  txpool::TxPool pool;
  pool.add_all(gen.next_batch(80));
  ProposerConfig cfg;
  cfg.threads = 4;
  cfg.mode = ScheduleMode::kHostThreads;
  BlockProposer proposer(cfg);
  ThreadPool workers(4);
  const auto block = proposer.propose(genesis, ctx_for(1), pool, workers);
  ASSERT_EQ(block.block.transactions.size(), 80u);

  SerialOptions opts;
  opts.drop_unincludable = false;
  const SerialResult replay = execute_serial(
      genesis, ctx_for(1), std::span(block.block.transactions), opts);
  ASSERT_TRUE(replay.ok);
  EXPECT_EQ(replay.exec.state_root, block.block.header.state_root);
}

TEST_F(ProposerFixture, VirtualModeIsDeterministic) {
  // Identical inputs -> bit-identical blocks, independent of host load:
  // the property that makes the DES mode the figure-generating engine.
  auto run_once = [&] {
    workload::WorkloadGenerator g(workload::preset_mainnet());
    state::WorldState genesis_state = g.genesis();
    txpool::TxPool pool;
    pool.add_all(g.next_batch(60));
    ProposerConfig cfg;
    cfg.threads = 8;
    BlockProposer proposer(cfg);
    ThreadPool workers(1);
    return proposer.propose(genesis_state, ctx_for(1), pool, workers);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.block.header.hash(), b.block.header.hash());
  EXPECT_EQ(a.stats.aborts, b.stats.aborts);
  EXPECT_EQ(a.stats.vtime_makespan, b.stats.vtime_makespan);
  ASSERT_EQ(a.block.transactions.size(), b.block.transactions.size());
  for (std::size_t i = 0; i < a.block.transactions.size(); ++i)
    EXPECT_EQ(a.block.transactions[i].hash(), b.block.transactions[i].hash());
}

// Property sweep: serializability must hold across thread counts and
// conflict regimes.
struct SweepParam {
  std::size_t threads;
  int preset;  // 0 = mainnet, 1 = low conflict, 2 = high conflict
};

class ProposerSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ProposerSweep, SerializableUnderAllRegimes) {
  const auto [threads, preset] = GetParam();
  workload::WorkloadConfig cfg = preset == 0   ? workload::preset_mainnet()
                                 : preset == 1 ? workload::preset_low_conflict()
                                               : workload::preset_high_conflict();
  cfg.seed = 77 + static_cast<std::uint64_t>(preset) * 1000 + threads;
  workload::WorkloadGenerator gen(cfg);
  state::WorldState genesis = gen.genesis();

  txpool::TxPool pool;
  pool.add_all(gen.next_batch(64));
  ProposerConfig pc;
  pc.threads = threads;
  BlockProposer proposer(pc);
  ThreadPool workers(threads);
  const auto block = proposer.propose(genesis, ctx_for(1), pool, workers);

  SerialOptions opts;
  opts.drop_unincludable = false;
  const SerialResult replay = execute_serial(
      genesis, ctx_for(1), std::span(block.block.transactions), opts);
  ASSERT_TRUE(replay.ok);
  EXPECT_EQ(replay.exec.state_root, block.block.header.state_root);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsByRegime, ProposerSweep,
    ::testing::Values(SweepParam{1, 0}, SweepParam{2, 0}, SweepParam{4, 0},
                      SweepParam{8, 0}, SweepParam{2, 1}, SweepParam{8, 1},
                      SweepParam{2, 2}, SweepParam{4, 2}, SweepParam{8, 2}));

}  // namespace
}  // namespace blockpilot::core

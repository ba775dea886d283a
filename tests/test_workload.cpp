#include <gtest/gtest.h>

#include <unordered_map>

#include "core/blockpilot.hpp"
#include "evm/assembler.hpp"
#include "workload/contracts.hpp"

namespace blockpilot::workload {
namespace {

evm::BlockContext make_ctx() {
  evm::BlockContext ctx;
  ctx.number = 1;
  ctx.coinbase = Address::from_id(0xC0FFEE);
  return ctx;
}

TEST(Generator, DeterministicFromSeed) {
  WorkloadConfig cfg = preset_mainnet();
  cfg.seed = 123;
  WorkloadGenerator a(cfg), b(cfg);
  const auto batch_a = a.next_batch(50);
  const auto batch_b = b.next_batch(50);
  ASSERT_EQ(batch_a.size(), batch_b.size());
  for (std::size_t i = 0; i < batch_a.size(); ++i)
    EXPECT_EQ(batch_a[i].hash(), batch_b[i].hash());
  EXPECT_EQ(a.genesis().state_root(), b.genesis().state_root());
}

TEST(Generator, GenesisIsCommittedWhenHandedOut) {
  // genesis() commits once, so the handed-out state and every copy of it
  // answer state_root() from the carried memo without re-hashing.
  const WorkloadGenerator gen(preset_mainnet());
  const state::WorldState genesis = gen.genesis();
  const state::WorldState copy = genesis;
  for (const state::WorldState* ws : {&genesis, &copy}) {
    const auto before = ws->commit_stats();
    EXPECT_EQ(ws->state_root(), ws->state_root_full_rebuild());
    const auto after = ws->commit_stats();
    EXPECT_EQ(after.root_memo_hits, before.root_memo_hits + 1);
    EXPECT_EQ(after.root_recomputes, before.root_recomputes);
    EXPECT_EQ(after.accounts_resynced, before.accounts_resynced);
  }

  // The first call built and committed the state once: a second call, on
  // the generator or a copy of it, hands out a copy of that state, so its
  // root is a memo hit and equals the first.
  const WorkloadGenerator gen_copy = gen;
  for (const WorkloadGenerator* g : {&gen, &gen_copy}) {
    const state::WorldState again = g->genesis();
    const auto before = again.commit_stats();
    EXPECT_EQ(again.state_root(), genesis.state_root());
    const auto after = again.commit_stats();
    EXPECT_EQ(after.root_memo_hits, before.root_memo_hits + 1);
    EXPECT_EQ(after.root_recomputes, before.root_recomputes);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  WorkloadConfig a_cfg = preset_mainnet(), b_cfg = preset_mainnet();
  a_cfg.seed = 1;
  b_cfg.seed = 2;
  const auto a = WorkloadGenerator(a_cfg).next_batch(20);
  const auto b = WorkloadGenerator(b_cfg).next_batch(20);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(a[i].hash() == b[i].hash())) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(Generator, NoncesAreConsecutivePerSender) {
  WorkloadConfig cfg = preset_mainnet();
  cfg.seed = 9;
  WorkloadGenerator gen(cfg);
  std::unordered_map<Address, std::uint64_t> expected;
  for (int block = 0; block < 3; ++block) {
    for (const auto& tx : gen.next_block()) {
      const auto it = expected.find(tx.from);
      const std::uint64_t want = it == expected.end() ? 0 : it->second;
      EXPECT_EQ(tx.nonce, want);
      expected[tx.from] = want + 1;
    }
  }
}

TEST(Generator, BatchSizeExact) {
  WorkloadGenerator gen(preset_mainnet());
  EXPECT_EQ(gen.next_batch(7).size(), 7u);
  EXPECT_EQ(gen.next_batch(133).size(), 133u);
  EXPECT_TRUE(gen.next_batch(0).empty());
}

TEST(Generator, BlockSizeJitterWithinBounds) {
  WorkloadConfig cfg = preset_mainnet();
  cfg.txs_per_block = 100;
  WorkloadGenerator gen(cfg);
  for (int i = 0; i < 10; ++i) {
    const auto block = gen.next_block();
    EXPECT_GE(block.size(), 60u);
    EXPECT_LE(block.size(), 140u);
  }
}

TEST(Generator, AllGeneratedBlocksExecuteFully) {
  for (auto preset : {preset_mainnet(), preset_low_conflict(),
                      preset_high_conflict(), preset_nft_drop()}) {
    preset.seed = 777;
    WorkloadGenerator gen(preset);
    const state::WorldState genesis = gen.genesis();
    const auto txs = gen.next_batch(80);
    core::SerialOptions opts;
    opts.drop_unincludable = false;
    const auto result =
        core::execute_serial(genesis, make_ctx(), std::span(txs), opts);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.included.size(), 80u);
    // Everything the generator emits must actually succeed in the VM —
    // a reverting workload would silently weaken every benchmark.
    for (const auto& receipt : result.exec.receipts)
      EXPECT_TRUE(receipt.success);
  }
}

TEST(Generator, AirdropEmitsNonceBursts) {
  WorkloadConfig cfg;
  cfg.seed = 31;
  cfg.token_fraction = 0.0;
  cfg.dex_fraction = 0.0;
  cfg.nft_fraction = 0.0;
  cfg.airdrop_fraction = 1.0;
  cfg.airdrop_burst = 5;
  WorkloadGenerator gen(cfg);
  const auto txs = gen.next_batch(20);
  ASSERT_EQ(txs.size(), 20u);
  // Bursts of 5 consecutive-nonce txs from one sender.
  for (std::size_t i = 0; i + 1 < txs.size(); ++i) {
    if (txs[i].from == txs[i + 1].from)
      EXPECT_EQ(txs[i + 1].nonce, txs[i].nonce + 1);
  }
}

TEST(NftContract, SequentialMints) {
  state::WorldState ws;
  const Address collection = Address::from_id(0xF7);
  const Address alice = Address::from_id(0xA11CE);
  const Address bob = Address::from_id(0xB0B);
  ws.set_code(collection, nft_contract());

  evm::BlockContext block = make_ctx();
  evm::TxContext tx;
  tx.origin = alice;
  tx.gas_price = U256{1};
  tx.block = &block;

  const state::WorldStateView view(ws);
  state::ExecBuffer buffer(view);
  auto mint = [&](const Address& who) {
    evm::Message msg;
    msg.caller = who;
    msg.to = collection;
    msg.gas = 200'000;
    const auto r = evm::execute_call(buffer, tx, msg);
    EXPECT_EQ(r.status, evm::Status::kSuccess);
    return U256::from_be_bytes(std::span(r.output));
  };

  EXPECT_EQ(mint(alice), U256{0});
  EXPECT_EQ(mint(bob), U256{1});
  EXPECT_EQ(mint(alice), U256{2});
  // Ownership records.
  const U256 base = U256{1}.shl(128);
  EXPECT_EQ(buffer.read(state::StateKey::storage(collection, base + U256{0})),
            alice.to_u256());
  EXPECT_EQ(buffer.read(state::StateKey::storage(collection, base + U256{1})),
            bob.to_u256());
  EXPECT_EQ(buffer.read(state::StateKey::storage(collection, U256{0})),
            U256{3});
}

TEST(NftDrop, MintsFormOneHotspotSubgraph) {
  // All mints on one collection share the counter slot: at any granularity
  // they chain into one subgraph.
  WorkloadConfig cfg;
  cfg.seed = 55;
  cfg.token_fraction = 0.0;
  cfg.dex_fraction = 0.0;
  cfg.nft_fraction = 1.0;
  WorkloadGenerator gen(cfg);
  const state::WorldState genesis = gen.genesis();
  const auto txs = gen.next_batch(30);
  const auto serial = core::execute_serial(genesis, make_ctx(), std::span(txs));
  const auto graph = sched::build_dependency_graph(
      serial.exec.profile, sched::Granularity::kKey);
  // With 3 collections, at most 3 subgraphs (plus none others).
  EXPECT_LE(graph.subgraphs.size(), WorkloadGenerator::kNftCollections);
}

TEST(NftDrop, PresetIsSerializableUnderOcc) {
  WorkloadConfig cfg = preset_nft_drop();
  cfg.seed = 66;
  WorkloadGenerator gen(cfg);
  const state::WorldState genesis = gen.genesis();
  txpool::TxPool pool;
  pool.add_all(gen.next_batch(60));
  core::ProposerConfig pc;
  pc.threads = 8;
  ThreadPool workers(1);
  const auto blk =
      core::BlockProposer(pc).propose(genesis, make_ctx(), pool, workers);
  ASSERT_GT(blk.block.transactions.size(), 0u);

  core::SerialOptions opts;
  opts.drop_unincludable = false;
  const auto replay = core::execute_serial(
      genesis, make_ctx(), std::span(blk.block.transactions), opts);
  ASSERT_TRUE(replay.ok);
  EXPECT_EQ(replay.exec.state_root, blk.block.header.state_root);
}

TEST(Contracts, BytecodeIsNonTrivial) {
  EXPECT_GT(token_contract().size(), 20u);
  EXPECT_GT(dex_contract().size(), 30u);
  EXPECT_GT(nft_contract().size(), 15u);
  EXPECT_GT(counter_contract().size(), 5u);
}

}  // namespace
}  // namespace blockpilot::workload

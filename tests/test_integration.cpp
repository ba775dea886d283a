// End-to-end integration: the full BlockPilot lifecycle over a growing
// chain, with every engine agreeing on every state root — the in-repo
// analogue of the paper's §5.2 correctness validation.
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

TEST(Integration, ProposeValidateCommitChain) {
  workload::WorkloadGenerator gen(workload::preset_mainnet());
  chain::Blockchain chain(gen.genesis());
  ThreadPool workers(8);

  ProposerConfig pc;
  pc.threads = 4;
  BlockProposer proposer(pc);
  ValidatorConfig vc;
  vc.threads = 4;
  BlockValidator validator(vc);

  for (std::uint64_t height = 1; height <= 8; ++height) {
    txpool::TxPool pool;
    pool.add_all(gen.next_block());

    const auto parent_state = chain.head_state();
    ProposedBlock proposed =
        proposer.propose(*parent_state, ctx_for(height), pool, workers);
    proposed.block.header.parent_hash = chain.head().header.hash();

    const auto outcome = validator.validate(*parent_state, proposed.block,
                                            proposed.profile, workers);
    ASSERT_TRUE(outcome.valid)
        << "height " << height << ": " << outcome.reject_reason;

    chain.commit_block(proposed.block, outcome.exec.post_state);
    EXPECT_EQ(chain.height(), height);
  }
  EXPECT_EQ(chain.block_count(), 9u);  // genesis + 8
}

TEST(Integration, AllEnginesAgreeOnRoots) {
  // Serial, scheduled validator, two-phase OCC and the pipeline must all
  // reach the same root for the same block — across conflict regimes.
  for (const int preset : {0, 1, 2}) {
    workload::WorkloadConfig wc = preset == 0   ? workload::preset_mainnet()
                                  : preset == 1 ? workload::preset_low_conflict()
                                                : workload::preset_high_conflict();
    wc.seed = 9000 + static_cast<std::uint64_t>(preset);
    workload::WorkloadGenerator gen(wc);
    const state::WorldState genesis = gen.genesis();
    const auto txs = gen.next_batch(80);

    const SerialResult serial =
        execute_serial(genesis, ctx_for(1), std::span(txs));
    const chain::Block block =
        seal_block(ctx_for(1), serial.exec, serial.included);

    ThreadPool workers(8);

    ValidatorConfig vc;
    vc.threads = 8;
    const auto scheduled = BlockValidator(vc).validate(
        genesis, block, serial.exec.profile, workers);
    ASSERT_TRUE(scheduled.valid) << scheduled.reject_reason;
    EXPECT_EQ(scheduled.exec.state_root, serial.exec.state_root);

    const auto occ = TwoPhaseOcc(vc).validate(genesis, block, workers);
    ASSERT_TRUE(occ.valid) << occ.reject_reason;
    EXPECT_EQ(occ.exec.state_root, serial.exec.state_root);

    ValidatorConfig pc;
    pc.threads = 8;
    const std::vector<BlockBundle> bundle = {{block, serial.exec.profile}};
    const auto piped = ValidatorPipeline(pc).process_height(
        genesis, std::span(bundle), workers);
    ASSERT_TRUE(piped.all_valid());
    EXPECT_EQ(piped.outcomes[0].exec.state_root, serial.exec.state_root);
  }
}

TEST(Integration, LongChainCorrectnessReplay) {
  // §5.2 analogue (scaled to CI): a longer chain where each block is built
  // by the parallel proposer and replayed by the parallel validator; the
  // serial oracle must agree at every height.
  workload::WorkloadConfig wc = workload::preset_mainnet();
  wc.txs_per_block = 40;
  wc.seed = 31415;
  workload::WorkloadGenerator gen(wc);

  auto state = std::make_shared<state::WorldState>(gen.genesis());
  ThreadPool workers(6);
  ProposerConfig pc;
  pc.threads = 6;
  BlockProposer proposer(pc);
  ValidatorConfig vc;
  vc.threads = 6;
  BlockValidator validator(vc);

  for (std::uint64_t height = 1; height <= 25; ++height) {
    txpool::TxPool pool;
    pool.add_all(gen.next_block());
    const ProposedBlock proposed =
        proposer.propose(*state, ctx_for(height), pool, workers);

    // Oracle: serial replay of the block body.
    SerialOptions opts;
    opts.drop_unincludable = false;
    const SerialResult oracle = execute_serial(
        *state, ctx_for(height), std::span(proposed.block.transactions), opts);
    ASSERT_TRUE(oracle.ok) << "height " << height;
    ASSERT_EQ(oracle.exec.state_root, proposed.block.header.state_root)
        << "proposer diverged from serial at height " << height;

    // Parallel validator agrees too.
    const auto outcome = validator.validate(*state, proposed.block,
                                            proposed.profile, workers);
    ASSERT_TRUE(outcome.valid)
        << "height " << height << ": " << outcome.reject_reason;
    state = outcome.exec.post_state;
  }
}

TEST(Integration, ForkCommitAndCanonicalSwitch) {
  workload::WorkloadGenerator gen(workload::preset_mainnet());
  chain::Blockchain chain(gen.genesis());
  ThreadPool workers(4);

  // Two sibling proposals at height 1.
  auto make_block = [&](std::uint64_t seed_offset) {
    workload::WorkloadConfig wc = workload::preset_mainnet();
    wc.seed = 100 + seed_offset;
    workload::WorkloadGenerator g(wc);
    txpool::TxPool pool;
    pool.add_all(g.next_batch(20));
    ProposerConfig pcfg;
    pcfg.threads = 2;
    BlockProposer p(pcfg);
    ProposedBlock blk =
        p.propose(*chain.head_state(), ctx_for(1), pool, workers);
    blk.block.header.parent_hash = chain.genesis_hash();
    return blk;
  };
  ProposedBlock a = make_block(1);
  ProposedBlock b = make_block(2);
  ASSERT_NE(a.block.header.hash(), b.block.header.hash());

  chain.commit_block(a.block, a.post_state);
  chain.commit_block(b.block, b.post_state);
  EXPECT_EQ(chain.height(), 1u);
  EXPECT_EQ(chain.block_count(), 3u);
  // Both forks' states are retrievable (uncle handling, §3.4).
  EXPECT_NE(chain.state_of(a.block.header.hash()), nullptr);
  EXPECT_NE(chain.state_of(b.block.header.hash()), nullptr);
}

TEST(Integration, TokenConservationAcrossParallelExecution) {
  // Conservation law: the sum of all token balances for a given token
  // contract is invariant under transfers — a deep end-to-end check that
  // parallel execution loses no writes.
  workload::WorkloadConfig wc = workload::preset_mainnet();
  wc.dex_fraction = 0.0;  // only native + token transfers
  wc.token_fraction = 1.0;
  wc.num_tokens = 2;
  workload::WorkloadGenerator gen(wc);
  const state::WorldState genesis = gen.genesis();

  auto token_supply = [&](const state::WorldState& ws, const Address& token) {
    U256 sum;
    for (std::size_t i = 0; i < gen.config().num_eoa; ++i) {
      sum += ws.get(state::StateKey::storage(token, gen.eoa(i).to_u256()));
    }
    return sum;
  };
  const U256 supply0 = token_supply(genesis, gen.token(0));
  const U256 supply1 = token_supply(genesis, gen.token(1));

  txpool::TxPool pool;
  pool.add_all(gen.next_batch(150));
  ThreadPool workers(8);
  ProposerConfig pc;
  pc.threads = 8;
  const ProposedBlock blk =
      BlockProposer(pc).propose(genesis, ctx_for(1), pool, workers);
  ASSERT_GT(blk.block.transactions.size(), 100u);

  EXPECT_EQ(token_supply(*blk.post_state, gen.token(0)), supply0);
  EXPECT_EQ(token_supply(*blk.post_state, gen.token(1)), supply1);
}

}  // namespace
}  // namespace blockpilot::core

// Multi-block pipeline tests (paper §4.3 Fig. 5, §5.6).
#include <gtest/gtest.h>

#include "commit/commit_pipeline.hpp"
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

BlockBundle bundle_from(const state::WorldState& pre,
                        const std::vector<chain::Transaction>& txs,
                        std::uint64_t height) {
  const SerialResult r = execute_serial(pre, ctx_for(height), std::span(txs));
  BlockBundle b;
  b.block = seal_block(ctx_for(height), r.exec, r.included);
  b.profile = r.exec.profile;
  return b;
}

struct PipelineFixture : ::testing::Test {
  workload::WorkloadGenerator gen{workload::preset_mainnet()};
  state::WorldState genesis = gen.genesis();
};

TEST_F(PipelineFixture, SingleBlockHeight) {
  const std::vector<BlockBundle> siblings = {
      bundle_from(genesis, gen.next_batch(50), 1)};
  ValidatorConfig cfg;
  cfg.threads = 8;
  ValidatorPipeline pipeline(cfg);
  ThreadPool workers(8);
  const auto result =
      pipeline.process_height(genesis, std::span(siblings), workers);
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_TRUE(result.all_valid()) << result.outcomes[0].reject_reason;
  EXPECT_GT(result.stats.virtual_speedup(), 1.0);
}

TEST_F(PipelineFixture, SiblingForksAllValidate) {
  // Four different blocks at the same height (distinct tx sets) — the fork
  // scenario of Fig. 1 / §3.4.
  std::vector<BlockBundle> siblings;
  for (int i = 0; i < 4; ++i)
    siblings.push_back(bundle_from(genesis, gen.next_batch(40), 1));

  ValidatorConfig cfg;
  cfg.threads = 8;
  ValidatorPipeline pipeline(cfg);
  ThreadPool workers(8);
  const auto result =
      pipeline.process_height(genesis, std::span(siblings), workers);
  ASSERT_EQ(result.outcomes.size(), 4u);
  for (const auto& o : result.outcomes)
    EXPECT_TRUE(o.valid) << o.reject_reason;
  EXPECT_EQ(result.stats.blocks, 4u);
}

TEST_F(PipelineFixture, ConcurrentSiblingsMatchPerBlockValidation) {
  // Sibling blocks validate on concurrent driver threads; each verdict and
  // root must match validating that block alone with BlockValidator.
  std::vector<BlockBundle> siblings;
  for (int i = 0; i < 3; ++i)
    siblings.push_back(bundle_from(genesis, gen.next_batch(30), 1));
  siblings[2].block.header.state_root.bytes[0] ^= 0x55;  // one bad fork

  ValidatorConfig cfg;
  cfg.threads = 4;
  ThreadPool workers(4);
  const auto piped = ValidatorPipeline(cfg).process_height(
      genesis, std::span(siblings), workers);

  ASSERT_EQ(piped.outcomes.size(), siblings.size());
  for (std::size_t i = 0; i < siblings.size(); ++i) {
    const auto solo = BlockValidator(cfg).validate(
        genesis, siblings[i].block, siblings[i].profile, workers);
    EXPECT_EQ(piped.outcomes[i].valid, solo.valid) << "sibling " << i;
    EXPECT_EQ(piped.outcomes[i].reject_reason, solo.reject_reason);
    EXPECT_EQ(piped.outcomes[i].exec.state_root, solo.exec.state_root);
  }
  EXPECT_TRUE(piped.outcomes[0].valid) << piped.outcomes[0].reject_reason;
  EXPECT_FALSE(piped.outcomes[2].valid);
}

TEST_F(PipelineFixture, ChainedHeightsThreadState) {
  // Height 1 then height 2 on top of height 1's post state.
  const BlockBundle b1 = bundle_from(genesis, gen.next_batch(30), 1);
  SerialOptions opts;
  opts.drop_unincludable = false;
  const SerialResult r1 = execute_serial(genesis, ctx_for(1),
                                         std::span(b1.block.transactions), opts);
  ASSERT_TRUE(r1.ok);
  const BlockBundle b2 =
      bundle_from(*r1.exec.post_state, gen.next_batch(30), 2);

  const std::vector<std::vector<BlockBundle>> heights = {{b1}, {b2}};
  ValidatorConfig cfg;
  cfg.threads = 4;
  ThreadPool workers(4);
  ChainSession session(cfg, genesis);
  for (const auto& siblings : heights) {
    ASSERT_EQ(session.push_height(std::span(siblings), workers), 0u);
    EXPECT_TRUE(session.settle_next());
  }
  ASSERT_EQ(session.height_count(), 2u);
  EXPECT_TRUE(session.outcome(0, 0).valid)
      << session.outcome(0, 0).reject_reason;
  EXPECT_TRUE(session.outcome(1, 0).valid)
      << session.outcome(1, 0).reject_reason;
  EXPECT_EQ(session.tip().state_root(), session.outcome(1, 0).exec.state_root);
  EXPECT_EQ(session.stats().blocks, 2u);
}

TEST_F(PipelineFixture, InvalidSiblingDoesNotPoisonOthers) {
  std::vector<BlockBundle> siblings;
  siblings.push_back(bundle_from(genesis, gen.next_batch(20), 1));
  siblings.push_back(bundle_from(genesis, gen.next_batch(20), 1));
  siblings[1].block.header.state_root.bytes[0] ^= 0x55;  // corrupt fork

  ValidatorConfig cfg;
  cfg.threads = 4;
  ValidatorPipeline pipeline(cfg);
  ThreadPool workers(4);
  const auto result =
      pipeline.process_height(genesis, std::span(siblings), workers);
  EXPECT_TRUE(result.outcomes[0].valid);
  EXPECT_FALSE(result.outcomes[1].valid);
}

TEST_F(PipelineFixture, ChainSessionChooseRedirectsTip) {
  std::vector<BlockBundle> siblings;
  for (int i = 0; i < 2; ++i)
    siblings.push_back(bundle_from(genesis, gen.next_batch(25), 1));

  ValidatorConfig cfg;
  cfg.threads = 4;
  ThreadPool workers(4);
  ChainSession session(cfg, genesis);
  ASSERT_EQ(session.push_height(std::span(siblings), workers), 0u);

  // A vote for the other sibling re-roots the speculative tip.
  session.choose(0, 1);
  EXPECT_EQ(session.canonical(0), 1u);
  EXPECT_EQ(session.tip().state_root(),
            session.outcome(0, 1).exec.state_root);
}

TEST_F(PipelineFixture, ChainSessionForkChoiceAdoptsSurvivorAndRevokes) {
  // Canonical sibling carries a tampered root; with an async commit pipeline
  // the lie only surfaces at settlement, after a speculative child height
  // was already validated on the doomed tip.
  std::vector<BlockBundle> siblings;
  for (int i = 0; i < 2; ++i)
    siblings.push_back(bundle_from(genesis, gen.next_batch(25), 1));
  siblings[0].block.header.state_root.bytes[0] ^= 0xA5;

  ThreadPool commit_pool(2);
  commit::CommitPipeline commits(&commit_pool);
  ValidatorConfig cfg;
  cfg.threads = 4;
  cfg.commit_pipeline = &commits;
  ThreadPool workers(4);
  ChainSession session(cfg, genesis);
  std::vector<std::size_t> revoked;
  session.set_revocation_callback(
      [&](std::size_t h) { revoked.push_back(h); });

  ASSERT_EQ(session.push_height(std::span(siblings), workers), 0u);
  const std::vector<BlockBundle> child = {
      bundle_from(session.tip(), gen.next_batch(25), 2)};
  ASSERT_EQ(session.push_height(std::span(child), workers), 0u);

  EXPECT_FALSE(session.settle_next());
  const std::size_t survivor = session.fork_choice(0);
  ASSERT_EQ(survivor, 1u);  // the honest sibling's root matched its header
  session.adopt_fork(0, survivor);
  EXPECT_EQ(revoked, (std::vector<std::size_t>{1}));  // child height dropped
  EXPECT_EQ(session.height_count(), 1u);
  EXPECT_EQ(session.tip().state_root(),
            session.outcome(0, 1).exec.state_root);

  // The chain resumes on the survivor and settles clean.
  const std::vector<BlockBundle> regrown = {
      bundle_from(session.tip(), gen.next_batch(25), 2)};
  ASSERT_EQ(session.push_height(std::span(regrown), workers), 0u);
  EXPECT_TRUE(session.settle_next());
  EXPECT_EQ(session.settled_count(), 2u);
}

TEST_F(PipelineFixture, ChainSessionCascadeMarksSuffixInvalid) {
  // No-survivor terminal path: the only sibling lied, so every speculative
  // descendant is condemned with the batch cascade's bookkeeping.
  std::vector<BlockBundle> lone = {bundle_from(genesis, gen.next_batch(20), 1)};
  lone[0].block.header.state_root.bytes[0] ^= 0xA5;

  ThreadPool commit_pool(2);
  commit::CommitPipeline commits(&commit_pool);
  ValidatorConfig cfg;
  cfg.threads = 4;
  cfg.commit_pipeline = &commits;
  ThreadPool workers(4);
  ChainSession session(cfg, genesis);

  ASSERT_EQ(session.push_height(std::span(lone), workers), 0u);
  const std::vector<BlockBundle> child = {
      bundle_from(session.tip(), gen.next_batch(20), 2)};
  ASSERT_EQ(session.push_height(std::span(child), workers), 0u);

  EXPECT_FALSE(session.settle_next());
  EXPECT_EQ(session.fork_choice(0), SIZE_MAX);
  session.cascade_from(1);
  EXPECT_FALSE(session.outcome(1, 0).valid);
  EXPECT_EQ(session.outcome(1, 0).reject_reason,
            "parent block failed commitment");
  EXPECT_EQ(session.settled_count(), 2u);
}

TEST_F(PipelineFixture, ChainSessionQuorumFlagGatesSettlement) {
  // The quorum bit is the network layer's licence to settle: it starts
  // clear, is per-height, and survives the consensus loop's gate pattern
  // (check has_quorum before settle_next) without deadlocking a height
  // whose votes never arrive.
  ValidatorConfig cfg;
  cfg.threads = 4;
  ThreadPool workers(4);
  ChainSession session(cfg, genesis);

  const BlockBundle b1 = bundle_from(genesis, gen.next_batch(20), 1);
  ASSERT_EQ(session.push_height(std::span(&b1, 1), workers), 0u);
  const BlockBundle b2 = bundle_from(session.tip(), gen.next_batch(20), 2);
  ASSERT_EQ(session.push_height(std::span(&b2, 1), workers), 0u);

  EXPECT_FALSE(session.has_quorum(0));
  EXPECT_FALSE(session.has_quorum(1));
  session.mark_quorum(0);
  EXPECT_TRUE(session.has_quorum(0));
  EXPECT_FALSE(session.has_quorum(1));  // per height, not sticky-global

  // Consensus-loop settle gate: only quorate heights settle.
  ASSERT_TRUE(session.can_settle());
  EXPECT_TRUE(session.settle_next());
  EXPECT_EQ(session.settled_count(), 1u);
  EXPECT_EQ(session.unsettled_count(), 1u);

  // Height 1's votes are lost for good: the loop parks it (no settle call)
  // and later re-proposes.  The session neither deadlocks nor double
  // settles — the replacement height settles exactly once.
  EXPECT_FALSE(session.has_quorum(1));
  session.drop_unsettled(1);
  EXPECT_EQ(session.unsettled_count(), 0u);
  EXPECT_FALSE(session.can_settle());

  const BlockBundle b2r = bundle_from(session.tip(), gen.next_batch(20), 2);
  ASSERT_EQ(session.push_height(std::span(&b2r, 1), workers), 0u);
  EXPECT_FALSE(session.has_quorum(1));  // fresh record: flag starts clear
  session.mark_quorum(1);
  EXPECT_TRUE(session.settle_next());
  EXPECT_EQ(session.settled_count(), 2u);
  EXPECT_FALSE(session.can_settle());  // nothing left — callers stop here
}

TEST_F(PipelineFixture, ChainSessionDropUnsettledRewindsTipAndDrainsCommits) {
  // Quorum-miss re-proposal with an async commit pipeline: dropping a
  // speculative suffix abandons pending CommitHandles mid-flight.  The
  // revocations fire ascending, the tip rewinds to the settled prefix, and
  // the pipeline publishes the orphaned submissions instead of wedging.
  ThreadPool commit_pool(2);
  commit::CommitPipeline commits(&commit_pool);
  ValidatorConfig cfg;
  cfg.threads = 4;
  cfg.commit_pipeline = &commits;
  ThreadPool workers(4);
  ChainSession session(cfg, genesis);
  std::vector<std::size_t> revoked;
  session.set_revocation_callback(
      [&](std::size_t h) { revoked.push_back(h); });

  const BlockBundle b1 = bundle_from(genesis, gen.next_batch(25), 1);
  ASSERT_EQ(session.push_height(std::span(&b1, 1), workers), 0u);
  session.mark_quorum(0);
  ASSERT_TRUE(session.settle_next());
  const Hash256 settled_tip = session.tip().state_root();

  const BlockBundle b2 = bundle_from(session.tip(), gen.next_batch(25), 2);
  ASSERT_EQ(session.push_height(std::span(&b2, 1), workers), 0u);
  const BlockBundle b3 = bundle_from(session.tip(), gen.next_batch(25), 3);
  ASSERT_EQ(session.push_height(std::span(&b3, 1), workers), 0u);

  session.drop_unsettled(1);  // both unsettled heights go, oldest first
  EXPECT_EQ(revoked, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(session.height_count(), 1u);
  EXPECT_EQ(session.settled_count(), 1u);
  EXPECT_EQ(session.tip().state_root(), settled_tip);

  // Abandoned submissions publish on their own: the pipeline drains to
  // zero pending and its counters balance.
  commits.drain();
  EXPECT_EQ(commits.pending(), 0u);
  EXPECT_EQ(commits.stats().settled, commits.stats().submitted);

  // The chain regrows from the surviving tip and settles clean.
  const BlockBundle b2r = bundle_from(session.tip(), gen.next_batch(25), 2);
  ASSERT_EQ(session.push_height(std::span(&b2r, 1), workers), 0u);
  session.mark_quorum(1);
  EXPECT_TRUE(session.settle_next());
  EXPECT_EQ(session.settled_count(), 2u);
}

TEST(PipelineSim, SingleBlockSingleWorker) {
  const std::uint64_t makespan = simulate_shared_workers(
      {{0, 100}, {0, 200}, {0, 300}}, 1, 50);
  EXPECT_EQ(makespan, 600u);  // same block: no switch cost
}

TEST(PipelineSim, SwitchCostChargedAcrossBlocks) {
  // One worker alternating between blocks pays the switch each time.
  const std::uint64_t makespan = simulate_shared_workers(
      {{0, 100}, {1, 100}, {0, 100}, {1, 100}}, 1, 10);
  // LPT order groups equal costs by block index: 0,0,1,1 -> one switch.
  EXPECT_EQ(makespan, 400u + 10u);
}

TEST(PipelineSim, PerfectSplitAcrossWorkers) {
  const std::uint64_t makespan = simulate_shared_workers(
      {{0, 100}, {1, 100}}, 2, 10);
  EXPECT_EQ(makespan, 100u);  // each worker one block, no switches
}

TEST(PipelineSim, MoreBlocksIncreaseSwitchOverhead) {
  // Fixed total work split over increasingly many blocks on few workers.
  std::vector<PipelineJob> one_block, four_blocks;
  for (int i = 0; i < 16; ++i) {
    one_block.push_back({0, 100});
    four_blocks.push_back({static_cast<std::size_t>(i % 4), 100});
  }
  const auto m1 = simulate_shared_workers(one_block, 2, 50);
  const auto m4 = simulate_shared_workers(four_blocks, 2, 50);
  EXPECT_GT(m4, m1);
}

}  // namespace
}  // namespace blockpilot::core

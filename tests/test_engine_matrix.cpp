// Engine-differential matrix (docs/blockstm.md §8): the gate for the
// Block-STM validator and the adaptive per-block engine selection.
//
// The acceptance surface:
//  * {OCC-WSI, Block-STM} proposer x {subgraph-LPT, Block-STM} validator
//    over the four workload presets, a seed sweep, and {1, 2, 8} threads —
//    verdicts, state roots, gas, and receipts must be bit-identical across
//    every cell (the two validators accept exactly the same blocks because
//    both reduce to "serial preset-order execution matches profile+header");
//  * Byzantine-tampered blocks are rejected identically by both validators;
//  * ESTIMATE pre-seeding is strictly a scheduling hint: stale seed sets
//    (extra keys never written, missing keys actually written, or no seeds
//    at all) degrade to extra suspensions/validation waves, never to a
//    different verdict or root;
//  * adaptive selection is bit-reproducible: seeded NodeDriver re-runs pick
//    the same engine at every height, and a regime flip (low-conflict vs
//    dex-heavy traffic) actually flips the pick.
//
// Sweeps trim under sanitizers like the ingest soak does: the tool's value
// is in the interleavings it explores, not the scenario count.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/blockpilot.hpp"
#include "core/node_driver.hpp"
#include "state/versioned_state.hpp"

#if defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

namespace blockpilot::core {
namespace {

using state::MvMemory;
using state::StateKey;

evm::BlockContext ctx_for(std::uint64_t height) {
  evm::BlockContext ctx;
  ctx.number = height;
  ctx.timestamp = 1'700'000'000 + height * 12;
  ctx.coinbase = Address::from_id(0xC0FFEE);
  return ctx;
}

struct NamedWorkload {
  const char* name;
  workload::WorkloadConfig cfg;
};

std::vector<NamedWorkload> matrix_workloads() {
  return {{"mainnet", workload::preset_mainnet()},
          {"low-conflict", workload::preset_low_conflict()},
          {"high-conflict", workload::preset_high_conflict()},
          {"nft-drop", workload::preset_nft_drop()}};
}

ProposedBlock propose_with(ScheduleMode mode, const state::WorldState& pre,
                           std::vector<chain::Transaction> txs) {
  txpool::TxPool pool;
  pool.add_all(std::move(txs));
  ProposerConfig pc;
  pc.mode = mode;
  pc.threads = 4;
  BlockProposer proposer(pc);
  ThreadPool workers(1);  // virtual-time engines never touch the pool
  return proposer.propose(pre, ctx_for(1), pool, workers);
}

ValidationOutcome validate_with(ValidatorEngine engine, std::size_t threads,
                                const state::WorldState& pre,
                                const BlockBundle& bundle) {
  ValidatorConfig vc;
  vc.engine = engine;
  vc.threads = threads;
  ThreadPool workers(std::max<std::size_t>(threads, 1));
  return BlockValidator(vc).validate(pre, bundle.block, bundle.profile,
                                     workers);
}

/// The cross-engine identity the matrix gates: same verdict, and on accept
/// the same root, gas, and bit-identical receipts.
void expect_identical(const ValidationOutcome& lpt,
                      const ValidationOutcome& stm, const char* what) {
  ASSERT_EQ(lpt.valid, stm.valid)
      << what << ": lpt='" << lpt.reject_reason << "' stm='"
      << stm.reject_reason << "'";
  if (!lpt.valid) return;
  EXPECT_EQ(lpt.exec.state_root, stm.exec.state_root) << what;
  EXPECT_EQ(lpt.exec.gas_used, stm.exec.gas_used) << what;
  ASSERT_EQ(lpt.exec.receipts.size(), stm.exec.receipts.size()) << what;
  EXPECT_EQ(chain::receipts_root(lpt.exec.receipts),
            chain::receipts_root(stm.exec.receipts))
      << what;
  for (std::size_t i = 0; i < lpt.exec.receipts.size(); ++i) {
    EXPECT_EQ(lpt.exec.receipts[i].success, stm.exec.receipts[i].success)
        << what << " tx " << i;
    EXPECT_EQ(lpt.exec.receipts[i].gas_used, stm.exec.receipts[i].gas_used)
        << what << " tx " << i;
  }
}

// ---- the 2x2 engine matrix ------------------------------------------------

TEST(EngineMatrix, ProposerByValidatorAcrossRegimesSeedsAndThreads) {
  const std::uint64_t seeds = kSanitized ? 2 : 8;
  const std::vector<std::size_t> thread_counts =
      kSanitized ? std::vector<std::size_t>{2}
                 : std::vector<std::size_t>{1, 2, 8};
  const ScheduleMode proposers[] = {ScheduleMode::kVirtualTime,
                                    ScheduleMode::kBlockStm};
  std::size_t cells = 0;
  for (const NamedWorkload& wl : matrix_workloads()) {
    for (std::uint64_t s = 0; s < seeds; ++s) {
      workload::WorkloadConfig cfg = wl.cfg;
      cfg.seed = 0xE17 + s * 6151;
      cfg.txs_per_block = 48;
      workload::WorkloadGenerator gen(cfg);
      // Committed by genesis(): every validation's post-state copy rehashes
      // only its dirty paths instead of the whole genesis trie.
      const state::WorldState genesis = gen.genesis();
      const auto txs = gen.next_block();
      for (const ScheduleMode pmode : proposers) {
        const ProposedBlock blk = propose_with(pmode, genesis, txs);
        BlockBundle bundle;
        bundle.block = blk.block;
        bundle.profile = blk.profile;
        for (const std::size_t threads : thread_counts) {
          const std::string what =
              std::string(wl.name) + "/seed" + std::to_string(s) +
              (pmode == ScheduleMode::kBlockStm ? "/stm-proposer" :
                                                  "/occ-proposer") +
              "/t" + std::to_string(threads);
          const auto lpt = validate_with(ValidatorEngine::kSubgraphLpt,
                                         threads, genesis, bundle);
          const auto stm = validate_with(ValidatorEngine::kBlockStm, threads,
                                         genesis, bundle);
          const auto host = validate_with(ValidatorEngine::kBlockStmHost,
                                          threads, genesis, bundle);
          EXPECT_TRUE(lpt.valid) << what << ": " << lpt.reject_reason;
          expect_identical(lpt, stm, what.c_str());
          expect_identical(lpt, host, what.c_str());
          EXPECT_EQ(stm.exec.state_root, bundle.block.header.state_root)
              << what;
          EXPECT_EQ(lpt.stats.engine_used, ValidatorEngine::kSubgraphLpt);
          EXPECT_EQ(stm.stats.engine_used, ValidatorEngine::kBlockStm);
          EXPECT_EQ(host.stats.engine_used, ValidatorEngine::kBlockStmHost);
          ++cells;
        }
      }
    }
  }
  EXPECT_EQ(cells, matrix_workloads().size() * seeds * 2 *
                       thread_counts.size());
}

// ---- Byzantine tampering: identical rejection -----------------------------

struct TamperedMatrix : ::testing::Test {
  workload::WorkloadGenerator gen{workload::preset_mainnet()};
  state::WorldState genesis = gen.genesis();

  BlockBundle honest(std::size_t txs) {
    const SerialResult r =
        execute_serial(genesis, ctx_for(1), std::span(batch_ = gen.next_batch(txs)));
    BlockBundle bundle;
    bundle.block = seal_block(ctx_for(1), r.exec, r.included);
    bundle.profile = r.exec.profile;
    return bundle;
  }

  /// Both validators must reject; when `same_reason`, with the same string
  /// (scheduling-dependent tampers may trip different checks first).
  void expect_both_reject(const BlockBundle& bundle, const char* what,
                          bool same_reason = true) {
    const auto lpt =
        validate_with(ValidatorEngine::kSubgraphLpt, 4, genesis, bundle);
    const auto stm =
        validate_with(ValidatorEngine::kBlockStm, 4, genesis, bundle);
    const auto host =
        validate_with(ValidatorEngine::kBlockStmHost, 4, genesis, bundle);
    EXPECT_FALSE(lpt.valid) << what;
    EXPECT_FALSE(stm.valid) << what;
    EXPECT_FALSE(host.valid) << what;
    if (same_reason) {
      EXPECT_EQ(lpt.reject_reason, stm.reject_reason) << what;
      EXPECT_EQ(lpt.reject_reason, host.reject_reason) << what;
    }
  }

 private:
  std::vector<chain::Transaction> batch_;
};

TEST_F(TamperedMatrix, StateRoot) {
  auto b = honest(40);
  b.block.header.state_root.bytes[0] ^= 0xA5;
  expect_both_reject(b, "state root");
}

TEST_F(TamperedMatrix, GasUsed) {
  auto b = honest(40);
  b.block.header.gas_used += 1;
  expect_both_reject(b, "gas used");
}

TEST_F(TamperedMatrix, ReceiptsRoot) {
  auto b = honest(40);
  b.block.header.receipts_root.bytes[7] ^= 0x42;
  expect_both_reject(b, "receipts root");
}

TEST_F(TamperedMatrix, ProfileSize) {
  auto b = honest(20);
  b.profile.txs.pop_back();
  expect_both_reject(b, "profile size");
}

TEST_F(TamperedMatrix, ProfileReadSet) {
  auto b = honest(40);
  b.profile.txs[5].reads.push_back(
      state::StateKey::balance(Address::from_id(0xDEAD)));
  std::sort(b.profile.txs[5].reads.begin(), b.profile.txs[5].reads.end(),
            state::state_key_less);
  expect_both_reject(b, "profile read set");
}

TEST_F(TamperedMatrix, ProfileWriteValue) {
  auto b = honest(40);
  ASSERT_FALSE(b.profile.txs[3].writes.empty());
  b.profile.txs[3].writes[0].second += U256{1};
  // A lying write value steers the two schedulers differently before the
  // write-set check fires, so only the verdict is gated.
  expect_both_reject(b, "profile write value", /*same_reason=*/false);
}

TEST_F(TamperedMatrix, TransactionBody) {
  auto b = honest(40);
  b.block.transactions[4].value += U256{1};
  expect_both_reject(b, "transaction body", /*same_reason=*/false);
}

// ---- ESTIMATE pre-seeding -------------------------------------------------

TEST(EstimateSeeding, SeedsReadAsEstimatesAndRealWritesReplaceThem) {
  state::WorldState base;
  const Address acct = Address::from_id(7);
  const StateKey key = StateKey::balance(acct);
  const StateKey stale = StateKey::nonce(acct);
  base.set(key, U256{1000});

  MvMemory mv(base, 4);
  mv.seed_estimates(1, {{key, U256{0}}, {stale, U256{0}}});

  // Higher transactions see the seeded footprint as ESTIMATE (suspend), not
  // as a value.
  auto r = mv.read(key, 3);
  ASSERT_EQ(r.kind, MvMemory::ReadKind::kEstimate);
  EXPECT_EQ(r.version.txn, 1u);
  EXPECT_EQ(mv.read(stale, 2).kind, MvMemory::ReadKind::kEstimate);

  // The first real record is incarnation 0 too: seeded keys it writes are
  // replaced, seeded keys it does not write are erased (write-set shrink),
  // and the record reports no new location (no validation wave).
  EXPECT_FALSE(mv.record(1, 0, {{key, U256{900}}}));
  r = mv.read(key, 3);
  ASSERT_EQ(r.kind, MvMemory::ReadKind::kOk);
  EXPECT_EQ(r.value, U256{900});
  EXPECT_EQ(mv.read(stale, 2).kind, MvMemory::ReadKind::kBase);
}

TEST(EstimateSeeding, MissingSeedKeyIsANewLocation) {
  state::WorldState base;
  const Address acct = Address::from_id(9);
  const StateKey seeded = StateKey::balance(acct);
  const StateKey unseeded = StateKey::nonce(acct);

  MvMemory mv(base, 4);
  mv.seed_estimates(2, {{seeded, U256{0}}});
  // A write the profile did not announce is a genuinely new location: the
  // record must report it so the scheduler re-validates higher readers.
  EXPECT_TRUE(mv.record(2, 0, {{seeded, U256{1}}, {unseeded, U256{2}}}));
}

TEST(EstimateSeeding, StaleSeedsNeverChangeTheVerdict) {
  workload::WorkloadConfig cfg = workload::preset_high_conflict();
  cfg.seed = 0x5EED5;
  cfg.txs_per_block = 48;
  workload::WorkloadGenerator gen(cfg);
  const state::WorldState genesis = gen.genesis();
  const auto txs = gen.next_block();
  const SerialResult r = execute_serial(genesis, ctx_for(1), std::span(txs));
  BlockBundle bundle;
  bundle.block = seal_block(ctx_for(1), r.exec, r.included);
  bundle.profile = r.exec.profile;

  ThreadPool workers(4);
  ValidatorConfig vc;
  vc.engine = ValidatorEngine::kBlockStm;
  vc.threads = 4;
  const auto honest =
      BlockValidator(vc).validate(genesis, bundle.block, bundle.profile,
                                  workers);
  ASSERT_TRUE(honest.valid) << honest.reject_reason;

  // Stale profile: extra keys never written + every third tx's write set
  // dropped entirely (keys actually written but never seeded).
  chain::BlockProfile stale = bundle.profile;
  for (std::size_t i = 0; i < stale.txs.size(); ++i) {
    if (i % 3 == 0) {
      stale.txs[i].writes.clear();
    } else {
      stale.txs[i].writes.emplace_back(
          StateKey::balance(Address::from_id(0xABCDE0 + i)), U256{1});
    }
  }
  ValidatorConfig stale_vc = vc;
  stale_vc.stm_seed_override = &stale;
  const auto degraded = BlockValidator(stale_vc).validate(
      genesis, bundle.block, bundle.profile, workers);
  ASSERT_TRUE(degraded.valid) << degraded.reject_reason;
  EXPECT_EQ(degraded.exec.state_root, honest.exec.state_root);
  EXPECT_EQ(degraded.exec.gas_used, honest.exec.gas_used);
  EXPECT_EQ(chain::receipts_root(degraded.exec.receipts),
            chain::receipts_root(honest.exec.receipts));
  // The stale seeds cost replay dynamics, not correctness: the degraded run
  // can only do more re-validation work than the honestly-seeded one.
  EXPECT_GE(degraded.stats.stm_validation_waves + degraded.stats.stm_aborts,
            honest.stats.stm_validation_waves + honest.stats.stm_aborts);

  // No seeds at all (empty profile override) — the pure Block-STM regime —
  // must also converge to the same result.
  chain::BlockProfile none;
  ValidatorConfig bare_vc = vc;
  bare_vc.stm_seed_override = &none;
  const auto bare = BlockValidator(bare_vc).validate(
      genesis, bundle.block, bundle.profile, workers);
  ASSERT_TRUE(bare.valid) << bare.reject_reason;
  EXPECT_EQ(bare.exec.state_root, honest.exec.state_root);
}

// ---- adaptive selection ---------------------------------------------------

TEST(AdaptiveSelection, ProposerFlipsWithTheConflictRegime) {
  // Dex-heavy stream: the first proposal runs OCC-WSI (cold signal), then
  // the measured largest-subgraph ratio crosses the threshold and every
  // subsequent proposal runs Block-STM.
  workload::WorkloadConfig hot = workload::preset_high_conflict();
  hot.seed = 0xF11F;
  hot.txs_per_block = 48;
  workload::WorkloadGenerator gen(hot);
  const state::WorldState genesis = gen.genesis();

  ProposerConfig pc;
  pc.mode = ScheduleMode::kAdaptive;
  pc.threads = 4;
  BlockProposer proposer(pc);
  ThreadPool workers(1);

  auto tip = std::make_shared<const state::WorldState>(genesis);
  std::vector<ScheduleMode> picks;
  double last_ratio = 0.0;
  for (std::uint64_t h = 1; h <= 3; ++h) {
    txpool::TxPool pool;
    pool.add_all(gen.next_block());
    ProposedBlock blk = proposer.propose(*tip, ctx_for(h), pool, workers);
    picks.push_back(blk.stats.engine_used);
    last_ratio = blk.stats.largest_subgraph_ratio;
    tip = blk.post_state;
  }
  ASSERT_GT(last_ratio, kAdaptiveStmThreshold)
      << "preset_high_conflict no longer exceeds the adaptive threshold";
  EXPECT_EQ(picks[0], ScheduleMode::kVirtualTime);  // cold signal
  EXPECT_EQ(picks[1], ScheduleMode::kBlockStm);
  EXPECT_EQ(picks[2], ScheduleMode::kBlockStm);

  // Low-conflict stream: the signal never crosses, every pick stays OCC.
  workload::WorkloadConfig cold = workload::preset_low_conflict();
  cold.seed = 0xF11F;
  cold.txs_per_block = 48;
  workload::WorkloadGenerator cold_gen(cold);
  const state::WorldState cold_genesis = cold_gen.genesis();
  BlockProposer cold_proposer(pc);
  auto cold_tip = std::make_shared<const state::WorldState>(cold_genesis);
  for (std::uint64_t h = 1; h <= 3; ++h) {
    txpool::TxPool pool;
    pool.add_all(cold_gen.next_block());
    ProposedBlock blk =
        cold_proposer.propose(*cold_tip, ctx_for(h), pool, workers);
    EXPECT_EQ(blk.stats.engine_used, ScheduleMode::kVirtualTime)
        << "height " << h
        << " ratio=" << blk.stats.largest_subgraph_ratio;
    cold_tip = blk.post_state;
  }
}

TEST(AdaptiveSelection, ValidatorResolvesFromTheBlocksOwnProfile) {
  // High-conflict block -> Block-STM replay; low-conflict -> subgraph-LPT.
  for (const bool hot : {true, false}) {
    workload::WorkloadConfig cfg = hot ? workload::preset_high_conflict()
                                       : workload::preset_low_conflict();
    cfg.seed = 0xADA7;
    cfg.txs_per_block = 48;
    workload::WorkloadGenerator gen(cfg);
    const state::WorldState genesis = gen.genesis();
    const auto txs = gen.next_block();
    const SerialResult r = execute_serial(genesis, ctx_for(1), std::span(txs));
    BlockBundle bundle;
    bundle.block = seal_block(ctx_for(1), r.exec, r.included);
    bundle.profile = r.exec.profile;

    const auto outcome =
        validate_with(ValidatorEngine::kAdaptive, 4, genesis, bundle);
    ASSERT_TRUE(outcome.valid) << outcome.reject_reason;
    EXPECT_EQ(outcome.exec.state_root, bundle.block.header.state_root);
    EXPECT_EQ(outcome.stats.engine_used, hot ? ValidatorEngine::kBlockStm
                                             : ValidatorEngine::kSubgraphLpt)
        << (hot ? "high" : "low")
        << "-conflict ratio=" << outcome.stats.largest_subgraph_ratio;
  }
}

NodeDriverConfig adaptive_config(const workload::TrafficProfile& profile,
                                 std::uint64_t seed) {
  NodeDriverConfig cfg;
  cfg.profile = profile;
  cfg.seed = seed;
  cfg.proposer.mode = ScheduleMode::kAdaptive;
  cfg.proposer.threads = 4;
  cfg.proposer.max_txs = 48;
  cfg.pool.max_txs = 512;
  cfg.pool.max_bytes = 512 * 200;
  cfg.pool.enforce_nonce_order = true;
  cfg.blocks = kSanitized ? 4 : 8;
  cfg.ticks_per_block = 2;
  return cfg;
}

TEST(AdaptiveSelection, NodeDriverRunsAreBitStablePerSeed) {
  // The determinism fuzz: seeded adaptive runs must re-pick the same engine
  // at every height and rebuild the same chain, across a steady profile and
  // a dex-heavy one (the engine mix differs between the two).
  workload::TrafficProfile steady = workload::traffic_steady();
  workload::TrafficProfile dexheavy = workload::traffic_steady();
  dexheavy.name = "dex-heavy";
  dexheavy.base.dex_fraction = 0.85;
  dexheavy.base.token_fraction = 0.10;
  dexheavy.base.contract_zipf_s = 2.2;

  const std::uint64_t seeds = kSanitized ? 4 : 32;
  std::size_t stm_blocks = 0, occ_blocks = 0;
  for (const auto& profile : {steady, dexheavy}) {
    for (std::uint64_t s = 0; s < seeds; ++s) {
      const std::uint64_t seed = 0xADA + s * 7919;
      NodeDriver a(adaptive_config(profile, seed));
      NodeDriver b(adaptive_config(profile, seed));
      const NodeDriverResult ra = a.run();
      const NodeDriverResult rb = b.run();
      EXPECT_EQ(ra.engine_by_height, rb.engine_by_height)
          << profile.name << "/" << seed;
      EXPECT_EQ(ra.block_hashes, rb.block_hashes)
          << profile.name << "/" << seed;
      EXPECT_EQ(ra.final_state_root, rb.final_state_root)
          << profile.name << "/" << seed;
      for (const ScheduleMode m : ra.engine_by_height)
        (m == ScheduleMode::kBlockStm ? stm_blocks : occ_blocks) += 1;
    }
  }
  // The sweep must actually exercise both engines (the dex-heavy profile
  // pushes past the threshold; steady stays below).
  EXPECT_GT(stm_blocks, 0u);
  EXPECT_GT(occ_blocks, 0u);
}

}  // namespace
}  // namespace blockpilot::core

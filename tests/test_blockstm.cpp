// Block-STM engine tests (docs/blockstm.md): the multi-version memory, the
// collaborative scheduler, and the central exactness property — a Block-STM
// block is bit-identical to serially executing the same candidates in their
// pool pop order.  The host-threads cases double as the `tsan-stm` hammer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <tuple>

#include "core/blockpilot.hpp"
#include "sched/blockstm_scheduler.hpp"
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

using sched::BlockStmScheduler;
using state::MvMemory;
using state::MvView;
using state::StateKey;
using state::WorldState;
using Task = BlockStmScheduler::Task;

evm::BlockContext ctx_for(std::uint64_t height) {
  evm::BlockContext ctx;
  ctx.number = height;
  ctx.timestamp = 1'700'000'000 + height * 12;
  ctx.coinbase = Address::from_id(0xC0FFEE);
  return ctx;
}

// ---- MvMemory -------------------------------------------------------------

struct MvMemoryFixture : ::testing::Test {
  WorldState base;
  Address acct = Address::from_id(7);
  StateKey key = StateKey::balance(acct);

  MvMemoryFixture() { base.set(key, U256{1000}); }
};

TEST_F(MvMemoryFixture, ReadsHighestLowerWriter) {
  MvMemory mv(base, 8);
  mv.record(2, 0, {{key, U256{200}}});
  mv.record(5, 0, {{key, U256{500}}});

  // txn 1 sees no lower writer: pre-block state.
  auto r = mv.read(key, 1);
  EXPECT_EQ(r.kind, MvMemory::ReadKind::kBase);
  EXPECT_EQ(r.value, U256{1000});

  // txn 4 sees txn 2 (highest writer below it), not txn 5.
  r = mv.read(key, 4);
  ASSERT_EQ(r.kind, MvMemory::ReadKind::kOk);
  EXPECT_EQ(r.value, U256{200});
  EXPECT_EQ(r.version.txn, 2u);
  EXPECT_EQ(r.version.incarnation, 0u);

  r = mv.read(key, 7);
  ASSERT_EQ(r.kind, MvMemory::ReadKind::kOk);
  EXPECT_EQ(r.value, U256{500});
  EXPECT_EQ(r.version.txn, 5u);

  // A transaction never reads its own entry.
  r = mv.read(key, 5);
  ASSERT_EQ(r.kind, MvMemory::ReadKind::kOk);
  EXPECT_EQ(r.version.txn, 2u);
}

TEST_F(MvMemoryFixture, EstimateMarksAbortedFootprint) {
  MvMemory mv(base, 4);
  mv.record(1, 0, {{key, U256{111}}});
  mv.convert_to_estimates(1);

  auto r = mv.read(key, 3);
  ASSERT_EQ(r.kind, MvMemory::ReadKind::kEstimate);
  EXPECT_EQ(r.version.txn, 1u);

  // The next incarnation's write clears the marker and bumps the version.
  mv.record(1, 1, {{key, U256{112}}});
  r = mv.read(key, 3);
  ASSERT_EQ(r.kind, MvMemory::ReadKind::kOk);
  EXPECT_EQ(r.value, U256{112});
  EXPECT_EQ(r.version.incarnation, 1u);
}

TEST_F(MvMemoryFixture, RecordDiffsWriteSetsAcrossIncarnations) {
  MvMemory mv(base, 4);
  const StateKey other = StateKey::nonce(acct);

  EXPECT_TRUE(mv.record(1, 0, {{key, U256{1}}, {other, U256{2}}}));
  // Same locations rewritten: no new location.
  EXPECT_FALSE(mv.record(1, 1, {{key, U256{3}}, {other, U256{4}}}));
  // Shrunk write set: `other` must disappear from the memory.
  EXPECT_FALSE(mv.record(1, 2, {{key, U256{5}}}));
  EXPECT_EQ(mv.read(other, 3).kind, MvMemory::ReadKind::kBase);
  // Writing it again is a new location for incarnation 3.
  EXPECT_TRUE(mv.record(1, 3, {{key, U256{6}}, {other, U256{7}}}));
}

TEST_F(MvMemoryFixture, FlattenMaterializesLastWriter) {
  MvMemory mv(base, 4);
  mv.record(0, 0, {{key, U256{10}}});
  mv.record(2, 1, {{key, U256{30}}});

  WorldState out = base;
  mv.flatten_into(out);
  EXPECT_EQ(out.get(key), U256{30});
}

TEST_F(MvMemoryFixture, ViewLogsVersionsAndMemoizes) {
  MvMemory mv(base, 4);
  mv.record(0, 0, {{key, U256{42}}});

  MvView view(mv);
  view.begin(2);
  EXPECT_EQ(view.read(key), U256{42});
  EXPECT_EQ(view.read(key), U256{42});  // memoized
  ASSERT_EQ(view.read_log().size(), 1u);
  EXPECT_EQ(view.read_log()[0].version.txn, 0u);

  // Lower txn re-executes underneath: the memo keeps this incarnation's
  // reads repeatable (validation catches the change, not the execution).
  mv.record(0, 1, {{key, U256{43}}});
  EXPECT_EQ(view.read(key), U256{42});

  const StateKey other = StateKey::nonce(acct);
  view.begin(1);  // re-arm clears the memo and the log
  EXPECT_EQ(view.read(other), base.get(other));
  ASSERT_EQ(view.read_log().size(), 1u);
  EXPECT_EQ(view.read_log()[0].version.txn, MvMemory::Version::kBase);
  EXPECT_FALSE(view.blocked());
}

// ---- BlockStmScheduler ----------------------------------------------------

/// next_task() may return kNone while the validation counter burns through
/// still-executing transactions (finish_execution re-covers them); real
/// workers just retry.  Spin a few times for the expected kind.
Task claim(BlockStmScheduler& s, Task::Kind kind, int spins = 16) {
  for (int i = 0; i < spins; ++i) {
    Task t = s.next_task();
    if (t.kind == kind) return t;
    EXPECT_FALSE(t) << "unexpected task of the other kind";
  }
  return {};
}

TEST(BlockStmScheduler, HandsOutExecutionsInPresetOrder) {
  BlockStmScheduler s(3);
  for (std::uint32_t i = 0; i < 3; ++i) {
    Task t = claim(s, Task::Kind::kExecute);
    ASSERT_TRUE(t);
    EXPECT_EQ(t.txn, i);
    EXPECT_EQ(t.incarnation, 0u);
  }
  EXPECT_FALSE(s.next_task());  // everything claimed, nothing validatable yet
  EXPECT_FALSE(s.done());
}

TEST(BlockStmScheduler, CleanPathExecutesValidatesCompletes) {
  BlockStmScheduler s(2);
  Task e0 = claim(s, Task::Kind::kExecute);
  Task e1 = claim(s, Task::Kind::kExecute);
  ASSERT_TRUE(e0 && e1);

  // The validation counter already burned past txn 0 while claiming txn 1
  // (it re-checks on finish), so txn 0's revalidation comes back directly;
  // txn 1's is still covered by the counter and comes from next_task().
  Task v0 = s.finish_execution(e0.txn, e0.incarnation, false);
  ASSERT_EQ(v0.kind, Task::Kind::kValidate);
  EXPECT_EQ(v0.txn, 0u);
  EXPECT_FALSE(s.finish_execution(e1.txn, e1.incarnation, false));
  Task v1 = claim(s, Task::Kind::kValidate);
  ASSERT_TRUE(v1);
  EXPECT_EQ(v1.txn, 1u);

  EXPECT_FALSE(s.finish_validation(v0.txn, v0.incarnation, false));
  EXPECT_FALSE(s.done());
  EXPECT_FALSE(s.finish_validation(v1.txn, v1.incarnation, false));
  EXPECT_TRUE(s.done());
  EXPECT_EQ(s.aborts(), 0u);
}

TEST(BlockStmScheduler, AbortSchedulesReexecutionAndWave) {
  BlockStmScheduler s(3);
  Task e0 = claim(s, Task::Kind::kExecute);
  Task e1 = claim(s, Task::Kind::kExecute);
  Task e2 = claim(s, Task::Kind::kExecute);
  ASSERT_TRUE(e0 && e1 && e2);
  Task v0 = s.finish_execution(e0.txn, e0.incarnation, false);
  Task v1 = s.finish_execution(e1.txn, e1.incarnation, false);
  ASSERT_TRUE(v0 && v1);
  EXPECT_FALSE(s.finish_execution(e2.txn, e2.incarnation, false));
  Task v2 = claim(s, Task::Kind::kValidate);
  ASSERT_TRUE(v2);
  EXPECT_EQ(v2.txn, 2u);

  EXPECT_FALSE(s.finish_validation(v0.txn, v0.incarnation, false));
  EXPECT_FALSE(s.finish_validation(v2.txn, v2.incarnation, false));

  // txn 1 fails validation: abort, incarnation 1 becomes the follow-up.
  ASSERT_TRUE(s.try_validation_abort(1, 0));
  EXPECT_FALSE(s.try_validation_abort(1, 0));  // idempotent-once
  Task re = s.finish_validation(1, 0, true);
  ASSERT_EQ(re.kind, Task::Kind::kExecute);
  EXPECT_EQ(re.txn, 1u);
  EXPECT_EQ(re.incarnation, 1u);
  EXPECT_EQ(s.aborts(), 1u);

  // The re-execution writes a new location: no direct revalidation task —
  // the lowered wave counter re-covers txn 1 and the already-validated
  // txn 2 through next_task().
  EXPECT_FALSE(s.finish_execution(1, 1, /*wrote_new_location=*/true));
  Task v1b = claim(s, Task::Kind::kValidate);
  ASSERT_TRUE(v1b);
  EXPECT_EQ(v1b.txn, 1u);
  EXPECT_EQ(v1b.incarnation, 1u);
  EXPECT_FALSE(s.finish_validation(v1b.txn, v1b.incarnation, false));

  Task v2b = claim(s, Task::Kind::kValidate);
  ASSERT_TRUE(v2b);
  EXPECT_EQ(v2b.txn, 2u);
  EXPECT_FALSE(s.finish_validation(v2b.txn, v2b.incarnation, false));
  EXPECT_TRUE(s.done());
}

TEST(BlockStmScheduler, DependencySuspendsAndResumes) {
  BlockStmScheduler s(2);
  Task e0 = claim(s, Task::Kind::kExecute);
  Task e1 = claim(s, Task::Kind::kExecute);
  ASSERT_TRUE(e0 && e1);

  // txn 1 read txn 0's ESTIMATE: park it on txn 0.
  ASSERT_TRUE(s.add_dependency(1, 0));
  EXPECT_FALSE(s.next_task());  // suspended, not claimable

  // txn 0 finishing resumes txn 1 (same incarnation re-issued).
  Task v0 = s.finish_execution(0, 0, false);
  ASSERT_EQ(v0.kind, Task::Kind::kValidate);
  Task e1b = claim(s, Task::Kind::kExecute);
  ASSERT_TRUE(e1b);
  EXPECT_EQ(e1b.txn, 1u);
  EXPECT_EQ(e1b.incarnation, 0u);

  // Racing the other way: blocking txn already executed -> caller retries.
  EXPECT_FALSE(s.add_dependency(1, 0));

  Task v1 = s.finish_execution(1, 0, false);
  EXPECT_FALSE(s.finish_validation(v0.txn, v0.incarnation, false));
  EXPECT_FALSE(s.finish_validation(v1.txn, v1.incarnation, false));
  EXPECT_TRUE(s.done());
}

// ---- cross-engine differential -------------------------------------------

ProposedBlock propose_mode(const WorldState& pre,
                           std::vector<chain::Transaction> txs,
                           ScheduleMode mode, std::size_t threads,
                           std::uint64_t gas_limit = 30'000'000,
                           std::size_t max_txs = 0) {
  txpool::TxPool pool;
  pool.add_all(std::move(txs));
  ProposerConfig cfg;
  cfg.mode = mode;
  cfg.threads = threads;
  cfg.block_gas_limit = gas_limit;
  cfg.max_txs = max_txs;
  BlockProposer proposer(cfg);
  ThreadPool workers(std::max<std::size_t>(threads, 1));
  return proposer.propose(pre, ctx_for(1), pool, workers);
}

/// The differential's serial oracle: drain a fresh pool holding the same
/// transactions to reconstruct the preset (pop) order, then execute it
/// serially with the same budget.  Block-STM's candidate selection reserves
/// by gas_limit, so the serial gas gate can never drop a candidate — the
/// Block-STM block must equal this execution bit for bit.
void expect_matches_serial_pop_order(const WorldState& pre,
                                     const std::vector<chain::Transaction>& txs,
                                     const ProposedBlock& block,
                                     std::uint64_t gas_limit = 30'000'000,
                                     std::size_t max_txs = 0) {
  txpool::TxPool pool;
  pool.add_all(txs);
  std::vector<chain::Transaction> pop_order;
  std::uint64_t reserved = 0;
  while (max_txs == 0 || pop_order.size() < max_txs) {
    auto tx = pool.pop();
    if (!tx) break;
    if (reserved + tx->gas_limit > gas_limit) break;
    reserved += tx->gas_limit;
    pop_order.push_back(std::move(*tx));
  }

  SerialOptions opts;
  opts.block_gas_limit = gas_limit;
  opts.drop_unincludable = true;
  const SerialResult oracle =
      execute_serial(pre, ctx_for(1), std::span(pop_order), opts);
  ASSERT_TRUE(oracle.ok);

  EXPECT_EQ(block.block.transactions, oracle.included);
  EXPECT_EQ(block.block.header.state_root, oracle.exec.state_root);
  EXPECT_EQ(block.block.header.gas_used, oracle.exec.gas_used);
  EXPECT_EQ(chain::receipts_root(block.receipts),
            chain::receipts_root(oracle.exec.receipts));
  EXPECT_EQ(block.post_state->state_root(), oracle.exec.state_root);
}

TEST(BlockStmDifferential, MatchesSerialPopOrderAcrossPresets) {
  const workload::WorkloadConfig presets[] = {
      workload::preset_low_conflict(), workload::preset_mainnet(),
      workload::preset_high_conflict(), workload::preset_nft_drop()};
  for (std::size_t p = 0; p < std::size(presets); ++p) {
    for (std::uint64_t seed : {0x5eedull, 0xf00dull}) {
      workload::WorkloadConfig cfg = presets[p];
      cfg.seed = seed;
      workload::WorkloadGenerator gen(cfg);
      const WorldState genesis = gen.genesis();
      const auto txs = gen.next_batch(120);

      const ProposedBlock block =
          propose_mode(genesis, txs, ScheduleMode::kBlockStm, 8);
      ASSERT_GT(block.block.transactions.size(), 0u)
          << "preset " << p << " seed " << seed;
      expect_matches_serial_pop_order(genesis, txs, block);
    }
  }
}

TEST(BlockStmDifferential, VirtualModeIsDeterministic) {
  workload::WorkloadGenerator gen(workload::preset_high_conflict());
  const WorldState genesis = gen.genesis();
  const auto txs = gen.next_batch(100);

  const ProposedBlock a =
      propose_mode(genesis, txs, ScheduleMode::kBlockStm, 8);
  const ProposedBlock b =
      propose_mode(genesis, txs, ScheduleMode::kBlockStm, 8);
  EXPECT_EQ(a.block.header.hash(), b.block.header.hash());
  EXPECT_EQ(a.stats.vtime_makespan, b.stats.vtime_makespan);
  EXPECT_EQ(a.stats.aborts, b.stats.aborts);
}

TEST(BlockStmDifferential, HostThreadsMatchesVirtualBlock) {
  workload::WorkloadGenerator gen(workload::preset_mainnet());
  const WorldState genesis = gen.genesis();
  const auto txs = gen.next_batch(100);

  const ProposedBlock vt =
      propose_mode(genesis, txs, ScheduleMode::kBlockStm, 8);
  const ProposedBlock host =
      propose_mode(genesis, txs, ScheduleMode::kBlockStmHost, 8);
  // Same preset order, same semantics: identical block regardless of the
  // realization (DES worker model vs real threads).
  EXPECT_EQ(vt.block.header.hash(), host.block.header.hash());
  EXPECT_EQ(chain::receipts_root(vt.receipts),
            chain::receipts_root(host.receipts));
}

TEST(BlockStmDifferential, AgreesWithOccWsiOnDisjointTransfers) {
  // The engines serialize differently (OCC re-pops after aborts; Block-STM
  // pins the preset order), so root equality is only guaranteed when the
  // transactions commute: disjoint native transfers.  Both engines must
  // include every transaction and land on the same root.
  workload::WorkloadGenerator gen(workload::preset_low_conflict());
  const WorldState genesis = gen.genesis();
  std::vector<chain::Transaction> txs;
  for (std::size_t i = 0; i < 100; ++i) {
    chain::Transaction tx;
    tx.from = gen.eoa(i);
    tx.to = gen.eoa(1000 + i);
    tx.nonce = 0;
    tx.value = U256{100 + i};
    tx.gas_limit = 25'000;
    tx.gas_price = U256{40};
    txs.push_back(std::move(tx));
  }

  const ProposedBlock stm =
      propose_mode(genesis, txs, ScheduleMode::kBlockStm, 8);
  const ProposedBlock occ =
      propose_mode(genesis, txs, ScheduleMode::kVirtualTime, 8);
  ASSERT_EQ(stm.block.transactions.size(), txs.size());
  ASSERT_EQ(occ.block.transactions.size(), txs.size());
  EXPECT_EQ(stm.block.header.state_root, occ.block.header.state_root);
  EXPECT_EQ(stm.block.header.gas_used, occ.block.header.gas_used);
}

TEST(BlockStmDifferential, RespectsGasBudgetAndMaxTxs) {
  workload::WorkloadGenerator gen(workload::preset_mainnet());
  const WorldState genesis = gen.genesis();
  const auto txs = gen.next_batch(60);

  // max_txs cut.
  const ProposedBlock capped =
      propose_mode(genesis, txs, ScheduleMode::kBlockStm, 4, 30'000'000, 10);
  EXPECT_EQ(capped.block.transactions.size(), 10u);
  expect_matches_serial_pop_order(genesis, txs, capped, 30'000'000, 10);

  // Tight gas budget: candidate selection reserves by gas_limit, the block
  // must stay within it and still match the oracle on the same prefix.
  const std::uint64_t tight = 400'000;
  const ProposedBlock small =
      propose_mode(genesis, txs, ScheduleMode::kBlockStm, 4, tight);
  ASSERT_GT(small.block.transactions.size(), 0u);
  EXPECT_LT(small.block.transactions.size(), txs.size());
  EXPECT_LE(small.block.header.gas_used, tight);
  expect_matches_serial_pop_order(genesis, txs, small, tight);
}

// ---- host-threads hammer (the tsan-stm gate) ------------------------------

TEST(BlockStmHammer, HighConflictHostThreads) {
  workload::WorkloadGenerator gen(workload::preset_high_conflict());
  WorldState tip = gen.genesis();
  for (std::uint64_t h = 1; h <= 3; ++h) {
    const auto txs = gen.next_batch(150);
    const ProposedBlock block =
        propose_mode(tip, txs, ScheduleMode::kBlockStmHost, 8);
    ASSERT_GT(block.block.transactions.size(), 0u);

    SerialOptions opts;
    opts.drop_unincludable = false;
    const SerialResult replay = execute_serial(
        tip, ctx_for(1), std::span(block.block.transactions), opts);
    ASSERT_TRUE(replay.ok);
    EXPECT_EQ(replay.exec.state_root, block.block.header.state_root)
        << "height " << h;
    tip = *block.post_state;
  }
}

/// Busy-spins one thread per hardware thread for its lifetime, so lanes
/// sharing the host get preempted mid-task.
class CpuSpinners {
 public:
  CpuSpinners() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~CpuSpinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  CpuSpinners(const CpuSpinners&) = delete;
  CpuSpinners& operator=(const CpuSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

TEST(BlockStmHammer, HostBlocksPassReplicaUnderPreemption) {
  // A Block-STM outcome is final only once the scheduler quiesces: any
  // executed transaction can still be revalidated and aborted before that.
  // A proposer that materializes receipts or profile entries earlier can
  // seal a stale incarnation next to the final post state.  The OCC-WSI
  // real-thread lanes race on the versioned state's lock-free read paths
  // instead: a stale snapshot read that validation misses commits a wrong
  // write set.  Preemption widens every such window; the subgraph-LPT
  // replica, replaying each block on its parent, rejects any block where
  // this happened.
  const std::uint64_t heights = kSanitized ? 2 : 8;
  const std::size_t txs_per_block = kSanitized ? 200 : 600;
  CpuSpinners spinners;
  ThreadPool workers(8);
  for (const ScheduleMode mode :
       {ScheduleMode::kBlockStmHost, ScheduleMode::kHostThreads}) {
    const std::uint64_t seeds =
        kSanitized ? 1 : (mode == ScheduleMode::kHostThreads ? 1 : 4);
    for (std::uint64_t s = 0; s < seeds; ++s) {
      workload::WorkloadConfig wc = workload::preset_high_conflict();
      wc.seed = 0x9E3 + s * 7919;
      wc.txs_per_block = txs_per_block;
      workload::WorkloadGenerator gen(wc);
      auto parent = std::make_shared<const WorldState>(gen.genesis());

      ProposerConfig pc;
      pc.mode = mode;
      pc.threads = 8;
      pc.max_txs = txs_per_block;
      pc.block_gas_limit = 200'000'000;  // the tx cap binds, not the gas
      BlockProposer proposer(pc);
      ValidatorConfig vc;
      vc.engine = ValidatorEngine::kSubgraphLpt;
      vc.threads = 4;
      BlockValidator validator(vc);

      txpool::TxPool pool;
      for (std::uint64_t h = 1; h <= heights; ++h) {
        pool.add_all(gen.next_block());
        const ProposedBlock block =
            proposer.propose(*parent, ctx_for(h), pool, workers);
        ASSERT_GT(block.block.transactions.size(), 0u);
        const ValidationOutcome outcome =
            validator.validate(*parent, block.block, block.profile, workers);
        ASSERT_TRUE(outcome.valid) << "mode " << static_cast<int>(mode)
                                   << " seed " << s << " height " << h << ": "
                                   << outcome.reject_reason;
        parent = block.post_state;
      }
    }
  }
}

TEST(BlockStmHammer, HostProposalsJoinOnlyTheirOwnLanes) {
  // A foreign task parked on the shared pool (a seal, a persist, a store
  // sweep) must not hold up a real-thread proposal or its replay: each
  // region joins only the lanes it submitted.
  ThreadPool workers(6);
  std::promise<void> gate;
  workers.submit([parked = gate.get_future().share()] { parked.wait(); });

  for (const ScheduleMode mode :
       {ScheduleMode::kHostThreads, ScheduleMode::kBlockStmHost}) {
    workload::WorkloadGenerator gen(workload::preset_mainnet());
    const WorldState genesis = gen.genesis();
    txpool::TxPool pool;
    pool.add_all(gen.next_batch(120));
    ProposerConfig pc;
    pc.mode = mode;
    pc.threads = 4;
    ValidatorConfig vc;
    vc.threads = 4;

    auto round = std::async(std::launch::async, [&] {
      const ProposedBlock block =
          BlockProposer(pc).propose(genesis, ctx_for(1), pool, workers);
      const ValidationOutcome outcome = BlockValidator(vc).validate(
          genesis, block.block, block.profile, workers);
      return std::make_tuple(block.block.transactions.size(),
                             block.block.header.state_root, outcome);
    });
    const bool finished = round.wait_for(std::chrono::seconds(10)) ==
                          std::future_status::ready;
    if (!finished) gate.set_value();  // unpark so the round can drain
    const auto [txs, header_root, outcome] = round.get();
    ASSERT_TRUE(finished) << "mode " << static_cast<int>(mode)
                          << " waited for a task it did not submit";
    EXPECT_GT(txs, 0u);
    EXPECT_TRUE(outcome.valid) << outcome.reject_reason;
    EXPECT_EQ(outcome.exec.state_root, header_root);
  }
  gate.set_value();
}

// ---- driver integration ---------------------------------------------------

TEST(BlockStmDriver, NodeDriverConservesPool) {
  NodeDriverConfig cfg;
  cfg.blocks = 6;
  cfg.ticks_per_block = 4;
  cfg.proposer.mode = ScheduleMode::kBlockStm;
  cfg.proposer.threads = 4;
  NodeDriver driver(cfg);
  const NodeDriverResult res = driver.run();
  EXPECT_TRUE(res.conserved);
  EXPECT_GT(res.txs_committed, 0u);
  EXPECT_EQ(res.duplicate_commits, 0u);
}

}  // namespace
}  // namespace blockpilot::core

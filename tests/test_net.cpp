#include <gtest/gtest.h>

#include "core/serial_executor.hpp"
#include "net/consensus_sim.hpp"
#include "net/network.hpp"
#include "support/rng.hpp"

namespace blockpilot::net {
namespace {

/// One height of the serial oracle's chain.
struct SerialHeight {
  Hash256 root;
  std::uint64_t txs = 0;
};

/// The chain a single-proposer ConsensusSim must settle, rebuilt without the
/// network: each height draws the same workload block, proposes it with the
/// sim's proposer config and block context, and replays it with the serial
/// executor on the previous height's serial post state.  Every settled round
/// of ConsensusSim::run() must match this root and tx count.
std::vector<SerialHeight> serial_chain(const ConsensusSimConfig& cfg) {
  workload::WorkloadGenerator gen(cfg.workload);
  auto state = std::make_shared<state::WorldState>(gen.genesis());
  core::ProposerConfig pcfg;
  pcfg.threads = cfg.proposer_threads;
  pcfg.mode = cfg.proposer_mode;
  ThreadPool workers(4);
  core::SerialOptions replay;
  replay.drop_unincludable = false;
  std::vector<SerialHeight> chain;
  for (std::uint64_t h = 1; h <= cfg.rounds; ++h) {
    evm::BlockContext ctx;
    ctx.number = h;
    ctx.timestamp = 1'700'000'000 + h * 12;
    ctx.coinbase = Address::from_id(0xFEE000 + h % cfg.proposer_nodes);
    txpool::TxPool pool;
    pool.add_all(gen.next_block());
    const core::ProposedBlock blk =
        core::BlockProposer(pcfg).propose(*state, ctx, pool, workers);
    const core::SerialResult serial = core::execute_serial(
        *state, ctx, std::span(blk.block.transactions), replay);
    EXPECT_TRUE(serial.ok) << "height " << h;
    EXPECT_EQ(serial.exec.state_root, blk.block.header.state_root)
        << "height " << h;
    chain.push_back({serial.exec.state_root, blk.block.transactions.size()});
    state = serial.exec.post_state;
  }
  return chain;
}

/// Asserts that every settled round of `live` matches the serial oracle.
void expect_settled_match_serial(const ConsensusSimResult& live,
                                 const std::vector<SerialHeight>& oracle,
                                 const std::string& where) {
  ASSERT_EQ(live.rounds.size(), oracle.size()) << where;
  for (std::size_t i = 0; i < live.rounds.size(); ++i) {
    if (!live.rounds[i].settled) continue;
    EXPECT_EQ(live.rounds[i].canonical_root, oracle[i].root)
        << where << " height " << i + 1;
    EXPECT_EQ(live.rounds[i].txs, oracle[i].txs)
        << where << " height " << i + 1;
  }
}

TEST(SimNetwork, PointToPointDelivery) {
  SimNetwork net(3);
  net.send(0, 1, 1000, {1, 2, 3});
  ASSERT_FALSE(net.idle());
  const auto msg = net.next_delivery();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->from, 0u);
  EXPECT_EQ(msg->to, 1u);
  EXPECT_GT(msg->deliver_time_us, msg->send_time_us);
  EXPECT_EQ(msg->payload, (Bytes{1, 2, 3}));
  EXPECT_TRUE(net.idle());
}

TEST(SimNetwork, BroadcastReachesEveryoneButSender) {
  SimNetwork net(4);
  net.broadcast(2, 0, {9});
  std::vector<NodeId> receivers;
  while (auto msg = net.next_delivery()) receivers.push_back(msg->to);
  std::sort(receivers.begin(), receivers.end());
  EXPECT_EQ(receivers, (std::vector<NodeId>{0, 1, 3}));
}

TEST(SimNetwork, DeliveryOrderedByTime) {
  LinkModel link;
  link.base_latency_us = 100;
  link.bytes_per_us = 1;
  SimNetwork net(2, link);
  net.send(0, 1, 0, Bytes(500, 0));   // delivers at 600
  net.send(0, 1, 200, Bytes(10, 0));  // delivers at 310
  const auto first = net.next_delivery();
  const auto second = net.next_delivery();
  EXPECT_EQ(first->deliver_time_us, 310u);
  EXPECT_EQ(second->deliver_time_us, 600u);
}

TEST(SimNetwork, LargerPayloadsTakeLonger) {
  LinkModel link;
  EXPECT_GT(link.transit_time(1'000'000), link.transit_time(100));
  SimNetwork net(2, link);
  net.send(0, 1, 0, Bytes(1'000'000, 0));
  net.send(0, 1, 0, Bytes(100, 0));
  EXPECT_EQ(net.bytes_sent(), 1'000'100u);
}

TEST(SimNetwork, JitterIsBoundedAndSeedDeterministic) {
  LinkModel link;
  link.base_latency_us = 1'000;
  link.bytes_per_us = 1'000;
  link.jitter_us = 500;
  link.jitter_seed = 42;

  auto deliveries = [&](std::uint64_t seed) {
    LinkModel l = link;
    l.jitter_seed = seed;
    SimNetwork net(3, l);
    for (int i = 0; i < 16; ++i) net.broadcast(0, 0, Bytes(100, 0));
    std::vector<std::uint64_t> times;
    while (auto msg = net.next_delivery()) {
      const std::uint64_t floor = l.transit_time(100);
      EXPECT_GE(msg->deliver_time_us, floor);
      EXPECT_LE(msg->deliver_time_us, floor + l.jitter_us);
      times.push_back(msg->deliver_time_us);
    }
    return times;
  };

  const auto a = deliveries(42);
  const auto b = deliveries(42);
  const auto c = deliveries(43);
  EXPECT_EQ(a, b);   // same seed -> bit-identical schedule
  EXPECT_NE(a, c);   // different seed -> different shuffle
}

TEST(ConsensusSim, SingleProposerChainAdvances) {
  ConsensusSimConfig cfg;
  cfg.proposer_nodes = 1;
  cfg.validator_nodes = 3;
  cfg.proposers_per_round = 1;
  cfg.rounds = 3;
  cfg.workload.txs_per_block = 30;
  cfg.proposer_threads = 4;
  cfg.validator_workers = 8;
  ConsensusSim sim(cfg);
  const auto result = sim.run();
  ASSERT_TRUE(result.safety_held) << result.violation;
  ASSERT_EQ(result.rounds.size(), 3u);
  EXPECT_EQ(result.total_uncles, 0u);
  EXPECT_GT(result.total_txs, 0u);
  for (const auto& round : result.rounds) {
    EXPECT_EQ(round.valid_siblings, 1u);
    EXPECT_GT(round.round_latency_us, 0u);
    EXPECT_FALSE(round.canonical_root.is_zero());
  }
}

TEST(ConsensusSim, ForkedRoundsStaySafe) {
  ConsensusSimConfig cfg;
  cfg.proposer_nodes = 3;
  cfg.validator_nodes = 4;
  cfg.proposers_per_round = 2;  // every round forks
  cfg.rounds = 3;
  cfg.workload.txs_per_block = 30;
  cfg.proposer_threads = 4;
  cfg.validator_workers = 8;
  ConsensusSim sim(cfg);
  const auto result = sim.run();
  ASSERT_TRUE(result.safety_held) << result.violation;
  EXPECT_EQ(result.total_uncles, 3u);  // one uncle per forked round
  EXPECT_GT(result.bytes_gossiped, 0u);
}

TEST(ConsensusSim, DeterministicAcrossRuns) {
  ConsensusSimConfig cfg;
  cfg.proposer_nodes = 2;
  cfg.validator_nodes = 3;
  cfg.proposers_per_round = 2;
  cfg.rounds = 2;
  cfg.workload.txs_per_block = 25;
  cfg.proposer_threads = 4;
  cfg.validator_workers = 8;
  const auto a = ConsensusSim(cfg).run();
  const auto b = ConsensusSim(cfg).run();
  ASSERT_TRUE(a.safety_held && b.safety_held);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].canonical_root, b.rounds[i].canonical_root);
    EXPECT_EQ(a.rounds[i].round_latency_us, b.rounds[i].round_latency_us);
    EXPECT_EQ(a.rounds[i].txs, b.rounds[i].txs);
  }
  EXPECT_EQ(a.bytes_gossiped, b.bytes_gossiped);
}

TEST(ConsensusSim, SpeculativeRunSettlesCleanAndMatchesInline) {
  // Honest run through the commit pipelines: every provisional vote must
  // survive the settle pass, the whole chain settles, and the canonical
  // roots are bit-identical to a fully inline (synchronous-commit) run.
  ConsensusSimConfig cfg;
  cfg.proposer_nodes = 2;
  cfg.validator_nodes = 3;
  cfg.proposers_per_round = 2;
  cfg.rounds = 3;
  cfg.workload.txs_per_block = 25;
  cfg.proposer_threads = 4;
  cfg.validator_workers = 8;

  cfg.commit_threads = 2;  // async sealing + speculative validation
  const auto async_run = ConsensusSim(cfg).run();
  ASSERT_TRUE(async_run.safety_held) << async_run.violation;
  EXPECT_EQ(async_run.revoked_votes, 0u);
  EXPECT_EQ(async_run.settled_height, cfg.rounds);
  ASSERT_EQ(async_run.rounds.size(), cfg.rounds);
  for (const auto& round : async_run.rounds) {
    EXPECT_TRUE(round.settled);
    EXPECT_FALSE(round.canonical_root.is_zero());
  }

  cfg.commit_threads = 0;  // degraded mode: inline seal + inline root check
  const auto inline_run = ConsensusSim(cfg).run();
  ASSERT_TRUE(inline_run.safety_held) << inline_run.violation;
  EXPECT_EQ(inline_run.speculative_votes, 0u);  // nothing pends inline
  ASSERT_EQ(inline_run.rounds.size(), cfg.rounds);
  for (std::size_t i = 0; i < cfg.rounds; ++i) {
    EXPECT_EQ(async_run.rounds[i].canonical_root,
              inline_run.rounds[i].canonical_root);
    EXPECT_EQ(async_run.rounds[i].txs, inline_run.rounds[i].txs);
  }
}

TEST(ConsensusSim, LateRootMismatchCascadesVoteRevocation) {
  // A Byzantine proposer set tampers with the sealed roots at height 2.
  // The blocks re-execute cleanly, so every validator casts a provisional
  // vote for one of them; the lie is only discovered when the commitments
  // settle.  With every leader lying there is no fork-choice survivor: the
  // votes at height 2 are revoked, the speculative suffix dies, and the
  // settled chain truncates at 1.
  ConsensusSimConfig cfg;
  cfg.proposer_nodes = 1;
  cfg.validator_nodes = 3;
  cfg.proposers_per_round = 1;
  cfg.rounds = 4;
  cfg.byzantine_height = 2;
  cfg.workload.txs_per_block = 20;
  cfg.proposer_threads = 4;
  cfg.validator_workers = 8;
  cfg.commit_threads = 2;

  const auto result = ConsensusSim(cfg).run();
  // Safety holds: the honest validators *agree* on detection + revocation.
  ASSERT_TRUE(result.safety_held) << result.violation;
  ASSERT_EQ(result.rounds.size(), 4u);

  EXPECT_TRUE(result.rounds[0].settled);
  EXPECT_FALSE(result.rounds[0].canonical_root.is_zero());
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_FALSE(result.rounds[i].settled) << "height " << i + 1;
    EXPECT_TRUE(result.rounds[i].canonical_root.is_zero());
    EXPECT_EQ(result.rounds[i].txs, 0u);
  }
  EXPECT_EQ(result.settled_height, 1u);
  EXPECT_EQ(result.fork_choices, 0u);  // no honest sibling to adopt
  // Height 2's votes are revoked for certain; heights 3 and 4 only lose
  // votes they managed to cast before the settlement caught the lie (the
  // loop kills the suffix as soon as height 2 fails).
  EXPECT_GE(result.revoked_votes, 1u * cfg.validator_nodes);
  EXPECT_LE(result.revoked_votes, 3u * cfg.validator_nodes);
  EXPECT_EQ(result.total_txs, result.rounds[0].txs);
}

TEST(ConsensusSim, DepthZeroSingleProposerMatchesSerialOracle) {
  // Lock-step degraded mode: speculation_depth = 0 with a single proposer
  // must settle every height, each on the serial oracle's root and tx
  // count (same workload draws, same block contexts).
  ConsensusSimConfig cfg;
  cfg.proposer_nodes = 1;
  cfg.validator_nodes = 3;
  cfg.proposers_per_round = 1;
  cfg.rounds = 4;
  cfg.speculation_depth = 0;
  cfg.workload.txs_per_block = 25;
  cfg.proposer_threads = 4;
  cfg.validator_workers = 8;
  cfg.commit_threads = 2;

  const auto live = ConsensusSim(cfg).run();
  ASSERT_TRUE(live.safety_held) << live.violation;
  EXPECT_EQ(live.settled_height, cfg.rounds);
  for (const auto& round : live.rounds) EXPECT_TRUE(round.settled);
  expect_settled_match_serial(live, serial_chain(cfg), "depth 0");
}

TEST(ConsensusSim, ForkChoiceAdoptsHonestSurvivor) {
  // One of two leaders lies at height 2.  Whether the (hash-min) vote
  // lands on the lie is decided by the block hashes, so sweep workload
  // seeds: every run must keep safety and settle the full chain — either
  // the vote dodged the lie (the tampered sibling is just an invalid
  // uncle) or settlement revoked it and fork-choice adopted the honest
  // survivor, truncating and re-proposing the speculative suffix.  At
  // least one seed must exercise the fork-choice path.
  std::uint64_t fork_choices_seen = 0;
  for (std::uint64_t seed : {0x5eedULL, 0xACEULL, 0xBEEFULL, 0xF00DULL}) {
    ConsensusSimConfig cfg;
    cfg.proposer_nodes = 2;
    cfg.validator_nodes = 3;
    cfg.proposers_per_round = 2;
    cfg.rounds = 3;
    cfg.byzantine_height = 2;
    cfg.byzantine_proposers = 1;
    cfg.workload.seed = seed;
    cfg.workload.txs_per_block = 15;
    cfg.proposer_threads = 4;
    cfg.validator_workers = 8;
    cfg.commit_threads = 2;

    const auto result = ConsensusSim(cfg).run();
    ASSERT_TRUE(result.safety_held) << result.violation;
    EXPECT_EQ(result.settled_height, cfg.rounds) << "seed " << seed;
    for (const auto& round : result.rounds) {
      EXPECT_TRUE(round.settled);
      EXPECT_FALSE(round.canonical_root.is_zero());
    }
    // The lie never settles: height 2 keeps exactly one valid sibling.
    EXPECT_EQ(result.rounds[1].valid_siblings, 1u);
    if (result.fork_choices > 0) {
      EXPECT_GE(result.revoked_votes, cfg.validator_nodes);
    } else {
      EXPECT_EQ(result.revoked_votes, 0u);
    }
    fork_choices_seen += result.fork_choices;
  }
  EXPECT_GT(fork_choices_seen, 0u);
}

TEST(ConsensusSim, BoundedSpeculationParksProposals) {
  // Depth 0 must stall every proposal behind the previous settlement;
  // a wide window hides the whole commitment tail.  Same workload, so the
  // settled chain is identical — only the virtual schedule differs.
  ConsensusSimConfig cfg;
  cfg.proposer_nodes = 1;
  cfg.validator_nodes = 2;
  cfg.proposers_per_round = 1;
  cfg.rounds = 4;
  cfg.workload.txs_per_block = 25;
  cfg.proposer_threads = 4;
  cfg.validator_workers = 8;
  cfg.commit_threads = 2;

  cfg.speculation_depth = 0;
  const auto tight = ConsensusSim(cfg).run();
  cfg.speculation_depth = 8;
  const auto wide = ConsensusSim(cfg).run();
  ASSERT_TRUE(tight.safety_held && wide.safety_held);
  EXPECT_GT(tight.settle_stall_us, 0u);
  EXPECT_EQ(wide.settle_stall_us, 0u);  // window of 9 never fills in 4 rounds
  EXPECT_GT(tight.makespan_us, wide.makespan_us);
  ASSERT_EQ(tight.rounds.size(), wide.rounds.size());
  for (std::size_t i = 0; i < tight.rounds.size(); ++i)
    EXPECT_EQ(tight.rounds[i].canonical_root, wide.rounds[i].canonical_root);
}

// Scenario count for the seeded fork-choice fuzz.  Every scenario runs the
// full DiCE loop with real execution, so the sweep is trimmed under TSan
// (each run is ~10x slower there and the tool's value is in the schedules
// it explores, not the scenario count).
#if defined(__SANITIZE_THREAD__)
constexpr std::uint64_t kFuzzScenarios = 48;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr std::uint64_t kFuzzScenarios = 48;
#else
constexpr std::uint64_t kFuzzScenarios = 256;
#endif
#else
constexpr std::uint64_t kFuzzScenarios = 256;
#endif

TEST(ConsensusSim, ForkChoiceFuzz) {
  // Seeded scenario sweep over the whole configuration surface: node
  // counts, fork width, speculation depth, commit threading, delivery
  // jitter, and Byzantine leader subsets.  The agreement invariant — all
  // honest nodes settle byte-identical chains — is enforced inside the
  // simulation (vote unanimity, settlement unanimity, fork-choice
  // agreement, replica root agreement all flip safety_held), so every
  // scenario must simply report safety intact, plus the structural
  // invariants per scenario kind.  Single-proposer scenarios additionally
  // pin every settled round to the serial oracle's chain.
  std::uint64_t fork_choices_total = 0;
  std::uint64_t oracle_checked = 0;
  std::uint64_t revocations_total = 0;
  for (std::uint64_t scenario = 0; scenario < kFuzzScenarios; ++scenario) {
    std::uint64_t st = 0xF0C5'0000ULL + scenario * 0x9e3779b97f4a7c15ULL;
    auto draw = [&st]() { return splitmix64(st); };

    ConsensusSimConfig cfg;
    cfg.validator_nodes = 2 + draw() % 2;      // 2-3
    cfg.proposers_per_round = 1 + draw() % 2;  // 1-2
    cfg.proposer_nodes = cfg.proposers_per_round + draw() % 2;
    cfg.rounds = 2 + draw() % 3;               // 2-4
    cfg.speculation_depth = draw() % 4;        // 0-3
    cfg.commit_threads = draw() % 3;           // 0-2
    cfg.proposer_threads = 2;
    cfg.validator_workers = 4;
    cfg.workload.seed = 0x5eed ^ (scenario * 0x9e37ULL);
    cfg.workload.txs_per_block = 4 + draw() % 6;
    cfg.workload.num_eoa = 128;  // small genesis keeps the sweep fast
    cfg.workload.num_tokens = 4;
    cfg.workload.num_dex = 2;
    if (draw() % 2) {
      cfg.link.jitter_us = 20'000;
      cfg.link.jitter_seed = draw();
    }
    const bool byzantine = draw() % 3 == 0;
    if (byzantine) {
      cfg.byzantine_height = 1 + draw() % cfg.rounds;
      cfg.byzantine_proposers = 1 + draw() % cfg.proposers_per_round;
      // Inline commits catch a tampered root at validation time, which is
      // a liveness failure (no votable block), not the revocation path
      // under test.
      cfg.commit_threads = 1 + draw() % 2;
    }

    const auto result = ConsensusSim(cfg).run();
    ASSERT_TRUE(result.safety_held)
        << "scenario " << scenario << ": " << result.violation;
    ASSERT_EQ(result.rounds.size(), cfg.rounds) << "scenario " << scenario;
    fork_choices_total += result.fork_choices;
    revocations_total += result.revoked_votes;

    if (!byzantine) {
      EXPECT_EQ(result.settled_height, cfg.rounds) << "scenario " << scenario;
      EXPECT_EQ(result.revoked_votes, 0u) << "scenario " << scenario;
      EXPECT_EQ(result.fork_choices, 0u) << "scenario " << scenario;
      for (const auto& round : result.rounds)
        EXPECT_TRUE(round.settled) << "scenario " << scenario;
    } else if (cfg.byzantine_proposers < cfg.proposers_per_round) {
      // An honest sibling always exists: the chain must settle end to end,
      // via fork-choice when the vote landed on the lie.
      EXPECT_EQ(result.settled_height, cfg.rounds) << "scenario " << scenario;
      if (result.fork_choices > 0)
        EXPECT_GE(result.revoked_votes, cfg.validator_nodes);
      else
        EXPECT_EQ(result.revoked_votes, 0u) << "scenario " << scenario;
    } else {
      // Every leader lied: the chain truncates just below the lie.
      EXPECT_EQ(result.settled_height, cfg.byzantine_height - 1)
          << "scenario " << scenario;
      EXPECT_GE(result.revoked_votes, cfg.validator_nodes)
          << "scenario " << scenario;
      EXPECT_EQ(result.fork_choices, 0u) << "scenario " << scenario;
    }

    if (cfg.proposers_per_round == 1) {
      // Degenerate fork width: every settled round must be the serial
      // oracle's, whatever the depth/jitter/threading.
      expect_settled_match_serial(result, serial_chain(cfg),
                                  "scenario " + std::to_string(scenario));
      ++oracle_checked;
    }

    if (scenario % 32 == 0) {
      // Spot-check bit-stability: the virtual schedule and settled chain
      // must be identical on a re-run of the same scenario.
      const auto again = ConsensusSim(cfg).run();
      ASSERT_TRUE(again.safety_held) << again.violation;
      EXPECT_EQ(again.settled_height, result.settled_height);
      EXPECT_EQ(again.makespan_us, result.makespan_us);
      ASSERT_EQ(again.rounds.size(), result.rounds.size());
      for (std::size_t i = 0; i < result.rounds.size(); ++i) {
        EXPECT_EQ(again.rounds[i].canonical_root,
                  result.rounds[i].canonical_root);
        EXPECT_EQ(again.rounds[i].round_latency_us,
                  result.rounds[i].round_latency_us);
        EXPECT_EQ(again.rounds[i].settle_latency_us,
                  result.rounds[i].settle_latency_us);
      }
    }
  }
  // The sweep must actually exercise the paths it exists to cover.
  EXPECT_GT(fork_choices_total + revocations_total, 0u);
  EXPECT_GT(oracle_checked, 0u);
  RecordProperty("serial_oracle_scenarios", std::to_string(oracle_checked));
}

// ---------------------------------------------------------------------------
// Fault plan: SimNetwork-level unit tests
// ---------------------------------------------------------------------------

TEST(SimNetworkFaults, DropRateEatsMessagesDeterministically) {
  LinkModel link;
  link.faults.seed = 7;
  link.faults.drop_per_mille = 1000;  // everything is lost
  SimNetwork net(2, link);
  for (int i = 0; i < 8; ++i) net.send(0, 1, 0, Bytes(10, 0));
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.fault_stats().dropped, 8u);
  EXPECT_EQ(net.bytes_sent(), 80u);  // wire bytes are spent before the loss

  auto survivors = [](std::uint64_t seed) {
    LinkModel l;
    l.faults.seed = seed;
    l.faults.drop_per_mille = 300;
    SimNetwork n(2, l);
    std::vector<int> alive;
    for (int i = 0; i < 64; ++i) {
      n.send(0, 1, static_cast<std::uint64_t>(i), Bytes(1, std::uint8_t(i)));
    }
    while (auto msg = n.next_delivery()) alive.push_back(msg->payload[0]);
    return alive;
  };
  const auto a = survivors(11);
  const auto b = survivors(11);
  const auto c = survivors(12);
  EXPECT_LT(a.size(), 64u);  // some losses at 30%
  EXPECT_GT(a.size(), 0u);   // but not all
  EXPECT_EQ(a, b);           // same seed -> same loss pattern
  EXPECT_NE(a, c);           // different seed -> different pattern
}

TEST(SimNetworkFaults, DuplicationDeliversTrailingSecondCopy) {
  LinkModel link;
  link.faults.duplicate_per_mille = 1000;
  SimNetwork net(2, link);
  net.send(0, 1, 0, Bytes{42});
  const auto first = net.next_delivery();
  const auto second = net.next_delivery();
  ASSERT_TRUE(first && second);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(first->payload, second->payload);
  EXPECT_GT(second->deliver_time_us, first->deliver_time_us);
  EXPECT_EQ(net.fault_stats().duplicated, 1u);
}

TEST(SimNetworkFaults, ReorderBurstLeapfrogsLaterTraffic) {
  LinkModel link;
  link.base_latency_us = 100;
  link.bytes_per_us = 1000;
  link.faults.reorder_per_mille = 1000;
  link.faults.reorder_burst_us = 10'000;
  SimNetwork net(2, link);
  net.send(0, 1, 0, Bytes{1});  // bursted: delivers at ~10'100
  LinkModel clean;
  clean.base_latency_us = 100;
  clean.bytes_per_us = 1000;
  SimNetwork ref(2, clean);
  ref.send(0, 1, 0, Bytes{1});
  EXPECT_EQ(net.next_delivery()->deliver_time_us,
            ref.next_delivery()->deliver_time_us + 10'000);
  EXPECT_EQ(net.fault_stats().reordered, 1u);
}

TEST(SimNetworkFaults, PartitionFiltersCrossGroupUntilHeal) {
  LinkModel link;
  PartitionWindow pw;
  pw.start_us = 100;
  pw.heal_us = 200;
  pw.group_mask = 0b100;  // node 2 alone vs nodes 0,1
  link.faults.partitions.push_back(pw);
  SimNetwork net(3, link);

  net.send(0, 2, 150, Bytes{1});  // cross-group inside the window: eaten
  net.send(2, 0, 150, Bytes{2});  // both directions
  net.send(0, 1, 150, Bytes{3});  // same group: passes
  net.send(0, 2, 50, Bytes{4});   // before the split: passes
  net.send(0, 2, 200, Bytes{5});  // at heal (exclusive bound): passes
  std::vector<int> delivered;
  while (auto msg = net.next_delivery()) delivered.push_back(msg->payload[0]);
  std::sort(delivered.begin(), delivered.end());
  EXPECT_EQ(delivered, (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(net.fault_stats().partitioned, 2u);
}

// ---------------------------------------------------------------------------
// Quorum arithmetic and the timeout/backoff state machine
// ---------------------------------------------------------------------------

TEST(ConsensusQuorum, QuorumSizeAndVoteDeadline) {
  // Auto mode: 2f+1 of n with f = floor((n-1)/3).
  EXPECT_EQ(ConsensusSim::quorum_size(1, 0), 1u);
  EXPECT_EQ(ConsensusSim::quorum_size(3, 0), 3u);   // f=0
  EXPECT_EQ(ConsensusSim::quorum_size(4, 0), 3u);   // f=1 -> 2f+1
  EXPECT_EQ(ConsensusSim::quorum_size(7, 0), 5u);   // f=2
  EXPECT_EQ(ConsensusSim::quorum_size(10, 0), 7u);  // f=3
  // Explicit values clamp to [1, n].
  EXPECT_EQ(ConsensusSim::quorum_size(4, 4), 4u);  // unanimity mode
  EXPECT_EQ(ConsensusSim::quorum_size(4, 9), 4u);
  EXPECT_EQ(ConsensusSim::quorum_size(4, 2), 2u);

  // Deadlines back off exponentially and cumulatively from the propose
  // time: T, 3T, 7T, 15T, ... — each retry doubles the wait since the
  // previous deadline, and the chain is strictly ordered.
  const std::uint64_t base = 1'000'000, T = 500;
  EXPECT_EQ(ConsensusSim::vote_deadline(base, T, 0), base + T);
  EXPECT_EQ(ConsensusSim::vote_deadline(base, T, 1), base + 3 * T);
  EXPECT_EQ(ConsensusSim::vote_deadline(base, T, 2), base + 7 * T);
  std::uint64_t prev_gap = 0;
  for (std::size_t r = 0; r + 1 < 8; ++r) {
    const std::uint64_t gap = ConsensusSim::vote_deadline(base, T, r + 1) -
                              ConsensusSim::vote_deadline(base, T, r);
    EXPECT_GT(gap, prev_gap);          // strictly growing spacing
    EXPECT_EQ(gap, (2ull << r) * T);   // exactly doubling
    prev_gap = gap;
  }
}

namespace {
// Small-genesis config the adversarial tests share: four validators so the
// BFT quorum (3 of 4) is strictly below unanimity.
ConsensusSimConfig adversarial_base() {
  ConsensusSimConfig cfg;
  cfg.proposer_nodes = 2;
  cfg.validator_nodes = 4;
  cfg.proposers_per_round = 1;
  cfg.rounds = 3;
  cfg.proposer_threads = 2;
  cfg.validator_workers = 4;
  cfg.commit_threads = 1;
  cfg.workload.txs_per_block = 6;
  cfg.workload.num_eoa = 128;
  cfg.workload.num_tokens = 4;
  cfg.workload.num_dex = 2;
  cfg.vote_timeout_us = 200'000;
  return cfg;
}
}  // namespace

TEST(ConsensusQuorum, VoteTimeoutRetransmitsUnderLoss) {
  // 20% loss on every link: announcements and votes both go missing, and
  // only the deadline-driven retransmission keeps the chain live.
  ConsensusSimConfig cfg = adversarial_base();
  cfg.link.faults.seed = 0xBEEF;
  cfg.link.faults.drop_per_mille = 200;
  const auto result = ConsensusSim(cfg).run();
  ASSERT_TRUE(result.safety_held) << result.violation;
  EXPECT_EQ(result.settled_height, cfg.rounds);
  EXPECT_EQ(result.quorum_failures, 0u);
  EXPECT_GT(result.messages_dropped, 0u);
  EXPECT_GT(result.vote_timeouts, 0u);
  EXPECT_GT(result.vote_retransmits, 0u);
  for (const auto& round : result.rounds) EXPECT_TRUE(round.settled);
}

TEST(ConsensusQuorum, RetryExhaustionParksAndReproposes) {
  // One validator is permanently cut off from everyone.  The other three
  // reach quorum among themselves but the chain-wide vote phase can never
  // complete, so every validator eventually burns its retry budget, the
  // height re-proposes, and after max_propose_attempts the run declares
  // liveness lost — with safety intact and nothing settled.
  ConsensusSimConfig cfg = adversarial_base();
  cfg.rounds = 2;
  cfg.vote_retry_budget = 2;
  cfg.max_propose_attempts = 3;
  PartitionWindow pw;
  pw.start_us = 0;
  pw.heal_us = UINT64_MAX;  // never heals
  pw.group_mask = 1ull << (cfg.proposer_nodes + cfg.validator_nodes - 1);
  cfg.link.faults.partitions.push_back(pw);

  const auto result = ConsensusSim(cfg).run();
  ASSERT_TRUE(result.safety_held) << result.violation;
  EXPECT_EQ(result.settled_height, 0u);
  EXPECT_EQ(result.quorum_failures, 1u);
  EXPECT_EQ(result.quorum_reproposals, cfg.max_propose_attempts - 1);
  EXPECT_EQ(result.rounds[0].attempts, cfg.max_propose_attempts);
  EXPECT_FALSE(result.rounds[0].settled);
  EXPECT_GT(result.messages_partitioned, 0u);
  EXPECT_GT(result.vote_timeouts, 0u);
}

TEST(ConsensusQuorum, PartitionHealRestoresQuorumLiveness) {
  // Same topology, but the partition heals inside the backoff window: the
  // isolated validator's re-pull and its peers' vote rebroadcasts land
  // after the heal, quorum completes, and every height settles.
  ConsensusSimConfig cfg = adversarial_base();
  PartitionWindow pw;
  pw.start_us = 0;
  pw.heal_us = 1'000'000;  // within the 200ms * (2^5 - 1) backoff coverage
  pw.group_mask = 1ull << (cfg.proposer_nodes + cfg.validator_nodes - 1);
  cfg.link.faults.partitions.push_back(pw);

  const auto result = ConsensusSim(cfg).run();
  ASSERT_TRUE(result.safety_held) << result.violation;
  EXPECT_EQ(result.settled_height, cfg.rounds);
  EXPECT_EQ(result.quorum_failures, 0u);
  EXPECT_GT(result.messages_partitioned, 0u);
  EXPECT_GT(result.vote_timeouts, 0u);
  EXPECT_GT(result.vote_retransmits, 0u);
  for (const auto& round : result.rounds) {
    EXPECT_TRUE(round.settled);
    EXPECT_FALSE(round.canonical_root.is_zero());
  }
}

TEST(ConsensusQuorum, ZeroFaultUnanimityMatchesSerialOracle) {
  // Differential gate for the quorum loop itself: zero faults plus
  // quorum_votes == n at depth 0 must settle every height on the serial
  // oracle's chain, first attempt, with no deadline firing.
  ConsensusSimConfig cfg = adversarial_base();
  cfg.speculation_depth = 0;
  cfg.quorum_votes = cfg.validator_nodes;  // explicit unanimity
  cfg.vote_timeout_us = 60'000'000;  // no deadline can fire in a clean run
  const auto live = ConsensusSim(cfg).run();
  ASSERT_TRUE(live.safety_held) << live.violation;
  EXPECT_EQ(live.settled_height, cfg.rounds);
  for (const auto& round : live.rounds) {
    EXPECT_TRUE(round.settled);
    EXPECT_EQ(round.attempts, 1u);
  }
  expect_settled_match_serial(live, serial_chain(cfg), "unanimity");
  EXPECT_EQ(live.vote_timeouts + live.quorum_reproposals, 0u);
}

TEST(ConsensusQuorum, InlineDetectionReproposesInsteadOfAsserting) {
  // Inline commitments expose a tampered root at validation time, so when
  // EVERY leader of a height lies no validator can vote at all.  The old
  // loop asserted here; the quorum loop times out, re-proposes with fresh
  // honest leaders, and the chain settles end to end.
  ConsensusSimConfig cfg = adversarial_base();
  cfg.commit_threads = 0;  // inline: root checks at push time
  cfg.byzantine_height = 2;
  cfg.byzantine_proposers = SIZE_MAX;  // every leader tampers
  cfg.vote_retry_budget = 1;           // fail fast to the re-proposal
  const auto result = ConsensusSim(cfg).run();
  ASSERT_TRUE(result.safety_held) << result.violation;
  EXPECT_EQ(result.settled_height, cfg.rounds);
  EXPECT_GE(result.quorum_reproposals, 1u);
  EXPECT_EQ(result.rounds[1].attempts, 2u);  // height 2 needed a retry
  for (const auto& round : result.rounds) EXPECT_TRUE(round.settled);
}

// ---------------------------------------------------------------------------
// Fault matrix: {loss, duplication, partition} x depth x Byzantine leaders
// ---------------------------------------------------------------------------

// Every cell runs the full DiCE loop with real execution; the sweep is
// trimmed under sanitizers the same way the fork-choice fuzz is.
#if defined(__SANITIZE_THREAD__)
constexpr bool kFaultMatrixTrimmed = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kFaultMatrixTrimmed = true;
#else
constexpr bool kFaultMatrixTrimmed = false;
#endif
#else
constexpr bool kFaultMatrixTrimmed = false;
#endif

TEST(ConsensusQuorum, FaultMatrix) {
  // The acceptance surface of the quorum/fault tentpole: at up to 20% loss
  // with duplication, a healing partition, and up to f Byzantine proposers,
  // all honest nodes settle identical roots at every height (enforced
  // in-sim via safety_held), the chain reaches full height, and each
  // (seed, scenario) re-runs bit-stably.
  struct FaultArm {
    const char* name;
    std::uint32_t drop_per_mille;
    std::uint32_t duplicate_per_mille;
    bool partition;
  };
  const FaultArm arms[] = {
      {"clean", 0, 0, false},
      {"drop1pct", 10, 0, false},
      {"drop5pct", 50, 0, false},
      {"drop20pct", 200, 0, false},
      {"dup10pct", 0, 100, false},
      {"drop5+dup5", 50, 50, false},
      {"partition-heal", 0, 0, true},
  };
  const std::size_t depths[] = {0, 2, 8};
  const std::size_t byz_counts[] = {0, 1};  // f = 1 for n = 4 validators

  std::size_t cell = 0;
  for (const FaultArm& arm : arms) {
    for (const std::size_t depth : depths) {
      for (const std::size_t byz : byz_counts) {
        ++cell;
        if (kFaultMatrixTrimmed && cell % 3 != 1) continue;

        ConsensusSimConfig cfg = adversarial_base();
        cfg.proposers_per_round = 2;  // forked rounds: quorum meets uncles
        cfg.speculation_depth = depth;
        cfg.workload.txs_per_block = 4;
        cfg.link.faults.seed = 0xFA17 + cell;
        cfg.link.faults.drop_per_mille = arm.drop_per_mille;
        cfg.link.faults.duplicate_per_mille = arm.duplicate_per_mille;
        if (arm.partition) {
          PartitionWindow pw;
          pw.start_us = 0;
          pw.heal_us = 800'000;
          pw.group_mask =
              1ull << (cfg.proposer_nodes + cfg.validator_nodes - 1);
          cfg.link.faults.partitions.push_back(pw);
        }
        if (byz > 0) {
          cfg.byzantine_height = 2;
          cfg.byzantine_proposers = byz;  // honest sibling survives
        }
        SCOPED_TRACE(std::string(arm.name) + " depth=" +
                     std::to_string(depth) + " byz=" + std::to_string(byz));

        const auto result = ConsensusSim(cfg).run();
        ASSERT_TRUE(result.safety_held) << result.violation;
        // Recoverable faults: quorum liveness must hold to full height.
        EXPECT_EQ(result.settled_height, cfg.rounds);
        EXPECT_EQ(result.quorum_failures, 0u);
        for (const auto& round : result.rounds) {
          EXPECT_TRUE(round.settled);
          EXPECT_FALSE(round.canonical_root.is_zero());
        }
        if (arm.drop_per_mille > 0) EXPECT_GT(result.messages_dropped, 0u);
        if (arm.duplicate_per_mille > 0)
          EXPECT_GT(result.messages_duplicated, 0u);
        if (arm.partition) EXPECT_GT(result.messages_partitioned, 0u);
        // Byzantine arms may or may not trigger revocation (the vote lands
        // on the hash-min sibling, which can be the honest one) — safety
        // and full-height liveness above are the real assertions.

        if (cell % 5 == 1) {
          // Bit-stability: the same (seed, scenario) replays identically —
          // roots, schedule, and every fault/retry counter.
          const auto again = ConsensusSim(cfg).run();
          ASSERT_TRUE(again.safety_held) << again.violation;
          EXPECT_EQ(again.makespan_us, result.makespan_us);
          EXPECT_EQ(again.vote_timeouts, result.vote_timeouts);
          EXPECT_EQ(again.vote_retransmits, result.vote_retransmits);
          EXPECT_EQ(again.messages_dropped, result.messages_dropped);
          ASSERT_EQ(again.rounds.size(), result.rounds.size());
          for (std::size_t i = 0; i < result.rounds.size(); ++i) {
            EXPECT_EQ(again.rounds[i].canonical_root,
                      result.rounds[i].canonical_root);
            EXPECT_EQ(again.rounds[i].settle_latency_us,
                      result.rounds[i].settle_latency_us);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace blockpilot::net

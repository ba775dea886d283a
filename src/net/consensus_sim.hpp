// ConsensusSim: an event-driven proposer/validator network simulation —
// the full DiCE loop (Dissemination, Consensus, Execution) of §3.2 with
// BlockPilot engines inside every node, routed end to end through the
// asynchronous commitment subsystem.
//
// Each validator node is a live event-driven replica rather than a step in
// a round-batch driver: it owns a chain view (core::ChainSession), reacts
// to block arrivals as they are delivered by the gossip network, validates
// speculatively (root checks pending on its CommitPipeline), votes for the
// smallest block hash among execution-valid siblings, and keeps executing
// ahead of settlement — but never more than `speculation_depth` unsettled
// heights ahead (proposing parks until the oldest height settles; the
// parked time is the settle stall the overlap failed to hide).
//
// Settlement is interleaved with the live loop instead of deferred to a
// post-hoc pass: each voted height schedules a virtual settle event at
// vote time + its commitment cost (serialized in height order).  When a
// settlement reveals a root mismatch on the voted block, the votes at that
// height are revoked and the nodes run *fork-choice* among the surviving
// siblings — those whose settled root matched their own header — adopting
// the survivor with the smallest block hash, truncating the speculative
// suffix built on the loser, and re-proposing from the survivor's state.
// Only when no sibling survives does the chain die (the old cascade),
// which is exactly what happens when every proposer at a height was
// Byzantine.
//
// Voting is f-of-n *quorum collection*, not unanimity: each validator
// broadcasts its vote as a real gossip message (subject to the network's
// fault plan — loss, duplication, reordering, partitions), tallies the
// votes it receives, and decides the height once `quorum_votes` matching
// votes are in (default 2f+1 of n with f = ⌊(n−1)/3⌋).  A per-height vote
// deadline in the deterministic event queue triggers bounded retransmission
// with exponential backoff: a node that voted rebroadcasts its vote, a node
// still missing sibling announcements pulls them again from their
// proposers.  A height whose quorum never forms within the retry budget
// parks and *re-proposes* (fresh honest leaders, bumped attempt) instead of
// asserting; only when the re-proposal budget is also exhausted does the
// simulation declare liveness lost (`quorum_failures`) — never a safety
// violation.
//
// The event queue orders (virtual time, kind, node, seq) with settle <
// block-arrival < vote-arrival < vote < timeout < propose at equal times,
// so a whole multi-node scenario is bit-stable across runs and hosts;
// every event carries the height's attempt counter so revocation makes
// in-flight events of the abandoned suffix stale rather than racing them.
//
// The simulation asserts consensus safety at every height: all honest
// validators must agree on the quorum hash, on settlement, on fork-choice,
// and on the canonical state root — and no height may settle without a
// recorded quorum (ChainSession::mark_quorum).  A Byzantine proposer
// subset (see ConsensusSimConfig::byzantine_height / byzantine_proposers)
// tampers with sealed roots; safety holds as long as the honest validators
// *agree* on detecting, revoking, and (when an honest sibling exists)
// forking around it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "chain/codec.hpp"
#include "commit/commit_pipeline.hpp"
#include "core/pipeline.hpp"
#include "core/proposer.hpp"
#include "net/network.hpp"
#include "workload/generator.hpp"

namespace blockpilot::net {

struct ConsensusSimConfig {
  std::size_t proposer_nodes = 3;
  std::size_t validator_nodes = 5;
  /// How many proposers actually fire each round (>1 creates forks).
  std::size_t proposers_per_round = 2;
  std::uint64_t rounds = 5;

  std::size_t proposer_threads = 8;
  /// Concurrency-control discipline the leaders propose with
  /// (core::ScheduleMode).  The deterministic differential gates run both
  /// virtual-time families; the host modes additionally need
  /// proposer_threads-sized worker pools.
  core::ScheduleMode proposer_mode = core::ScheduleMode::kVirtualTime;
  /// Replay discipline every validator node re-executes received blocks
  /// with (core::ValidatorEngine): the subgraph-LPT oracle, Block-STM
  /// preset-order replay, or per-block adaptive selection.  Forwarded into
  /// each node's ChainSession pipeline.
  core::ValidatorEngine validator_engine = core::ValidatorEngine::kSubgraphLpt;
  std::size_t validator_workers = 16;
  /// Size of the shared commitment pool backing every node's
  /// CommitPipeline.  0 runs every pipeline inline (degraded mode: sealing
  /// and root checks happen synchronously; votes are never speculative and
  /// virtual settlement is instantaneous).
  std::size_t commit_threads = 2;
  /// Bounded speculation: a height may be proposed only while at most
  /// `speculation_depth` heights past the last settled one are already in
  /// flight.  0 degrades to lock-step (each height waits for the previous
  /// settlement); larger windows overlap more commitment latency with
  /// execution (§5.2).
  std::size_t speculation_depth = 8;
  /// When nonzero, proposers at this height broadcast blocks whose sealed
  /// state root was tampered with — the mismatch is only discovered when
  /// the validators' commitments settle, exercising vote revocation.
  /// 0 = all-honest run.
  std::uint64_t byzantine_height = 0;
  /// How many of the height's leaders tamper (clamped to
  /// proposers_per_round).  Leaving honest siblings exercises fork-choice:
  /// the nodes revoke the voted block but adopt an honest survivor instead
  /// of truncating.  SIZE_MAX = every leader tampers (the dead-chain
  /// cascade).
  std::size_t byzantine_proposers = SIZE_MAX;
  /// Virtual commitment throughput (gas folded per microsecond) used to
  /// model settle latency: a height's commitment costs
  /// Σ sibling gas / commit_gas_per_us of virtual time past its vote.
  std::uint64_t commit_gas_per_us = 45;
  /// Votes required to decide a height.  0 = auto: 2f+1 with
  /// f = ⌊(n−1)/3⌋ over n = validator_nodes.  Explicit values are clamped
  /// to [1, validator_nodes]; quorum_votes == validator_nodes restores the
  /// pre-quorum unanimity behaviour (the differential-test mode).
  std::size_t quorum_votes = 0;
  /// Base vote deadline: a validator that has not decided a height this
  /// long (virtual us) after its proposal fires a timeout and retransmits
  /// (its own vote if cast, else a re-pull of missing announcements).
  /// Deadlines back off exponentially: T, then 2T, 4T, ... after each retry.
  std::uint64_t vote_timeout_us = 500'000;
  /// Retransmissions per validator per height attempt before it gives up.
  /// When every validator has exhausted its budget without quorum, the
  /// height parks and is re-proposed with a bumped attempt counter.
  std::size_t vote_retry_budget = 4;
  /// Proposal attempts per height before the simulation declares liveness
  /// lost (quorum_failures; safety still holds).  Attempts consumed by
  /// fork-choice re-proposals count too.
  std::size_t max_propose_attempts = 8;
  workload::WorkloadConfig workload = workload::preset_mainnet();
  LinkModel link;
};

struct RoundReport {
  std::uint64_t height = 0;
  std::size_t siblings = 0;
  std::size_t valid_siblings = 0;  // post-settle validity (validator 0)
  std::size_t uncles = 0;
  /// Votes cast while the voted block's root check was still in flight.
  std::size_t speculative_votes = 0;
  /// False when the round's canonical block failed settlement and no
  /// sibling survived fork-choice (or a parent round died and the failure
  /// cascaded).  A round whose vote was revoked but re-anchored on a
  /// fork-choice survivor still settles.
  bool settled = false;
  Hash256 canonical_root;  // zero when the round did not settle
  std::uint64_t txs = 0;   // canonical txs; 0 when revoked
  /// End-to-end virtual latency of the live path: propose + gossip +
  /// slowest validator's pipeline, in microseconds (gas converted via
  /// kGasPerUs).
  std::uint64_t round_latency_us = 0;
  /// Virtual time from when this height first became proposable to its
  /// settlement — the number bounded speculation shrinks: it includes any
  /// time the proposal sat parked behind the speculation window plus the
  /// commitment tail the overlap could not hide.
  std::uint64_t settle_latency_us = 0;
  /// Proposal attempts this height consumed (1 = settled first try;
  /// quorum misses and fork-choice truncations both bump it).
  std::size_t attempts = 1;
};

struct ConsensusSimResult {
  std::vector<RoundReport> rounds;
  std::uint64_t total_txs = 0;  // settled rounds only
  std::uint64_t total_uncles = 0;
  std::uint64_t bytes_gossiped = 0;
  /// Provisional votes cast on speculative (pre-settle) tips, summed over
  /// rounds and validators.
  std::uint64_t speculative_votes = 0;
  /// Votes revoked by settlement (root mismatch + revoked speculative
  /// suffixes and cascades).
  std::uint64_t revoked_votes = 0;
  /// Highest height whose canonical block settled (0 = none did).
  std::uint64_t settled_height = 0;
  /// Virtual completion time of the last settlement.
  std::uint64_t makespan_us = 0;
  /// Virtual time proposals spent parked behind the speculation window —
  /// the settlement latency the configured depth failed to overlap.
  std::uint64_t settle_stall_us = 0;
  /// Blocks re-proposed after a fork-choice truncated their first attempt.
  std::uint64_t reproposed_blocks = 0;
  /// Settlement failures resolved by adopting a surviving sibling.
  std::uint64_t fork_choices = 0;
  /// Vote deadlines that fired (a validator waited out its backoff without
  /// deciding the height).
  std::uint64_t vote_timeouts = 0;
  /// Messages re-sent by fired deadlines (vote rebroadcasts plus
  /// announcement re-pulls).
  std::uint64_t vote_retransmits = 0;
  /// Heights re-proposed because their quorum never formed within the
  /// retry budget (distinct from reproposed_blocks, the fork-choice path).
  std::uint64_t quorum_reproposals = 0;
  /// Heights abandoned after max_propose_attempts — liveness lost, safety
  /// intact.  Nonzero only under faults the retry budget cannot beat
  /// (e.g. a partition that never heals).
  std::uint64_t quorum_failures = 0;
  /// Network fault-plan counters (mirrors SimNetwork::fault_stats()).
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t messages_reordered = 0;
  std::uint64_t messages_partitioned = 0;
  /// Blocks proposed per execution engine (kAdaptive resolves per block;
  /// fixed proposer modes land entirely in one bucket).  The regime-flip
  /// surface: a dex-heavy workload under kAdaptive must move proposals
  /// into the Block-STM bucket.
  std::uint64_t blocks_occ = 0;
  std::uint64_t blocks_stm = 0;
  bool safety_held = true;  // all validators agreed every round + at settle
  std::string violation;    // populated when safety_held == false

  double avg_round_latency_ms() const noexcept {
    if (rounds.empty()) return 0.0;
    std::uint64_t sum = 0;
    for (const auto& r : rounds) sum += r.round_latency_us;
    return static_cast<double>(sum) / static_cast<double>(rounds.size()) /
           1000.0;
  }

  double avg_settle_latency_ms() const noexcept {
    std::uint64_t sum = 0;
    std::size_t settled = 0;
    for (const auto& r : rounds) {
      if (!r.settled) continue;
      sum += r.settle_latency_us;
      ++settled;
    }
    if (settled == 0) return 0.0;
    return static_cast<double>(sum) / static_cast<double>(settled) / 1000.0;
  }
};

class ConsensusSim {
 public:
  explicit ConsensusSim(ConsensusSimConfig config);

  /// Runs the event-driven simulation to quiescence (every height settled,
  /// or the chain died, or safety was violated) and returns the report.
  ConsensusSimResult run();

  /// Gas-to-time conversion for latency reporting: EVM gas throughput of
  /// one core (mainnet-ish ~30 Mgas/s -> 30 gas/us).
  static constexpr std::uint64_t kGasPerUs = 30;

  /// Resolves the quorum size for `validators` nodes: `configured` clamped
  /// to [1, validators], or — when 0 — the BFT threshold 2f+1 with
  /// f = ⌊(validators−1)/3⌋ (n − f, which equals 2f+1 when n = 3f+1).
  static constexpr std::size_t quorum_size(std::size_t validators,
                                           std::size_t configured) noexcept {
    if (validators == 0) return 0;
    if (configured == 0) {
      const std::size_t f = (validators - 1) / 3;
      return validators - f;
    }
    return configured < 1 ? 1 : (configured > validators ? validators
                                                         : configured);
  }

  /// Deadline of a validator's retry-`retry` vote timeout for a height
  /// proposed at `propose_us`: cumulative exponential backoff
  /// propose + T + 2T + ... + 2^retry·T  ==  propose + (2^(retry+1) − 1)·T.
  static constexpr std::uint64_t vote_deadline(std::uint64_t propose_us,
                                               std::uint64_t timeout_us,
                                               std::size_t retry) noexcept {
    return propose_us + ((std::uint64_t{2} << retry) - 1) * timeout_us;
  }

  const ConsensusSimConfig& config() const noexcept { return config_; }

 private:
  ConsensusSimConfig config_;
};

}  // namespace blockpilot::net

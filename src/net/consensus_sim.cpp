#include "net/consensus_sim.hpp"

#include "evm/code_analysis.hpp"

#include <algorithm>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace blockpilot::net {
namespace {

evm::BlockContext ctx_for(std::uint64_t height, const Address& coinbase) {
  evm::BlockContext ctx;
  ctx.number = height;
  ctx.timestamp = 1'700'000'000 + height * 12;
  ctx.coinbase = coinbase;
  return ctx;
}

// ---------------------------------------------------------------------------
// Event-driven simulation
// ---------------------------------------------------------------------------

/// One validator node: its own ledger replica, its own commit pipeline
/// (backed by the shared commit pool), and a live ChainSession whose tip is
/// the post state of the last block it voted for — possibly with the root
/// check still in flight.
struct VNode {
  std::unique_ptr<chain::Blockchain> chain;
  std::unique_ptr<commit::CommitPipeline> commits;
  std::unique_ptr<core::ChainSession> session;
  /// Per-node bytecode cache: a validator's warm CodeAnalysis working set
  /// is its own, not shared process state.
  evm::CodeAnalysisCache analysis;
  std::uint64_t busy_until_us = 0;  // virtual time this node frees up
};

enum class Phase { kIdle, kProposed, kVoted, kSettled };

// ---------------------------------------------------------------------------
// Wire framing
// ---------------------------------------------------------------------------
// The gossip layer carries two message classes, distinguished by a one-byte
// tag: RLP block announcements and consensus votes.  Votes ride the same
// faulty links as blocks — a partition that eats announcements eats votes
// too, which is exactly what the quorum/timeout machinery recovers from.

constexpr std::uint8_t kTagBlock = 0xB1;
constexpr std::uint8_t kTagVote = 0x57;

struct VoteMsg {
  std::size_t voter = 0;  // validator index (not node id)
  std::uint64_t height = 0;
  std::size_t attempt = 0;
  Hash256 hash;  // block hash the voter chose
};

Bytes encode_vote(const VoteMsg& vm) {
  Bytes out;
  out.reserve(1 + 1 + 8 + 4 + 32);
  out.push_back(kTagVote);
  out.push_back(static_cast<std::uint8_t>(vm.voter));
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>((vm.height >> (8 * i)) & 0xFF));
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>((vm.attempt >> (8 * i)) & 0xFF));
  out.insert(out.end(), vm.hash.bytes.begin(), vm.hash.bytes.end());
  return out;
}

VoteMsg decode_vote(const Bytes& wire) {
  BP_ASSERT_MSG(wire.size() == 1 + 1 + 8 + 4 + 32 && wire[0] == kTagVote,
                "malformed vote wire");
  VoteMsg vm;
  vm.voter = wire[1];
  for (int i = 0; i < 8; ++i)
    vm.height |= static_cast<std::uint64_t>(wire[2 + i]) << (8 * i);
  std::uint32_t attempt = 0;
  for (int i = 0; i < 4; ++i)
    attempt |= static_cast<std::uint32_t>(wire[10 + i]) << (8 * i);
  vm.attempt = attempt;
  std::copy(wire.begin() + 14, wire.end(), vm.hash.bytes.begin());
  return vm;
}

/// The shared per-height scoreboard: which attempt is live, what each
/// validator has received, tallied, and decided, and the report being
/// assembled.  Everything except `attempt`, `propose_attempts`, and
/// `ready_us` is per-attempt state, wiped by reset_height().
struct HeightSim {
  Phase phase = Phase::kIdle;
  std::size_t attempt = 0;  // bumped on revocation; stales old events
  std::size_t propose_attempts = 0;  // across attempts: the liveness budget
  std::uint64_t ready_us = 0;  // when the height first became proposable
  std::uint64_t propose_start_us = 0;
  std::vector<std::vector<core::BlockBundle>> inbox;  // per validator
  std::vector<std::vector<Hash256>> got;  // header hashes received (dedup)
  std::vector<std::uint64_t> last_arrival;  // per validator
  std::vector<char> pushed;       // session push_height() done
  std::vector<Hash256> node_vote;  // own vote (zero = could not vote)
  std::vector<char> cast;          // vote broadcast
  std::vector<std::vector<Hash256>> recv;  // recv[v][w]: w's vote, seen by v
  std::vector<char> decided;       // local quorum reached
  std::vector<char> exhausted;     // retry budget burned
  std::size_t cast_count = 0;
  std::size_t decided_count = 0;
  std::size_t exhausted_count = 0;
  // Announcement store for timeout-driven re-pulls.
  std::vector<Bytes> ann_wire;  // tagged, exactly as broadcast
  std::vector<Hash256> ann_hash;
  std::vector<NodeId> ann_proposer;
  RoundReport report;
};

// Event kinds double as same-time priorities: settlement outcomes must be
// visible before arrivals/votes at the same instant, deadlines only fire
// after every same-time delivery had its chance, and proposals go last so
// they build on everything that settled "now".
constexpr int kEvSettle = 0;
constexpr int kEvArrival = 1;      // block announcement delivery
constexpr int kEvVoteArrival = 2;  // vote delivery
constexpr int kEvVoteCast = 3;     // local validation done -> broadcast vote
constexpr int kEvTimeout = 4;      // vote deadline (backoff chain)
constexpr int kEvPropose = 5;

struct Ev {
  std::uint64_t t = 0;
  int kind = kEvPropose;
  std::size_t node = 0;     // validator index for arrivals/votes/timeouts
  std::uint64_t height = 0;
  std::size_t attempt = 0;  // matched against HeightSim::attempt
  std::uint64_t seq = 0;    // creation order, final determinism tiebreak
  /// Arrival arena index (kEvArrival), vote arena index (kEvVoteArrival),
  /// or retry index (kEvTimeout).
  std::size_t payload = SIZE_MAX;
};

struct EvLater {
  bool operator()(const Ev& a, const Ev& b) const noexcept {
    if (a.t != b.t) return a.t > b.t;
    if (a.kind != b.kind) return a.kind > b.kind;
    if (a.node != b.node) return a.node > b.node;
    return a.seq > b.seq;
  }
};

class EventDriver {
 public:
  explicit EventDriver(const ConsensusSimConfig& config)
      : config_(config),
        P_(config.proposer_nodes),
        V_(config.validator_nodes),
        ppr_(config.proposers_per_round),
        quorum_(ConsensusSim::quorum_size(config.validator_nodes,
                                          config.quorum_votes)),
        gen_(config.workload),
        genesis_(gen_.genesis()),
        network_(P_ + V_, config.link),
        workers_(4) {
    BP_ASSERT_MSG(V_ <= 255, "vote wire carries the voter in one byte");
    if (config_.commit_threads > 0)
      commit_pool_ = std::make_unique<ThreadPool>(config_.commit_threads);
    proposer_commits_ =
        std::make_unique<commit::CommitPipeline>(commit_pool_.get());

    core::ProposerConfig pcfg;
    pcfg.threads = config_.proposer_threads;
    pcfg.mode = config_.proposer_mode;
    pcfg.commit_pipeline = proposer_commits_.get();
    pcfg.analysis_cache = &proposer_analysis_;
    // One proposer per node, kept across rounds: under kAdaptive its engine
    // carries that node's conflict-ratio signal from block to block.
    proposers_.reserve(P_);
    for (std::size_t p = 0; p < P_; ++p) proposers_.emplace_back(pcfg);

    nodes_.reserve(V_);
    for (std::size_t v = 0; v < V_; ++v) {
      auto node = std::make_unique<VNode>();
      node->chain = std::make_unique<chain::Blockchain>(genesis_);
      node->commits =
          std::make_unique<commit::CommitPipeline>(commit_pool_.get());
      core::ValidatorConfig vcfg;
      vcfg.threads = config_.validator_workers;
      vcfg.engine = config_.validator_engine;
      // Degraded mode (no commit pool) validates roots inline at push time,
      // so a Byzantine root yields "no votable sibling" immediately instead
      // of a settle-time cascade — the silent validator then rides the
      // timeout/re-propose path like any other quorum miss.
      vcfg.commit_pipeline =
          config_.commit_threads > 0 ? node->commits.get() : nullptr;
      vcfg.analysis_cache = &node->analysis;
      node->session = std::make_unique<core::ChainSession>(vcfg, genesis_);
      nodes_.push_back(std::move(node));
    }

    canon_hash_ = nodes_[0]->chain->genesis_hash();
    hs_.resize(config_.rounds + 1);
    for (std::uint64_t h = 1; h <= config_.rounds; ++h)
      hs_[h].report.height = h;
  }

  ConsensusSimResult run() {
    try_schedule_propose(1, 0);
    while (!queue_.empty() && !violated_) {
      Ev ev = queue_.top();
      queue_.pop();
      switch (ev.kind) {
        case kEvPropose: handle_propose(ev); break;
        case kEvArrival: handle_arrival(ev); break;
        case kEvVoteArrival: handle_vote_arrival(ev); break;
        case kEvVoteCast: handle_vote_cast(ev); break;
        case kEvTimeout: handle_timeout(ev); break;
        case kEvSettle: handle_settle(ev); break;
      }
    }

    // Abandoned speculative commitments (dropped by re-proposals) may still
    // be in flight; drain so the run returns with the commit pool idle.
    for (const auto& node : nodes_) node->commits->drain();
    proposer_commits_->drain();

    for (std::uint64_t h = 1; h <= config_.rounds; ++h)
      result_.rounds.push_back(hs_[h].report);
    result_.bytes_gossiped = network_.bytes_sent();
    const FaultStats& fs = network_.fault_stats();
    result_.messages_dropped = fs.dropped;
    result_.messages_duplicated = fs.duplicated;
    result_.messages_reordered = fs.reordered;
    result_.messages_partitioned = fs.partitioned;
    return std::move(result_);
  }

 private:
  void fail(std::string why) {
    result_.safety_held = false;
    result_.violation = std::move(why);
    violated_ = true;
  }

  /// Expands every resolved network delivery into a typed event.
  /// SimNetwork resolves delivery times at send(), so draining after each
  /// send site keeps the event queue holding the full pending schedule.
  void pump_network() {
    while (auto msg = network_.next_delivery()) {
      if (msg->to < P_) continue;  // proposers neither validate nor vote
      if (msg->payload.empty()) continue;
      const std::size_t v = msg->to - P_;
      switch (msg->payload[0]) {
        case kTagBlock: {
          chain::BlockAnnouncement ann = chain::decode_announcement(
              std::span(msg->payload).subspan(1));
          const std::uint64_t hh = ann.block.header.number;
          if (hh == 0 || hh > config_.rounds) break;
          arena_.push_back({std::move(ann.block), std::move(ann.profile)});
          push_ev({msg->deliver_time_us, kEvArrival, v, hh, hs_[hh].attempt,
                   0, arena_.size() - 1});
          break;
        }
        case kTagVote: {
          const VoteMsg vm = decode_vote(msg->payload);
          if (vm.height == 0 || vm.height > config_.rounds) break;
          vote_arena_.push_back(vm);
          // The event carries the SENDER's attempt: a vote for a revoked
          // attempt stales out on its own.
          push_ev({msg->deliver_time_us, kEvVoteArrival, v, vm.height,
                   vm.attempt, 0, vote_arena_.size() - 1});
          break;
        }
        default:
          BP_ASSERT_MSG(false, "unknown gossip tag");
      }
    }
  }

  void push_ev(Ev ev) {
    ev.seq = seq_++;
    queue_.push(ev);
  }

  /// Requests a proposal for `height` no earlier than `ready_us`; parks it
  /// when the speculation window is full (at most one height can ever be
  /// parked — proposals are requested strictly in height order).
  void try_schedule_propose(std::uint64_t height, std::uint64_t ready_us) {
    if (dead_ || height > config_.rounds) return;
    HeightSim& h = hs_[height];
    if (h.phase != Phase::kIdle) return;
    h.ready_us = ready_us;
    if (height > last_settled_ + config_.speculation_depth + 1) {
      parked_height_ = height;
      parked_ready_us_ = ready_us;
      return;
    }
    push_ev({ready_us, kEvPropose, 0, height, h.attempt, 0, SIZE_MAX});
  }

  void handle_propose(const Ev& ev) {
    HeightSim& h = hs_[ev.height];
    if (dead_ || ev.attempt != h.attempt || h.phase != Phase::kIdle) return;
    result_.makespan_us = std::max(result_.makespan_us, ev.t);
    h.phase = Phase::kProposed;
    h.propose_start_us = ev.t;
    ++h.propose_attempts;
    h.report = RoundReport{};
    h.report.height = ev.height;
    h.report.siblings = ppr_;
    h.report.attempts = h.propose_attempts;
    h.inbox.assign(V_, {});
    h.got.assign(V_, {});
    h.last_arrival.assign(V_, 0);
    h.pushed.assign(V_, 0);
    h.node_vote.assign(V_, Hash256{});
    h.cast.assign(V_, 0);
    h.recv.assign(V_, std::vector<Hash256>(V_));
    h.decided.assign(V_, 0);
    h.exhausted.assign(V_, 0);
    h.cast_count = h.decided_count = h.exhausted_count = 0;
    h.ann_wire.clear();
    h.ann_hash.clear();
    h.ann_proposer.clear();
    if (h.attempt > 0) result_.reproposed_blocks += ppr_;

    const std::size_t byz = std::min(config_.byzantine_proposers, ppr_);
    for (std::size_t k = 0; k < ppr_; ++k) {
      const NodeId proposer_id = (ev.height * ppr_ + k) % P_;
      txpool::TxPool pool;
      pool.add_all(gen_.next_block());
      core::ProposedBlock blk = proposers_[proposer_id].propose(
          nodes_[0]->session->tip(),
          ctx_for(ev.height, Address::from_id(0xFEE000 + proposer_id)), pool,
          workers_);
      if (core::is_block_stm(blk.stats.engine_used))
        ++result_.blocks_stm;
      else
        ++result_.blocks_occ;
      blk.block.header.parent_hash = canon_hash_;
      blk.await_seal();
      if (ev.height == config_.byzantine_height && h.attempt == 0 &&
          k < byz) {
        // Byzantine leader: gossip a block whose sealed root lies.
        // Execution still replays cleanly, so the lie survives until the
        // validators' commitments settle.
        blk.block.header.state_root.bytes[0] ^= 0xA5;
      }
      const std::uint64_t bcast_us =
          ev.t + blk.stats.vtime_makespan / ConsensusSim::kGasPerUs;
      chain::BlockAnnouncement ann;
      ann.block = std::move(blk.block);
      ann.profile = std::move(blk.profile);
      Bytes wire;
      {
        const Bytes enc = chain::encode_announcement(ann);
        wire.reserve(enc.size() + 1);
        wire.push_back(kTagBlock);
        wire.insert(wire.end(), enc.begin(), enc.end());
      }
      // Keep the wire around: vote deadlines re-pull announcements a
      // validator is still missing straight from this store.
      h.ann_hash.push_back(ann.block.header.hash());
      h.ann_proposer.push_back(proposer_id);
      h.ann_wire.push_back(wire);
      network_.broadcast(proposer_id, bcast_us, std::move(wire));
    }
    pump_network();

    // Arm the vote deadlines: one backoff chain per validator, anchored at
    // the propose time (Ev::payload carries the retry index).
    for (std::size_t v = 0; v < V_; ++v)
      push_ev({ConsensusSim::vote_deadline(ev.t, config_.vote_timeout_us, 0),
               kEvTimeout, v, ev.height, h.attempt, 0, 0});
  }

  void handle_arrival(const Ev& ev) {
    HeightSim& h = hs_[ev.height];
    if (dead_ || ev.attempt != h.attempt || h.phase != Phase::kProposed)
      return;
    result_.makespan_us = std::max(result_.makespan_us, ev.t);
    const std::size_t v = ev.node;
    core::BlockBundle& bundle = arena_[ev.payload];
    const Hash256 bh = bundle.block.header.hash();
    // Duplicate deliveries (fault-plan dups, timeout re-pulls) fold away.
    for (const Hash256& seen : h.got[v])
      if (seen == bh) return;
    h.got[v].push_back(bh);
    h.inbox[v].push_back(std::move(bundle));
    h.last_arrival[v] = std::max(h.last_arrival[v], ev.t);
    if (h.inbox[v].size() < h.report.siblings || h.pushed[v]) return;
    h.pushed[v] = 1;

    // Every sibling announcement is in: validate the height speculatively
    // (root checks stay pending on the node's commit pipeline) and vote.
    VNode& node = *nodes_[v];
    const std::uint64_t vt_before = node.session->stats().vtime_makespan;
    const std::size_t first_valid = node.session->push_height(
        std::span(h.inbox[v].data(), h.inbox[v].size()), workers_);
    const std::uint64_t mk =
        node.session->stats().vtime_makespan - vt_before;
    const std::size_t idx = ev.height - 1;  // session height index

    // The vote is the smallest block hash among execution-valid siblings —
    // arrival-order independent, so jittered delivery cannot split honest
    // nodes.
    std::size_t vote_idx = SIZE_MAX;
    for (std::size_t i = 0; i < h.inbox[v].size(); ++i) {
      if (!node.session->outcome(idx, i).valid) continue;
      if (vote_idx == SIZE_MAX ||
          node.session->block_hash(idx, i) <
              node.session->block_hash(idx, vote_idx))
        vote_idx = i;
    }
    if (vote_idx == SIZE_MAX) {
      // No execution-valid sibling (inline commitments expose a Byzantine
      // root at push time): this validator cannot vote.  It stays silent;
      // the height times out, exhausts every retry budget, and re-proposes
      // with fresh leaders instead of asserting.
      return;
    }
    h.node_vote[v] = node.session->block_hash(idx, vote_idx);
    if (vote_idx != first_valid) node.session->choose(idx, vote_idx);
    const auto& voted = node.session->outcome(idx, vote_idx);
    if (voted.commit.valid() && !voted.commit.ready())
      ++h.report.speculative_votes;

    const std::uint64_t done =
        std::max(node.busy_until_us, h.last_arrival[v]) +
        mk / ConsensusSim::kGasPerUs;
    node.busy_until_us = done;
    push_ev({done, kEvVoteCast, v, ev.height, h.attempt, 0, SIZE_MAX});
  }

  /// Folds `voter`'s vote into v's tally (duplicates and nil votes no-op).
  void record_vote(HeightSim& h, std::size_t v, std::size_t voter,
                   const Hash256& hash) {
    if (hash.is_zero()) return;
    if (!h.recv[v][voter].is_zero()) return;
    h.recv[v][voter] = hash;
  }

  /// A validator decides its height once it has cast its own vote and holds
  /// `quorum_` matching votes (its own included).
  void try_decide(HeightSim& h, std::size_t v) {
    if (!h.cast[v] || h.decided[v]) return;
    std::size_t matching = 0;
    for (std::size_t w = 0; w < V_; ++w)
      if (!h.recv[v][w].is_zero() && h.recv[v][w] == h.node_vote[v])
        ++matching;
    if (matching < quorum_) return;
    h.decided[v] = 1;
    ++h.decided_count;
  }

  void handle_vote_cast(const Ev& ev) {
    HeightSim& h = hs_[ev.height];
    if (dead_ || ev.attempt != h.attempt || h.phase != Phase::kProposed)
      return;
    result_.makespan_us = std::max(result_.makespan_us, ev.t);
    const std::size_t v = ev.node;
    if (h.cast[v]) return;
    h.cast[v] = 1;
    ++h.cast_count;
    record_vote(h, v, v, h.node_vote[v]);
    // The vote is a real gossip message: it rides the same faulty links as
    // the block announcements it endorses.
    network_.broadcast(P_ + v, ev.t,
                       encode_vote({v, ev.height, h.attempt, h.node_vote[v]}));
    pump_network();
    try_decide(h, v);
    check_vote_complete(ev.height, ev.t);
  }

  void handle_vote_arrival(const Ev& ev) {
    HeightSim& h = hs_[ev.height];
    if (dead_ || ev.attempt != h.attempt || h.phase != Phase::kProposed)
      return;
    result_.makespan_us = std::max(result_.makespan_us, ev.t);
    const VoteMsg& vm = vote_arena_[ev.payload];
    record_vote(h, ev.node, vm.voter, vm.hash);
    try_decide(h, ev.node);
    check_vote_complete(ev.height, ev.t);
  }

  /// The vote phase completes chain-wide when every validator has cast AND
  /// decided.  Quorum already tolerates lost vote *messages* (each node
  /// needs only quorum_ of V_) — the all-decided barrier is what lets the
  /// harness settle the replicas in lock-step.
  void check_vote_complete(std::uint64_t height, std::uint64_t t) {
    HeightSim& h = hs_[height];
    if (h.cast_count < V_ || h.decided_count < V_) return;
    complete_vote(height, t);
  }

  void complete_vote(std::uint64_t height, std::uint64_t t) {
    HeightSim& h = hs_[height];
    const std::size_t idx = height - 1;

    // ---- consensus: the quorum hash must be one value chain-wide ----
    // (Validators are honest; quorum absorbs lost messages, never split
    // votes — a split here is a safety violation.)
    const Hash256 first = h.node_vote[0];
    for (const Hash256& vote : h.node_vote) {
      if (vote.is_zero() || !(vote == first)) {
        fail("validators voted for different blocks at height " +
             std::to_string(height));
        return;
      }
    }
    h.phase = Phase::kVoted;
    canon_hash_ = first;
    h.report.round_latency_us = t - h.propose_start_us;
    result_.speculative_votes += h.report.speculative_votes;

    // The quorum is the network layer's licence to settle: record it on
    // every replica before any settle event may fire.
    for (std::size_t v = 0; v < V_; ++v)
      nodes_[v]->session->mark_quorum(idx);

    // Virtual commitment: every sibling root must fold before the height
    // can settle.  Commitment work of distinct heights overlaps on the
    // commit pool, so each height's cost is charged from its own vote;
    // settle events still fire in height order (the pipeline is FIFO).
    std::uint64_t cost_us = 0;
    if (config_.commit_threads > 0) {
      std::uint64_t gas = 0;
      for (const core::BlockBundle& b : h.inbox[0])
        gas += b.block.header.gas_used;
      cost_us = gas / std::max<std::uint64_t>(1, config_.commit_gas_per_us);
    }
    const std::uint64_t settle_at =
        std::max(t + cost_us, last_settle_sched_us_);
    last_settle_sched_us_ = settle_at;
    push_ev({settle_at, kEvSettle, 0, height, h.attempt, 0, SIZE_MAX});

    try_schedule_propose(height + 1, t);
  }

  void handle_timeout(const Ev& ev) {
    HeightSim& h = hs_[ev.height];
    if (dead_ || ev.attempt != h.attempt || h.phase != Phase::kProposed)
      return;
    result_.makespan_us = std::max(result_.makespan_us, ev.t);
    const std::size_t v = ev.node;
    const std::size_t retry = ev.payload;
    ++result_.vote_timeouts;
    if (retry >= config_.vote_retry_budget) {
      // Budget burned.  The height re-proposes only when EVERY validator
      // has given up — a straggler with retries left may still pull the
      // height through.
      if (!h.exhausted[v]) {
        h.exhausted[v] = 1;
        if (++h.exhausted_count == V_) repropose_height(ev.height, ev.t);
      }
      return;
    }
    if (h.cast[v]) {
      // Rebroadcast the vote.  A validator keeps doing this past its own
      // local decision (until the height completes chain-wide): after a
      // heal it is these rebroadcasts that refill a straggler's tally.
      network_.broadcast(
          P_ + v, ev.t,
          encode_vote({v, ev.height, h.attempt, h.node_vote[v]}));
      ++result_.vote_retransmits;
    } else {
      // Still missing announcements: pull them again from their proposers.
      for (std::size_t k = 0; k < h.ann_wire.size(); ++k) {
        bool have = false;
        for (const Hash256& seen : h.got[v])
          if (seen == h.ann_hash[k]) { have = true; break; }
        if (have) continue;
        network_.send(h.ann_proposer[k], P_ + v, ev.t, h.ann_wire[k]);
        ++result_.vote_retransmits;
      }
    }
    pump_network();
    push_ev({ConsensusSim::vote_deadline(h.propose_start_us,
                                         config_.vote_timeout_us, retry + 1),
             kEvTimeout, v, ev.height, h.attempt, 0, retry + 1});
  }

  /// Quorum never formed within the retry budget: discard the attempt and
  /// re-propose with fresh leaders, or — when the proposal budget is also
  /// burned — declare liveness lost.  Safety is never at stake here:
  /// nothing at this height settled, and nothing past it was proposed.
  void repropose_height(std::uint64_t height, std::uint64_t t) {
    HeightSim& h = hs_[height];
    const std::size_t idx = height - 1;
    // Unwind the speculative session records.  Pending commit handles are
    // simply dropped; the pipelines publish and drain abandoned
    // submissions on their own.
    for (std::size_t v = 0; v < V_; ++v)
      if (h.pushed[v]) nodes_[v]->session->drop_unsettled(idx);
    if (h.propose_attempts >= config_.max_propose_attempts) {
      ++result_.quorum_failures;
      // Park the height for good: stale every in-flight event and stop.
      // Earlier voted heights still settle; nothing deeper was proposed.
      ++h.attempt;
      h.phase = Phase::kIdle;
      return;
    }
    ++result_.quorum_reproposals;
    reset_height(h, height);
    push_ev({t, kEvPropose, 0, height, h.attempt, 0, SIZE_MAX});
  }

  /// Returns a height to kIdle for a fresh attempt: stales every in-flight
  /// event via the attempt counter and wipes the per-attempt scoreboard.
  /// propose_attempts (the liveness budget) and ready_us survive.
  void reset_height(HeightSim& s, std::uint64_t hh) {
    ++s.attempt;
    s.phase = Phase::kIdle;
    s.inbox.clear();
    s.got.clear();
    s.last_arrival.clear();
    s.pushed.clear();
    s.node_vote.clear();
    s.cast.clear();
    s.recv.clear();
    s.decided.clear();
    s.exhausted.clear();
    s.cast_count = s.decided_count = s.exhausted_count = 0;
    s.ann_wire.clear();
    s.ann_hash.clear();
    s.ann_proposer.clear();
    s.report = RoundReport{};
    s.report.height = hh;
  }

  void handle_settle(const Ev& ev) {
    HeightSim& h = hs_[ev.height];
    if (dead_ || ev.attempt != h.attempt || h.phase != Phase::kVoted) return;
    result_.makespan_us = std::max(result_.makespan_us, ev.t);
    const std::size_t idx = ev.height - 1;

    bool ok0 = false;
    for (std::size_t v = 0; v < V_; ++v) {
      core::ChainSession& session = *nodes_[v]->session;
      // Settlement is licensed by the recorded quorum: a height with lost
      // votes parks in kProposed and never schedules this event, so a
      // session without the flag here is a harness bug, not bad luck.
      if (!session.can_settle() || !session.has_quorum(idx)) {
        fail("settlement without quorum at height " +
             std::to_string(ev.height));
        return;
      }
      const bool ok = session.settle_next();
      if (v == 0) {
        ok0 = ok;
      } else if (ok != ok0) {
        fail("validators disagree on settlement at height " +
             std::to_string(ev.height));
        return;
      }
    }
    if (ok0) {
      finalize_height(h, idx, ev.t);
      if (violated_) return;
      last_settled_ = ev.height;
      unpark(ev.t);
      return;
    }

    // ---- the voted block failed its root check: revoke and fork ----
    result_.revoked_votes += V_;
    std::vector<std::size_t> survivor(V_, SIZE_MAX);
    survivor[0] = nodes_[0]->session->fork_choice(idx);
    const bool any = survivor[0] != SIZE_MAX;
    const Hash256 surv_hash =
        any ? nodes_[0]->session->block_hash(idx, survivor[0]) : Hash256{};
    for (std::size_t v = 1; v < V_; ++v) {
      survivor[v] = nodes_[v]->session->fork_choice(idx);
      const bool mine = survivor[v] != SIZE_MAX;
      if (mine != any ||
          (mine &&
           !(nodes_[v]->session->block_hash(idx, survivor[v]) == surv_hash))) {
        fail("validators disagree on fork choice at height " +
             std::to_string(ev.height));
        return;
      }
    }

    if (!any) {
      // No sibling survived: the chain dies here (the cascade).
      dead_ = true;
      for (std::size_t v = 0; v < V_; ++v)
        nodes_[v]->session->cascade_from(idx);
      for (std::uint64_t hh = ev.height + 1; hh <= config_.rounds; ++hh)
        if (hs_[hh].phase == Phase::kVoted) result_.revoked_votes += V_;
      return;
    }

    // Revoke the speculative suffix built on the loser: stale every
    // in-flight event via the attempt counter, retract its votes, and
    // return each height to kIdle for re-proposal on the survivor.
    ++result_.fork_choices;
    for (std::uint64_t hh = ev.height + 1; hh <= config_.rounds; ++hh) {
      HeightSim& s = hs_[hh];
      if (s.phase == Phase::kIdle) continue;
      if (s.phase == Phase::kVoted) result_.revoked_votes += V_;
      reset_height(s, hh);
    }
    parked_height_ = 0;
    for (std::size_t v = 0; v < V_; ++v)
      nodes_[v]->session->adopt_fork(idx, survivor[v]);

    // The survivor's root already settled clean: the height finalizes on
    // it and the live loop resumes from its state.
    finalize_height(h, idx, ev.t);
    if (violated_) return;
    canon_hash_ = surv_hash;
    last_settled_ = ev.height;
    last_settle_sched_us_ = ev.t;
    try_schedule_propose(ev.height + 1, ev.t);
  }

  /// Shared settle-success tail: replica root agreement, canonical-first
  /// ledger commits on every node, and the round report.  The canonical
  /// sibling is whatever each session currently points at (the vote, or
  /// the fork-choice survivor after adopt_fork()).
  void finalize_height(HeightSim& h, std::size_t idx, std::uint64_t t) {
    const std::size_t c0 = nodes_[0]->session->canonical(idx);
    const Hash256 root0 =
        nodes_[0]->session->outcome(idx, c0).exec.state_root;
    for (std::size_t v = 0; v < V_; ++v) {
      VNode& node = *nodes_[v];
      const std::size_t c = node.session->canonical(idx);
      const auto& co = node.session->outcome(idx, c);
      if (!(co.exec.state_root == root0)) {
        fail("replica state divergence at height " +
             std::to_string(h.report.height));
        return;
      }
      // Canonical first so every replica's head extends identically; the
      // remaining valid siblings land as side-chain uncles.
      node.chain->commit_block(h.inbox[v][c].block, co.exec.post_state);
      std::size_t valid = 1;
      for (std::size_t i = 0; i < h.inbox[v].size(); ++i) {
        if (i == c || !node.session->outcome(idx, i).valid) continue;
        ++valid;
        node.chain->commit_block(h.inbox[v][i].block,
                                 node.session->outcome(idx, i).exec.post_state);
      }
      if (v == 0) {
        h.report.valid_siblings = valid;
        h.report.uncles = valid - 1;
        h.report.txs = h.inbox[v][c].block.transactions.size();
      }
    }
    h.phase = Phase::kSettled;
    h.report.settled = true;
    h.report.canonical_root = root0;
    h.report.settle_latency_us = t - h.ready_us;
    result_.settled_height = h.report.height;
    result_.total_txs += h.report.txs;
    result_.total_uncles += h.report.uncles;
  }

  /// Releases the parked proposal once the speculation window has room;
  /// the time it sat parked is the settle stall speculation failed to hide.
  void unpark(std::uint64_t now_us) {
    if (parked_height_ == 0 ||
        parked_height_ > last_settled_ + config_.speculation_depth + 1)
      return;
    const std::uint64_t at = std::max(now_us, parked_ready_us_);
    result_.settle_stall_us += at - parked_ready_us_;
    push_ev({at, kEvPropose, 0, parked_height_,
             hs_[parked_height_].attempt, 0, SIZE_MAX});
    parked_height_ = 0;
  }

  const ConsensusSimConfig& config_;
  const std::size_t P_;
  const std::size_t V_;
  const std::size_t ppr_;
  const std::size_t quorum_;
  workload::WorkloadGenerator gen_;
  const state::WorldState genesis_;
  SimNetwork network_;
  ThreadPool workers_;
  std::unique_ptr<ThreadPool> commit_pool_;
  std::unique_ptr<commit::CommitPipeline> proposer_commits_;
  evm::CodeAnalysisCache proposer_analysis_;
  std::vector<core::BlockProposer> proposers_;
  std::vector<std::unique_ptr<VNode>> nodes_;
  std::vector<HeightSim> hs_;
  std::priority_queue<Ev, std::vector<Ev>, EvLater> queue_;
  std::vector<core::BlockBundle> arena_;
  std::vector<VoteMsg> vote_arena_;
  std::uint64_t seq_ = 0;
  Hash256 canon_hash_;
  std::uint64_t last_settled_ = 0;
  std::uint64_t last_settle_sched_us_ = 0;
  std::uint64_t parked_height_ = 0;  // 0 = nothing parked
  std::uint64_t parked_ready_us_ = 0;
  bool dead_ = false;
  bool violated_ = false;
  ConsensusSimResult result_;
};

}  // namespace

ConsensusSim::ConsensusSim(ConsensusSimConfig config)
    : config_(std::move(config)) {
  BP_ASSERT(config_.proposer_nodes >= 1);
  BP_ASSERT(config_.validator_nodes >= 1);
  BP_ASSERT(config_.proposers_per_round >= 1);
  BP_ASSERT(config_.proposers_per_round <= config_.proposer_nodes);
  BP_ASSERT(config_.rounds >= 1);
  BP_ASSERT(config_.validator_nodes <= 255);
  BP_ASSERT(config_.vote_timeout_us >= 1);
  BP_ASSERT(config_.max_propose_attempts >= 1);
}

ConsensusSimResult ConsensusSim::run() {
  EventDriver driver(config_);
  return driver.run();
}

}  // namespace blockpilot::net

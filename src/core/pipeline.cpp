#include "core/pipeline.hpp"

#include <algorithm>
#include <thread>

#include "sched/depgraph.hpp"
#include "support/assert.hpp"
#include "support/stopwatch.hpp"

namespace blockpilot::core {

std::uint64_t simulate_shared_workers(std::vector<PipelineJob> jobs,
                                      std::size_t workers,
                                      std::uint64_t switch_cost) {
  BP_ASSERT(workers > 0);
  // LPT order maximizes balance, mirroring the per-block scheduler.
  std::sort(jobs.begin(), jobs.end(),
            [](const PipelineJob& a, const PipelineJob& b) {
              if (a.cost != b.cost) return a.cost > b.cost;
              return a.block_index < b.block_index;
            });
  std::vector<std::uint64_t> load(workers, 0);
  // SIZE_MAX = "no job yet": the first job on a worker pays no switch.
  std::vector<std::size_t> last_block(workers, SIZE_MAX);
  for (const PipelineJob& job : jobs) {
    std::size_t best = 0;
    for (std::size_t w = 1; w < workers; ++w)
      if (load[w] < load[best]) best = w;
    if (last_block[best] != SIZE_MAX && last_block[best] != job.block_index)
      load[best] += switch_cost;
    load[best] += job.cost;
    last_block[best] = job.block_index;
  }
  std::uint64_t makespan = 0;
  for (const std::uint64_t l : load) makespan = std::max(makespan, l);
  return makespan;
}

PipelineResult ValidatorPipeline::process_height_speculative(
    const state::WorldState& pre, std::span<const BlockBundle> siblings,
    ThreadPool& workers) {
  PipelineResult result;
  result.outcomes.resize(siblings.size());
  Stopwatch wall;

  // ---- real concurrent validation (correctness path) ----
  // Per-block driver threads run preparation + applier; transaction lanes
  // execute inside each driver via BlockValidator.  Sibling blocks touch
  // only their own copies of state, so drivers are independent.
  if (siblings.size() > 1) {
    // Each driver's lanes run on the shared pool and join only themselves;
    // drivers are dedicated jthreads because the applier blocks (a blocked
    // pool worker would starve execution).
    std::vector<std::jthread> drivers;
    drivers.reserve(siblings.size());
    for (std::size_t b = 0; b < siblings.size(); ++b) {
      drivers.emplace_back([&, b] {
        result.outcomes[b] = BlockValidator(config_).validate(
            pre, siblings[b].block, siblings[b].profile, workers);
      });
    }
    drivers.clear();  // join
  } else if (!siblings.empty()) {
    result.outcomes[0] = BlockValidator(config_).validate(
        pre, siblings[0].block, siblings[0].profile, workers);
  }

  // ---- virtual-time pipeline model ----
  // Jobs: every block's subgraphs, scheduled together on shared workers.
  // Each in-flight block pins one worker as its applier/driver (Fig. 5's
  // per-block Block Validation stage runs concurrently with execution), so
  // execution capacity shrinks as more blocks are processed at once — one
  // of the two §5.6 contention terms, alongside context switching.
  std::vector<PipelineJob> jobs;
  std::uint64_t max_applier_chain = 0;
  for (std::size_t b = 0; b < siblings.size(); ++b) {
    const sched::DependencyGraph graph = sched::build_dependency_graph(
        siblings[b].profile, config_.granularity);
    for (const auto& sg : graph.subgraphs) {
      jobs.push_back(PipelineJob{
          b, sg.total_gas + config_.costs.dispatch_cost});
    }
    const std::uint64_t applier_chain =
        siblings[b].profile.size() * config_.costs.apply_cost +
        config_.costs.block_fixed_cost;
    max_applier_chain = std::max(max_applier_chain, applier_chain);

    result.stats.serial_gas += siblings[b].block.header.gas_used;
  }

  const std::size_t exec_workers =
      config_.threads > siblings.size() ? config_.threads - siblings.size()
                                        : 1;
  const std::uint64_t exec_makespan = simulate_shared_workers(
      std::move(jobs), exec_workers, config_.costs.block_switch_cost);
  result.stats.vtime_makespan = std::max(exec_makespan, max_applier_chain);
  result.stats.blocks = siblings.size();
  result.stats.wall_ms = wall.elapsed_ms();
  return result;
}

PipelineResult ValidatorPipeline::process_height(
    const state::WorldState& pre, std::span<const BlockBundle> siblings,
    ThreadPool& workers) {
  PipelineResult result = process_height_speculative(pre, siblings, workers);
  // Single-height entry point: settle every pending root before returning,
  // so callers see final validity (same contract as the inline-commit mode).
  Stopwatch settle;
  for (auto& o : result.outcomes) {
    if (o.commit.valid()) ++result.stats.async_commits;
    o.await_commit();
  }
  result.stats.commit_wait_ms = settle.elapsed_ms();
  result.stats.wall_ms += result.stats.commit_wait_ms;
  return result;
}

// ---- ChainSession ----

std::size_t ChainSession::push_height(std::span<const BlockBundle> siblings,
                                      ThreadPool& workers) {
  PipelineResult round =
      pipeline_.process_height_speculative(tip(), siblings, workers);
  HeightRecord rec;
  rec.block_hashes.reserve(siblings.size());
  for (const BlockBundle& b : siblings)
    rec.block_hashes.push_back(b.block.header.hash());
  for (std::size_t i = 0; i < round.outcomes.size(); ++i) {
    if (round.outcomes[i].valid) {
      rec.canonical = i;
      break;
    }
  }
  rec.outcomes = std::move(round.outcomes);
  stats_.serial_gas += round.stats.serial_gas;
  // Heights serialize in the validation phase (Fig. 5): the next height's
  // execution consumes this height's final state.
  stats_.vtime_makespan += round.stats.vtime_makespan;
  stats_.blocks += round.stats.blocks;
  stats_.wall_ms += round.stats.wall_ms;
  heights_.push_back(std::move(rec));
  return heights_.back().canonical;
}

void ChainSession::choose(std::size_t height, std::size_t sibling) {
  BP_ASSERT(height < heights_.size());
  HeightRecord& rec = heights_[height];
  BP_ASSERT_MSG(!rec.settled, "re-choosing a settled height");
  BP_ASSERT(sibling < rec.outcomes.size());
  rec.canonical = sibling;
}

void ChainSession::mark_quorum(std::size_t height) {
  BP_ASSERT(height < heights_.size());
  BP_ASSERT_MSG(!heights_[height].settled, "quorum after settlement");
  heights_[height].quorum = true;
}

bool ChainSession::has_quorum(std::size_t height) const {
  BP_ASSERT(height < heights_.size());
  return heights_[height].quorum;
}

void ChainSession::drop_unsettled(std::size_t from_height) {
  BP_ASSERT_MSG(from_height >= settled_, "dropping a settled height");
  if (from_height >= heights_.size()) return;
  for (std::size_t h = from_height; h < heights_.size(); ++h)
    if (on_revoke_) on_revoke_(h);
  heights_.resize(from_height);
}

bool ChainSession::settle_next() {
  BP_ASSERT_MSG(settled_ < heights_.size(), "nothing unsettled");
  HeightRecord& rec = heights_[settled_];
  Stopwatch settle;
  // Every sibling settles, not just the canonical one: fork-choice needs to
  // know which survivors' roots matched their own headers.
  for (ValidationOutcome& o : rec.outcomes) {
    if (o.commit.valid()) ++stats_.async_commits;
    o.await_commit();
  }
  stats_.commit_wait_ms += settle.elapsed_ms();
  rec.settled = true;
  rec.ok = rec.canonical != SIZE_MAX && rec.outcomes[rec.canonical].valid;
  ++settled_;
  return rec.ok;
}

std::size_t ChainSession::fork_choice(std::size_t height) const {
  BP_ASSERT(height < heights_.size());
  const HeightRecord& rec = heights_[height];
  BP_ASSERT_MSG(rec.settled, "fork-choice before settlement");
  std::size_t best = SIZE_MAX;
  for (std::size_t i = 0; i < rec.outcomes.size(); ++i) {
    if (!rec.outcomes[i].valid) continue;
    if (best == SIZE_MAX || rec.block_hashes[i] < rec.block_hashes[best])
      best = i;
  }
  return best;
}

void ChainSession::adopt_fork(std::size_t height, std::size_t sibling) {
  BP_ASSERT(height < heights_.size());
  HeightRecord& rec = heights_[height];
  BP_ASSERT_MSG(rec.settled, "adopting before settlement");
  BP_ASSERT(sibling < rec.outcomes.size());
  BP_ASSERT_MSG(rec.outcomes[sibling].valid, "adopting a failed sibling");
  rec.canonical = sibling;
  rec.ok = true;
  for (std::size_t h = height + 1; h < heights_.size(); ++h)
    if (on_revoke_) on_revoke_(h);
  heights_.resize(height + 1);
  if (settled_ > heights_.size()) settled_ = heights_.size();
}

void ChainSession::cascade_from(std::size_t height) {
  for (std::size_t h = height; h < heights_.size(); ++h) {
    HeightRecord& rec = heights_[h];
    for (ValidationOutcome& o : rec.outcomes) {
      if (o.valid) {
        o.valid = false;
        o.reject_reason = "parent block failed commitment";
      }
    }
    rec.settled = true;
    rec.ok = false;
  }
  settled_ = heights_.size();
}

const state::WorldState& ChainSession::tip() const {
  for (std::size_t h = heights_.size(); h-- > 0;) {
    const HeightRecord& rec = heights_[h];
    if (rec.canonical != SIZE_MAX &&
        rec.outcomes[rec.canonical].exec.post_state != nullptr)
      return *rec.outcomes[rec.canonical].exec.post_state;
  }
  return *base_;
}

}  // namespace blockpilot::core

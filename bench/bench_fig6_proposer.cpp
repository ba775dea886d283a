// Figure 6 — Evaluation of Proposer.
//
// Paper: OCC-WSI proposers average 1.82x / 2.60x / 3.56x / 4.89x speedup at
// 2 / 4 / 8 / 16 threads; 99.7 % of blocks are accelerated; speedup rises
// steadily with threads (good scalability), and proposers beat validators
// because they only need *a* serializable schedule, not a specific one.
//
// This bench proposes a stream of mainnet-like blocks with the OCC-WSI
// engine at each thread count and reports the average virtual speedup, the
// accelerated-block fraction, and the per-thread-count histogram.
#include "bench_common.hpp"

namespace blockpilot::bench {
namespace {

constexpr int kBlocks = 30;

void run() {
  print_header("Figure 6: proposer OCC-WSI scalability",
               "avg speedup 1.82/2.60/3.56/4.89 @ 2/4/8/16 threads; "
               "99.7% of blocks accelerated");

  ThreadPool workers(1);  // virtual-time mode needs no host threads
  std::printf("%8s %12s %14s %10s %10s\n", "threads", "avg-speedup",
              "accelerated%", "aborts/bk", "wall-ms/bk");

  for (const std::size_t threads : {2u, 4u, 8u, 16u}) {
    workload::WorkloadConfig wc = workload::preset_mainnet();
    wc.seed = 0xF16;  // same stream for every thread count
    workload::WorkloadGenerator gen(wc);
    const state::WorldState genesis = gen.genesis();

    SpeedupHistogram hist;
    std::uint64_t aborts = 0;
    double wall = 0;
    for (int b = 0; b < kBlocks; ++b) {
      txpool::TxPool pool;
      pool.add_all(gen.next_block());
      core::ProposerConfig cfg;
      cfg.threads = threads;
      core::BlockProposer proposer(cfg);
      const core::ProposedBlock blk = proposer.propose(
          genesis, ctx_for(static_cast<std::uint64_t>(b) + 1), pool, workers);
      hist.add(blk.stats.virtual_speedup());
      aborts += blk.stats.aborts;
      wall += blk.stats.wall_ms;
    }
    std::printf("%8zu %12.2f %13.1f%% %10.1f %10.1f\n", threads,
                hist.average(), hist.accelerated_fraction() * 100.0,
                static_cast<double>(aborts) / kBlocks, wall / kBlocks);
    char label[64];
    std::snprintf(label, sizeof(label), "  %zu-thread", threads);
    hist.print(label);
  }
}

}  // namespace
}  // namespace blockpilot::bench

int main() { blockpilot::bench::run(); }

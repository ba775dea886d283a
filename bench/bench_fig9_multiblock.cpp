// Figure 9 — Multi-block evaluation of the validator pipeline.
//
// Paper: with 16 worker threads, processing 1..8 same-height blocks
// concurrently, the aggregate speedup rises from ~3.2x (1 block) to a peak
// of 7.72x at 4 blocks, then dips slightly toward 8 blocks as workers
// shift between block contexts and communication costs grow.
//
// Methodology matches §5.6: "we simulated executing multiple blocks at the
// same height by concurrently executing a block multiple times".
#include "bench_common.hpp"

namespace blockpilot::bench {
namespace {

constexpr int kBlocksPerPoint = 6;

void run() {
  print_header("Figure 9: multi-block pipeline @16 workers",
               "speedup rises 1->4 blocks (peak 7.72x), dips slightly 4->8");

  workload::WorkloadConfig wc = workload::preset_mainnet();
  wc.seed = 0xF19;
  workload::WorkloadGenerator gen(wc);
  const state::WorldState genesis = gen.genesis();

  std::vector<HonestBlock> base_blocks;
  for (int b = 0; b < kBlocksPerPoint; ++b)
    base_blocks.push_back(build_honest_block(
        genesis, gen.next_block(), 1));

  ThreadPool workers(4);
  std::printf("%8s %12s %16s\n", "blocks", "avg-speedup", "vs-single-block");
  double single = 0;
  for (const std::size_t concurrent : {1u, 2u, 3u, 4u, 5u, 6u, 8u}) {
    double sum = 0;
    for (const HonestBlock& hb : base_blocks) {
      // The same block replicated `concurrent` times at one height.
      std::vector<core::BlockBundle> siblings(concurrent, hb.bundle);
      core::ValidatorConfig pc;
      pc.threads = 16;
      core::ValidatorPipeline pipeline(pc);
      const auto result =
          pipeline.process_height(genesis, std::span(siblings), workers);
      if (!result.all_valid()) {
        std::printf("PIPELINE VALIDATION FAILED\n");
        return;
      }
      sum += result.stats.virtual_speedup();
    }
    const double avg = sum / kBlocksPerPoint;
    if (concurrent == 1) single = avg;
    std::printf("%8zu %12.2f %15.2fx\n", concurrent, avg,
                single > 0 ? avg / single : 0.0);
  }
}

}  // namespace
}  // namespace blockpilot::bench

int main() { blockpilot::bench::run(); }

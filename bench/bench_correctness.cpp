// §5.2 — Correctness validation (the paper's 10M-block replay, scaled).
//
// Paper: replaying blocks, the prototype always produced MPT state roots
// identical to the canonical chain ("Two world states are considered
// identical only if their MPT roots are the same").
//
// Here: a chain of generated blocks is built by the OCC-WSI proposer; at
// every height the serial oracle, the scheduled parallel validator, the
// two-phase OCC baseline and the pipeline must all reproduce the
// proposer's state root bit-for-bit.  The first divergence is printed and
// stops the replay with exit status 1.
#include "bench_common.hpp"

namespace blockpilot::bench {
namespace {

constexpr std::uint64_t kHeights = 30;

bool run() {
  print_header("Correctness replay (§5.2 analogue)",
               "all engines produce identical MPT roots at every height");

  workload::WorkloadConfig wc = workload::preset_mainnet();
  wc.seed = 0x52;
  wc.txs_per_block = 60;  // keep the full sweep CI-friendly
  workload::WorkloadGenerator gen(wc);

  auto state = std::make_shared<state::WorldState>(gen.genesis());
  ThreadPool workers(4);
  core::ProposerConfig pc;
  pc.threads = 8;
  core::BlockProposer proposer(pc);
  core::ValidatorConfig vc;
  vc.threads = 8;

  std::uint64_t txs_total = 0;
  std::uint64_t roots_checked = 0;
  for (std::uint64_t height = 1; height <= kHeights; ++height) {
    txpool::TxPool pool;
    pool.add_all(gen.next_block());
    const core::ProposedBlock blk =
        proposer.propose(*state, ctx_for(height), pool, workers);
    txs_total += blk.block.transactions.size();

    // Oracle 1: serial replay.
    core::SerialOptions so;
    so.drop_unincludable = false;
    const auto serial = core::execute_serial(
        *state, ctx_for(height), std::span(blk.block.transactions), so);
    if (!serial.ok ||
        serial.exec.state_root != blk.block.header.state_root) {
      std::printf("DIVERGENCE: serial oracle at height %llu\n",
                  static_cast<unsigned long long>(height));
      return false;
    }

    // Oracle 2: scheduled parallel validator.
    const auto validated = core::BlockValidator(vc).validate(
        *state, blk.block, blk.profile, workers);
    if (!validated.valid) {
      std::printf("DIVERGENCE: validator at height %llu: %s\n",
                  static_cast<unsigned long long>(height),
                  validated.reject_reason.c_str());
      return false;
    }

    // Oracle 3: two-phase OCC baseline.
    const auto occ =
        core::TwoPhaseOcc(vc).validate(*state, blk.block, workers);
    if (!occ.valid) {
      std::printf("DIVERGENCE: two-phase OCC at height %llu: %s\n",
                  static_cast<unsigned long long>(height),
                  occ.reject_reason.c_str());
      return false;
    }

    // Oracle 4: pipeline (single-height path).
    core::ValidatorConfig plc;
    plc.threads = 8;
    const std::vector<core::BlockBundle> bundle = {{blk.block, blk.profile}};
    const auto piped = core::ValidatorPipeline(plc).process_height(
        *state, std::span(bundle), workers);
    if (!piped.all_valid()) {
      std::printf("DIVERGENCE: pipeline at height %llu\n",
                  static_cast<unsigned long long>(height));
      return false;
    }

    roots_checked += 4;
    state = validated.exec.post_state;
  }

  std::printf("heights: %llu   transactions: %llu   root checks: %llu   "
              "divergences: 0\n",
              static_cast<unsigned long long>(kHeights),
              static_cast<unsigned long long>(txs_total),
              static_cast<unsigned long long>(roots_checked));
  std::printf("RESULT: all engines agree on every state root (PASS)\n");
  return true;
}

}  // namespace
}  // namespace blockpilot::bench

int main() { return blockpilot::bench::run() ? 0 : 1; }

// EVM interpreter bench: the per-code-hash CodeAnalysis cache + block
// -dispatch fast path against the frozen per-op reference interpreter.
//
//  1. Interpreter throughput — a compute-heavy loop contract (arithmetic,
//     memory, hashing; the profile where dispatch and per-op gas accounting
//     dominate) executed by both interpreters with a warm analysis cache.
//     Reports Mops (million executed EVM ops per second) per side and the
//     fast/reference speedup.
//  2. Analysis-cache dynamics under preset_mainnet — blocks executed
//     serially through a fresh private cache: analysis build time, build
//     count, and the hit rate of the first block vs steady state.
//  3. Per-profile block-execution latency — serial block execution wall
//     time per workload preset (mainnet / low / high conflict / NFT drop),
//     fast vs reference, on warm caches.
//
// Emits BENCH_evm.json.  `--smoke` shrinks iteration counts and turns the
// invariants into exit-code gates: fast/reference speedup >= 1.0 on the
// compute contract, steady-state hit rate >= 99 %.  It does not rewrite
// BENCH_evm.json.
#include <cinttypes>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "evm/assembler.hpp"
#include "evm/code_analysis.hpp"
#include "support/stopwatch.hpp"
#include "workload/generator.hpp"

namespace blockpilot::bench {
namespace {

using evm::Assembler;
using evm::CodeAnalysisCache;
using evm::Op;

// ---- experiment 1: interpreter throughput ----

/// Compute-heavy contract: `loop_iters` turns of arithmetic, shifts,
/// bit-mixing and memory traffic; returns the accumulator.  ~37 executed
/// ops per turn, all cheap — so dispatch overhead and per-op gas/stack
/// accounting dominate, which is exactly what the fast interpreter
/// eliminates.  Deliberately no SHA3/storage: keccak and trie I/O cost
/// the same on both paths and would only dilute the measurement.
evm::Bytes compute_contract(std::size_t loop_iters) {
  Assembler a;
  a.push(0).push(0).op(Op::MSTORE);                // mem[0] = accumulator
  a.push(U256{loop_iters}).push(0x20).op(Op::MSTORE);  // mem[0x20] = counter
  a.label("loop");
  a.push(0x20).op(Op::MLOAD);                      // counter
  a.op(Op::ISZERO);
  a.push_label("done").op(Op::JUMPI);
  // acc' = ((acc << 3) + ((acc >> 5) ^ (acc & 0xff))) + counter*3 + 1
  a.push(0).op(Op::MLOAD);                         // [acc]
  a.op(Op::DUP1);                                  // [acc acc]
  a.push(3).op(Op::SHL);                           // [acc acc<<3]
  a.op(Op::SWAP1);                                 // [acc<<3 acc]
  a.op(Op::DUP1);                                  // [acc<<3 acc acc]
  a.push(5).op(Op::SHR);                           // [acc<<3 acc acc>>5]
  a.op(Op::SWAP1);                                 // [acc<<3 acc>>5 acc]
  a.push(0xff).op(Op::AND);                        // [acc<<3 acc>>5 acc&ff]
  a.op(Op::XOR);                                   // [acc<<3 mix]
  a.op(Op::ADD);                                   // [sum]
  a.push(0x20).op(Op::MLOAD);                      // [sum counter]
  a.push(3).op(Op::MUL);                           // [sum counter*3]
  a.op(Op::ADD);
  a.push(1).op(Op::ADD);                           // [acc']
  a.push(0).op(Op::MSTORE);                        // store acc
  a.push(1).push(0x20).op(Op::MLOAD).op(Op::SUB);  // counter - 1
  a.push(0x20).op(Op::MSTORE);
  a.push_label("loop").op(Op::JUMP);
  a.label("done");
  a.push(0x20).push(0).op(Op::RETURN);
  return a.assemble();
}

struct ThroughputResult {
  double ref_ms = 0.0;
  double fast_ms = 0.0;
  double ref_mops = 0.0;
  double fast_mops = 0.0;
  double speedup = 0.0;
  std::uint64_t ops_per_run = 0;
  bool identical = true;  // status/gas/output agree between the two paths
};

ThroughputResult run_throughput(std::size_t loop_iters, std::size_t repeats) {
  state::WorldState ws;
  const Address contract = Address::from_id(0xC0DE);
  const Address caller = Address::from_id(1);
  ws.set_code(contract, compute_contract(loop_iters));

  CodeAnalysisCache cache;
  evm::BlockContext block = ctx_for(1);
  block.analysis_cache = &cache;

  auto execute = [&](bool reference, evm::CallResult* out) {
    const state::WorldStateView view(ws);
    state::ExecBuffer buffer(view);
    evm::TxContext tx;
    tx.origin = caller;
    tx.gas_price = U256{1};
    tx.block = &block;
    tx.analysis_cache = &cache;
    tx.use_reference_interpreter = reference;
    evm::Message msg;
    msg.caller = caller;
    msg.to = contract;
    msg.gas = 300'000'000;
    const evm::CallResult r = evm::execute_call(buffer, tx, msg);
    if (out != nullptr) *out = r;
  };

  ThroughputResult out;
  // Instruction count per run, from the loop body's shape (~37 executed
  // ops per turn + prologue/epilogue) — good enough for Mops scaling.
  out.ops_per_run = static_cast<std::uint64_t>(loop_iters) * 37 + 16;

  // Warm both paths (and the analysis cache) once, and check identity.
  evm::CallResult ref_r, fast_r;
  execute(true, &ref_r);
  execute(false, &fast_r);
  out.identical = ref_r.status == fast_r.status &&
                  ref_r.gas_left == fast_r.gas_left &&
                  ref_r.output == fast_r.output &&
                  ref_r.status == evm::Status::kSuccess;

  Stopwatch ref_sw;
  for (std::size_t i = 0; i < repeats; ++i) execute(true, nullptr);
  out.ref_ms = ref_sw.elapsed_ms();

  Stopwatch fast_sw;
  for (std::size_t i = 0; i < repeats; ++i) execute(false, nullptr);
  out.fast_ms = fast_sw.elapsed_ms();

  const std::uint64_t ops = out.ops_per_run;

  const double total_ops =
      static_cast<double>(ops) * static_cast<double>(repeats);
  out.ref_mops = total_ops / (out.ref_ms * 1e3);
  out.fast_mops = total_ops / (out.fast_ms * 1e3);
  out.speedup = out.ref_ms / out.fast_ms;
  return out;
}

// ---- experiment 2: cache dynamics under the mainnet workload ----

struct CacheResult {
  double first_block_hit_rate = 0.0;
  double steady_hit_rate = 0.0;  // blocks after the first
  std::uint64_t builds = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  double analysis_build_ms = 0.0;  // rebuild-everything wall time
};

CacheResult run_cache_dynamics(std::size_t blocks) {
  workload::WorkloadGenerator gen(workload::preset_mainnet());
  state::WorldState ws = gen.genesis();

  CodeAnalysisCache cache;
  core::SerialOptions opts;
  opts.analysis_cache = &cache;

  CacheResult out;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto txs = gen.next_block();
    const auto r =
        core::execute_serial(ws, ctx_for(b + 1), std::span(txs), opts);
    ws = *r.exec.post_state;
    if (b == 0) {
      out.first_block_hit_rate = cache.stats().hit_rate();
      cache.reset_stats();
    }
  }
  const auto s = cache.stats();
  out.steady_hit_rate = s.hit_rate();
  out.entries = s.entries;
  out.bytes = s.bytes;
  out.builds = s.builds;

  // Re-analyze every cached contract from scratch to price the work the
  // cache saves per hit.
  std::vector<std::pair<Hash256, std::shared_ptr<const state::Bytes>>> codes;
  for (std::size_t i = 0; i < gen.config().num_tokens; ++i) {
    const Address a = gen.token(i);
    if (auto c = ws.code(a)) codes.emplace_back(ws.code_hash(a), c);
  }
  for (std::size_t i = 0; i < gen.config().num_dex; ++i) {
    const Address a = gen.dex(i);
    if (auto c = ws.code(a)) codes.emplace_back(ws.code_hash(a), c);
  }
  Stopwatch sw;
  for (int rep = 0; rep < 50; ++rep)
    for (const auto& [h, c] : codes) (void)evm::analyze_code(std::span(*c), h);
  out.analysis_build_ms = sw.elapsed_ms() / 50.0;
  return out;
}

// ---- experiment 3: per-profile block latency ----

struct ProfileResult {
  std::string name;
  double ref_ms_per_block = 0.0;
  double fast_ms_per_block = 0.0;
  double speedup = 0.0;
  bool roots_match = true;
};

ProfileResult run_profile(const char* name, workload::WorkloadConfig cfg,
                          std::size_t blocks) {
  ProfileResult out;
  out.name = name;
  workload::WorkloadGenerator gen(cfg);
  const state::WorldState genesis = gen.genesis();

  // Pre-generate the block stream so both sides execute identical input.
  std::vector<std::vector<chain::Transaction>> stream;
  for (std::size_t b = 0; b < blocks; ++b) stream.push_back(gen.next_block());

  CodeAnalysisCache cache;
  auto run_side = [&](bool reference, double* ms_out) {
    state::WorldState ws = genesis;
    core::SerialOptions opts;
    opts.analysis_cache = &cache;
    Hash256 root;
    Stopwatch sw;
    for (std::size_t b = 0; b < stream.size(); ++b) {
      evm::BlockContext ctx = ctx_for(b + 1);
      ctx.use_reference_interpreter = reference;
      const auto r =
          core::execute_serial(ws, ctx, std::span(stream[b]), opts);
      ws = *r.exec.post_state;
      root = r.exec.state_root;
    }
    *ms_out = sw.elapsed_ms() / static_cast<double>(stream.size());
    return root;
  };

  double ref_ms = 0.0, fast_ms = 0.0;
  const Hash256 ref_root = run_side(true, &ref_ms);
  const Hash256 fast_root = run_side(false, &fast_ms);
  out.ref_ms_per_block = ref_ms;
  out.fast_ms_per_block = fast_ms;
  out.speedup = ref_ms / fast_ms;
  out.roots_match = ref_root == fast_root;
  return out;
}

int run(bool smoke) {
  print_header("EVM interpreter: CodeAnalysis cache + block dispatch",
               "per-code analysis shared across proposer/validator frames");

  const std::size_t loop_iters = smoke ? 2'000 : 20'000;
  const std::size_t repeats = smoke ? 20 : 100;
  const std::size_t cache_blocks = smoke ? 8 : 32;
  const std::size_t profile_blocks = smoke ? 4 : 16;

  int failures = 0;

  // 1. Throughput.
  const ThroughputResult tp = run_throughput(loop_iters, repeats);
  std::printf("\n[throughput] compute contract, %zu loop iters x %zu runs\n",
              loop_iters, repeats);
  std::printf("  reference: %8.2f ms  (%6.2f Mops)\n", tp.ref_ms, tp.ref_mops);
  std::printf("  fast:      %8.2f ms  (%6.2f Mops)\n", tp.fast_ms,
              tp.fast_mops);
  std::printf("  speedup:   %.2fx   bit-identical: %s\n", tp.speedup,
              tp.identical ? "yes" : "NO");
  if (!tp.identical) {
    std::printf("  GATE FAILED: fast path diverged from reference\n");
    ++failures;
  }
  if (smoke && tp.speedup < 1.0) {
    std::printf("  GATE FAILED: speedup %.2fx < 1.0x\n", tp.speedup);
    ++failures;
  }

  // 2. Cache dynamics.
  const CacheResult cd = run_cache_dynamics(cache_blocks);
  std::printf("\n[cache] preset_mainnet, %zu blocks, private cache\n",
              cache_blocks);
  std::printf("  first-block hit rate:  %6.2f %%\n",
              cd.first_block_hit_rate * 100.0);
  std::printf("  steady-state hit rate: %6.2f %%\n",
              cd.steady_hit_rate * 100.0);
  std::printf("  builds: %" PRIu64 "   entries: %zu   bytes: %zu\n",
              cd.builds, cd.entries, cd.bytes);
  std::printf("  full re-analysis of workload contracts: %.3f ms\n",
              cd.analysis_build_ms);
  if (smoke && cd.steady_hit_rate < 0.99) {
    std::printf("  GATE FAILED: steady-state hit rate %.4f < 0.99\n",
                cd.steady_hit_rate);
    ++failures;
  }

  // 3. Per-profile latency.
  std::vector<ProfileResult> profiles;
  profiles.push_back(run_profile("mainnet", workload::preset_mainnet(),
                                 profile_blocks));
  profiles.push_back(run_profile("low_conflict",
                                 workload::preset_low_conflict(),
                                 profile_blocks));
  profiles.push_back(run_profile("high_conflict",
                                 workload::preset_high_conflict(),
                                 profile_blocks));
  profiles.push_back(run_profile("nft_drop", workload::preset_nft_drop(),
                                 profile_blocks));
  std::printf("\n[profiles] serial block execution, %zu blocks each\n",
              profile_blocks);
  std::printf("  %-14s %12s %12s %9s %6s\n", "profile", "ref ms/blk",
              "fast ms/blk", "speedup", "root");
  for (const auto& p : profiles) {
    std::printf("  %-14s %12.3f %12.3f %8.2fx %6s\n", p.name.c_str(),
                p.ref_ms_per_block, p.fast_ms_per_block, p.speedup,
                p.roots_match ? "ok" : "SKEW");
    if (!p.roots_match) {
      std::printf("  GATE FAILED: %s state root diverged\n", p.name.c_str());
      ++failures;
    }
  }

  FILE* f = smoke ? nullptr : std::fopen("BENCH_evm.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::fprintf(f,
                 "  \"throughput\": {\"loop_iters\": %zu, \"repeats\": %zu, "
                 "\"ref_ms\": %.3f, \"fast_ms\": %.3f, \"ref_mops\": %.3f, "
                 "\"fast_mops\": %.3f, \"speedup\": %.3f, \"identical\": "
                 "%s},\n",
                 loop_iters, repeats, tp.ref_ms, tp.fast_ms, tp.ref_mops,
                 tp.fast_mops, tp.speedup, tp.identical ? "true" : "false");
    std::fprintf(f,
                 "  \"cache\": {\"blocks\": %zu, \"first_block_hit_rate\": "
                 "%.4f, \"steady_hit_rate\": %.4f, \"builds\": %" PRIu64
                 ", \"entries\": %zu, \"bytes\": %zu, "
                 "\"analysis_build_ms\": %.4f},\n",
                 cache_blocks, cd.first_block_hit_rate, cd.steady_hit_rate,
                 cd.builds, cd.entries, cd.bytes, cd.analysis_build_ms);
    std::fprintf(f, "  \"profiles\": [\n");
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      const auto& p = profiles[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"ref_ms_per_block\": %.4f, "
                   "\"fast_ms_per_block\": %.4f, \"speedup\": %.3f, "
                   "\"roots_match\": %s}%s\n",
                   p.name.c_str(), p.ref_ms_per_block, p.fast_ms_per_block,
                   p.speedup, p.roots_match ? "true" : "false",
                   i + 1 < profiles.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"gates_failed\": %d\n}\n", failures);
    std::fclose(f);
    std::printf("\nwrote BENCH_evm.json\n");
  }

  if (failures > 0) {
    std::printf("%d gate(s) failed\n", failures);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace blockpilot::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--smoke") smoke = true;
  return blockpilot::bench::run(smoke);
}

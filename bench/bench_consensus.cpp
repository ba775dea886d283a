// Settle latency / throughput vs speculation depth (§5.2 overlap).
//
// Sweeps the event-driven consensus loop over speculation_depth ∈
// {0, 1, 2, 4, 8} on an identical single-proposer workload and reports the
// average virtual settle latency, round latency, makespan, and parked-
// proposal stall per depth; depth 0 (lock-step) is the baseline row.
//
// The commitment throughput (commit_gas_per_us) is calibrated from two
// depth-0 probe runs so the per-height commitment cost c lands near
// 6× the per-height advance time `adv`: the window then still binds at
// depth 4 (c > 4·adv), which is the regime where every step of the sweep
// strictly shrinks the settle latency — the property this bench asserts
// (exit 1 on violation).  All quantities are virtual-time, so the sweep is
// deterministic for a fixed workload seed.
//
// A second sweep holds depth at 8 and raises the link's seeded drop rate
// through 20%, pricing the quorum/timeout machinery: settle latency,
// timeout count, retransmissions, and re-proposals per loss rate, with a
// liveness gate (full chain settles at every rate; exit 1 on violation).
//
// The engine section runs the same loop under every proposer engine
// (OCC-WSI, Block-STM, adaptive) and every validator engine (subgraph-LPT,
// Block-STM, adaptive), with three exit-1 gates: every run settles the
// full chain, the validator engines agree on every canonical root (the
// consensus-level face of the engine-differential matrix), and the
// adaptive proposer lands within 5% of the best fixed engine's settle
// latency.  A regime-flip pair (default vs dex-heavy workload, both under
// kAdaptive) demonstrates the per-block pick actually moving.
//
// Emits BENCH_consensus.json (machine-readable) plus a stdout table.
// `--smoke` runs only the engine section and its gates (CI budget); it
// does not rewrite BENCH_consensus.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "net/consensus_sim.hpp"

namespace {

using blockpilot::net::ConsensusSim;
using blockpilot::net::ConsensusSimConfig;
using blockpilot::net::ConsensusSimResult;

ConsensusSimConfig base_config() {
  ConsensusSimConfig cfg;
  cfg.proposer_nodes = 1;
  cfg.proposers_per_round = 1;  // forkless: the pure depth/latency signal
  cfg.validator_nodes = 3;
  cfg.rounds = 12;
  cfg.proposer_threads = 4;
  cfg.validator_workers = 8;
  cfg.commit_threads = 2;
  cfg.workload.seed = 0xC0456ULL;
  cfg.workload.txs_per_block = 40;
  // Fast links so commitment, not gossip, dominates the settle path.
  cfg.link.base_latency_us = 1'000;
  return cfg;
}

ConsensusSimResult run_at(const ConsensusSimConfig& base, std::size_t depth,
                          std::uint64_t gas_per_us) {
  ConsensusSimConfig cfg = base;
  cfg.speculation_depth = depth;
  cfg.commit_gas_per_us = gas_per_us;
  ConsensusSimResult r = ConsensusSim(cfg).run();
  if (!r.safety_held) {
    std::printf("FATAL: safety violation in bench run: %s\n",
                r.violation.c_str());
    std::exit(1);
  }
  return r;
}

double tx_per_s(const ConsensusSimResult& r) {
  if (r.makespan_us == 0) return 0.0;
  return static_cast<double>(r.total_txs) * 1e6 /
         static_cast<double>(r.makespan_us);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const ConsensusSimConfig base = base_config();

  // --- Calibration: two depth-0 probes isolate `adv` (per-height advance
  // with free commitment) and the gas folded per height.
  const std::uint64_t kDefaultGas = base.commit_gas_per_us;
  const ConsensusSimResult probe_free =
      run_at(base, 0, 1'000'000'000);  // c ≈ 0
  const ConsensusSimResult probe_paid = run_at(base, 0, kDefaultGas);
  const std::uint64_t adv_us = probe_free.makespan_us / base.rounds;
  const std::uint64_t paid_c_us =
      (probe_paid.makespan_us - probe_free.makespan_us) / base.rounds;
  const std::uint64_t gas_per_height = paid_c_us * kDefaultGas;
  std::uint64_t cal_gas_per_us =
      gas_per_height / std::max<std::uint64_t>(1, 6 * adv_us);
  if (cal_gas_per_us == 0) cal_gas_per_us = 1;
  const std::uint64_t target_c_us = gas_per_height / cal_gas_per_us;

  std::printf("calibration: adv=%llu us/height, gas=%llu/height, "
              "commit_gas_per_us=%llu -> c=%llu us (%.2fx adv)\n",
              (unsigned long long)adv_us, (unsigned long long)gas_per_height,
              (unsigned long long)cal_gas_per_us,
              (unsigned long long)target_c_us,
              static_cast<double>(target_c_us) / static_cast<double>(adv_us));

  // --- Sweep.
  const std::size_t kDepths[] = {0, 1, 2, 4, 8};
  std::vector<ConsensusSimResult> sweep;
  if (!smoke)
    for (const std::size_t d : kDepths)
      sweep.push_back(run_at(base, d, cal_gas_per_us));

  // --- Loss sweep: quorum liveness vs message loss at depth 8.  Each run
  // layers a seeded drop rate under the same workload; the vote timeout is
  // tight enough that every lost vote round-trips through the retransmit
  // machinery, so the settle-latency delta prices the fault tolerance.
  const std::uint32_t kDropPerMille[] = {0, 10, 50, 100, 200};
  std::vector<ConsensusSimResult> loss;
  if (!smoke) {
    for (const std::uint32_t drop : kDropPerMille) {
      ConsensusSimConfig cfg = base;
      cfg.speculation_depth = 8;
      cfg.commit_gas_per_us = cal_gas_per_us;
      // Above the fault-free round latency (with margin): a deadline only
      // fires when a message was actually lost, so drop=0 must stay
      // timeout-free.
      cfg.vote_timeout_us = 150'000;
      cfg.link.faults.drop_per_mille = drop;
      cfg.link.faults.seed = 0x10577EEDULL;
      ConsensusSimResult r = ConsensusSim(cfg).run();
      if (!r.safety_held) {
        std::printf("FATAL: safety violation at drop=%u per mille: %s\n",
                    drop, r.violation.c_str());
        return 1;
      }
      loss.push_back(std::move(r));
    }
  }

  // --- Proposer-engine compare: the same consensus loop under each
  // execution engine (all virtual-time twins — the sim's internal worker
  // pool is sized for the DES engines).  The engines serialize conflicts
  // differently, so blocks legitimately differ; the gates are per-run
  // safety, full settlement, and the adaptive engine landing within 5% of
  // the best fixed engine's settle latency (cross-engine root exactness
  // lives in bench_versioned_state's regime map and the validator section
  // below).
  const blockpilot::core::ScheduleMode kEngineModes[] = {
      blockpilot::core::ScheduleMode::kVirtualTime,
      blockpilot::core::ScheduleMode::kBlockStm,
      blockpilot::core::ScheduleMode::kAdaptive};
  const char* kEngineNames[] = {"occ-wsi", "block-stm", "adaptive"};
  std::vector<ConsensusSimResult> engines;
  for (const auto mode : kEngineModes) {
    ConsensusSimConfig cfg = base;
    cfg.speculation_depth = 2;
    cfg.commit_gas_per_us = cal_gas_per_us;
    cfg.proposer_mode = mode;
    ConsensusSimResult r = ConsensusSim(cfg).run();
    if (!r.safety_held) {
      std::printf("FATAL: safety violation under %s proposer: %s\n",
                  kEngineNames[engines.size()], r.violation.c_str());
      return 1;
    }
    engines.push_back(std::move(r));
  }
  bool engines_settled = true;
  for (const auto& r : engines)
    if (r.settled_height != base.rounds) engines_settled = false;
  const double best_fixed_settle_ms =
      std::min(engines[0].avg_settle_latency_ms(),
               engines[1].avg_settle_latency_ms());
  const bool adaptive_within =
      engines[2].avg_settle_latency_ms() <= best_fixed_settle_ms * 1.05;

  // --- Validator-engine compare: OCC-WSI proposer, every validator replay
  // discipline.  The proposal stream is identical across runs, so beyond
  // settlement the gate is bit-equality of every canonical root — the
  // consensus-level face of the engine-differential matrix.  The timing
  // columns are identical across the three rows by construction: the loop
  // charges validator time from ChainSession::stats().vtime_makespan,
  // which ValidatorPipeline::process_height_speculative computes from the
  // profile's subgraph list schedule (simulate_shared_workers) whatever
  // the engine.  Charging each engine its own replay makespan is a
  // cost-model change for the trace work, not this bench.
  const blockpilot::core::ValidatorEngine kValidatorEngines[] = {
      blockpilot::core::ValidatorEngine::kSubgraphLpt,
      blockpilot::core::ValidatorEngine::kBlockStm,
      blockpilot::core::ValidatorEngine::kAdaptive};
  const char* kValidatorNames[] = {"subgraph-lpt", "block-stm", "adaptive"};
  std::vector<ConsensusSimResult> vengines;
  for (const auto engine : kValidatorEngines) {
    ConsensusSimConfig cfg = base;
    cfg.speculation_depth = 2;
    cfg.commit_gas_per_us = cal_gas_per_us;
    cfg.validator_engine = engine;
    ConsensusSimResult r = ConsensusSim(cfg).run();
    if (!r.safety_held) {
      std::printf("FATAL: safety violation under %s validator: %s\n",
                  kValidatorNames[vengines.size()], r.violation.c_str());
      return 1;
    }
    vengines.push_back(std::move(r));
  }
  bool vengines_settled = true;
  bool vroots_agree = true;
  for (const auto& r : vengines) {
    if (r.settled_height != base.rounds) vengines_settled = false;
    for (std::size_t h = 0; h < r.rounds.size() && vroots_agree; ++h)
      if (r.rounds[h].canonical_root != vengines[0].rounds[h].canonical_root)
        vroots_agree = false;
  }

  // --- Regime flip: the adaptive proposer run above (default workload,
  // conflict ratio below the threshold) vs the same loop on a dex-heavy
  // workload that pushes past it.  The per-engine block counts must move.
  ConsensusSimConfig dex_cfg = base;
  dex_cfg.speculation_depth = 2;
  dex_cfg.commit_gas_per_us = cal_gas_per_us;
  dex_cfg.proposer_mode = blockpilot::core::ScheduleMode::kAdaptive;
  dex_cfg.workload.dex_fraction = 0.85;
  dex_cfg.workload.token_fraction = 0.10;
  dex_cfg.workload.contract_zipf_s = 2.2;
  const ConsensusSimResult dex = ConsensusSim(dex_cfg).run();
  if (!dex.safety_held) {
    std::printf("FATAL: safety violation in dex-heavy adaptive run: %s\n",
                dex.violation.c_str());
    return 1;
  }
  const ConsensusSimResult& adaptive_base = engines[2];
  const bool regime_flip = dex.blocks_stm > 0 && adaptive_base.blocks_occ > 0 &&
                           dex.blocks_stm > adaptive_base.blocks_stm &&
                           dex.settled_height == base.rounds;

  if (!smoke) {
    std::printf("\n%-14s %16s %16s %14s %14s %12s\n", "mode",
                "settle-lat(ms)", "round-lat(ms)", "makespan(ms)",
                "stall(ms)", "tx/s");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      char label[32];
      std::snprintf(label, sizeof label, "depth=%zu", kDepths[i]);
      std::printf("%-14s %16.2f %16.2f %14.2f %14.2f %12.0f\n", label,
                  sweep[i].avg_settle_latency_ms(),
                  sweep[i].avg_round_latency_ms(),
                  sweep[i].makespan_us / 1000.0,
                  sweep[i].settle_stall_us / 1000.0, tx_per_s(sweep[i]));
    }
  }

  std::printf("\n%-14s %16s %16s %14s %12s %10s %10s\n", "proposer",
              "settle-lat(ms)", "round-lat(ms)", "makespan(ms)", "tx/s",
              "occ-blks", "stm-blks");
  for (std::size_t i = 0; i < engines.size(); ++i) {
    std::printf("%-14s %16.2f %16.2f %14.2f %12.0f %10llu %10llu\n",
                kEngineNames[i], engines[i].avg_settle_latency_ms(),
                engines[i].avg_round_latency_ms(),
                engines[i].makespan_us / 1000.0, tx_per_s(engines[i]),
                (unsigned long long)engines[i].blocks_occ,
                (unsigned long long)engines[i].blocks_stm);
  }
  std::printf("%-14s %16.2f %16.2f %14.2f %12.0f %10llu %10llu\n",
              "adaptive-dex", dex.avg_settle_latency_ms(),
              dex.avg_round_latency_ms(), dex.makespan_us / 1000.0,
              tx_per_s(dex), (unsigned long long)dex.blocks_occ,
              (unsigned long long)dex.blocks_stm);

  std::printf("\n%-14s %16s %16s %14s %12s\n", "validator",
              "settle-lat(ms)", "round-lat(ms)", "makespan(ms)", "tx/s");
  for (std::size_t i = 0; i < vengines.size(); ++i) {
    std::printf("%-14s %16.2f %16.2f %14.2f %12.0f\n", kValidatorNames[i],
                vengines[i].avg_settle_latency_ms(),
                vengines[i].avg_round_latency_ms(),
                vengines[i].makespan_us / 1000.0, tx_per_s(vengines[i]));
  }

  if (!smoke) {
    std::printf("\n%-14s %16s %12s %12s %12s %12s\n", "loss",
                "settle-lat(ms)", "timeouts", "retransmits", "reproposals",
                "dropped");
    for (std::size_t i = 0; i < loss.size(); ++i) {
      char label[32];
      std::snprintf(label, sizeof label, "drop=%.1f%%",
                    kDropPerMille[i] / 10.0);
      std::printf("%-14s %16.2f %12llu %12llu %12llu %12llu\n", label,
                  loss[i].avg_settle_latency_ms(),
                  (unsigned long long)loss[i].vote_timeouts,
                  (unsigned long long)loss[i].vote_retransmits,
                  (unsigned long long)loss[i].quorum_reproposals,
                  (unsigned long long)loss[i].messages_dropped);
    }
  }

  // Liveness gate: up to 20% loss the quorum machinery must still settle
  // the full chain, and the fault-free run must neither drop nor time out.
  bool loss_liveness = true;
  for (const auto& r : loss)
    if (r.settled_height != base.rounds || r.quorum_failures != 0)
      loss_liveness = false;
  if (!loss.empty() &&
      (loss[0].messages_dropped != 0 || loss[0].vote_timeouts != 0))
    loss_liveness = false;

  bool strictly_decreasing = true;
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    if (sweep[i].avg_settle_latency_ms() >=
        sweep[i - 1].avg_settle_latency_ms())
      strictly_decreasing = false;
  }
  // Every settled root must agree across the whole sweep (same workload,
  // same chain).
  bool roots_agree = true;
  for (const auto& r : sweep) {
    if (r.settled_height != base.rounds) roots_agree = false;
    for (std::size_t h = 0; h < r.rounds.size() && roots_agree; ++h)
      if (r.rounds[h].canonical_root != sweep[0].rounds[h].canonical_root)
        roots_agree = false;
  }

  if (smoke) {
    // Engine-section gates only; the committed BENCH_consensus.json keeps
    // its full-run data.
    if (!engines_settled || !vengines_settled) {
      std::printf("FAIL: an engine run did not settle the full chain\n");
      return 1;
    }
    if (!vroots_agree) {
      std::printf("FAIL: validator engines disagree on a canonical root\n");
      return 1;
    }
    if (!adaptive_within) {
      std::printf(
          "FAIL: adaptive settle latency %.2f ms exceeds best fixed engine "
          "%.2f ms by more than 5%%\n",
          engines[2].avg_settle_latency_ms(), best_fixed_settle_ms);
      return 1;
    }
    if (!regime_flip) {
      std::printf(
          "FAIL: regime flip not demonstrated (base occ=%llu stm=%llu, "
          "dex-heavy occ=%llu stm=%llu)\n",
          (unsigned long long)adaptive_base.blocks_occ,
          (unsigned long long)adaptive_base.blocks_stm,
          (unsigned long long)dex.blocks_occ,
          (unsigned long long)dex.blocks_stm);
      return 1;
    }
    std::printf(
        "smoke gates passed: engines settled, validator roots agree, "
        "adaptive within 5%% of best fixed, regime flip demonstrated\n");
    return 0;
  }

  FILE* f = std::fopen("BENCH_consensus.json", "w");
  if (f == nullptr) {
    std::printf("cannot write BENCH_consensus.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"workload\": \"preset_mainnet txs=%llu seed=0x%llX\",\n"
               "  \"rounds\": %llu,\n  \"validators\": %zu,\n",
               (unsigned long long)base.workload.txs_per_block,
               (unsigned long long)base.workload.seed,
               (unsigned long long)base.rounds, base.validator_nodes);
  std::fprintf(f,
               "  \"calibration\": {\"adv_us\": %llu, \"gas_per_height\": "
               "%llu, \"commit_gas_per_us\": %llu, \"commit_cost_us\": "
               "%llu},\n",
               (unsigned long long)adv_us, (unsigned long long)gas_per_height,
               (unsigned long long)cal_gas_per_us,
               (unsigned long long)target_c_us);
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto& r = sweep[i];
    std::fprintf(f,
                 "    {\"depth\": %zu, \"settle_latency_ms\": %.4f, "
                 "\"round_latency_ms\": %.4f, \"makespan_ms\": %.4f, "
                 "\"stall_ms\": %.4f, \"throughput_tx_s\": %.1f, "
                 "\"speculative_votes\": %llu}%s\n",
                 kDepths[i], r.avg_settle_latency_ms(),
                 r.avg_round_latency_ms(), r.makespan_us / 1000.0,
                 r.settle_stall_us / 1000.0, tx_per_s(r),
                 (unsigned long long)r.speculative_votes,
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"engine_compare\": [\n");
  for (std::size_t i = 0; i < engines.size(); ++i) {
    const auto& r = engines[i];
    std::fprintf(f,
                 "    {\"engine\": \"%s\", \"depth\": 2, "
                 "\"settle_latency_ms\": %.4f, \"round_latency_ms\": %.4f, "
                 "\"makespan_ms\": %.4f, \"throughput_tx_s\": %.1f, "
                 "\"settled_height\": %llu, \"blocks_occ\": %llu, "
                 "\"blocks_stm\": %llu}%s\n",
                 kEngineNames[i], r.avg_settle_latency_ms(),
                 r.avg_round_latency_ms(), r.makespan_us / 1000.0,
                 tx_per_s(r), (unsigned long long)r.settled_height,
                 (unsigned long long)r.blocks_occ,
                 (unsigned long long)r.blocks_stm,
                 i + 1 < engines.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"engine_compare_settled\": %s,\n",
               engines_settled ? "true" : "false");
  std::fprintf(f, "  \"validator_engine_compare\": [\n");
  for (std::size_t i = 0; i < vengines.size(); ++i) {
    const auto& r = vengines[i];
    std::fprintf(f,
                 "    {\"engine\": \"%s\", \"depth\": 2, "
                 "\"settle_latency_ms\": %.4f, \"round_latency_ms\": %.4f, "
                 "\"makespan_ms\": %.4f, \"throughput_tx_s\": %.1f, "
                 "\"settled_height\": %llu}%s\n",
                 kValidatorNames[i], r.avg_settle_latency_ms(),
                 r.avg_round_latency_ms(), r.makespan_us / 1000.0,
                 tx_per_s(r), (unsigned long long)r.settled_height,
                 i + 1 < vengines.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"validator_engines_settled\": %s,\n",
               vengines_settled ? "true" : "false");
  std::fprintf(f, "  \"validator_roots_agree\": %s,\n",
               vroots_agree ? "true" : "false");
  std::fprintf(f,
               "  \"adaptive_gate\": {\"adaptive_settle_ms\": %.4f, "
               "\"best_fixed_settle_ms\": %.4f, \"within_5pct\": %s},\n",
               engines[2].avg_settle_latency_ms(), best_fixed_settle_ms,
               adaptive_within ? "true" : "false");
  std::fprintf(f,
               "  \"regime_flip\": {\"base_blocks_occ\": %llu, "
               "\"base_blocks_stm\": %llu, \"dex_blocks_occ\": %llu, "
               "\"dex_blocks_stm\": %llu, \"dex_settle_latency_ms\": %.4f, "
               "\"flipped\": %s},\n",
               (unsigned long long)adaptive_base.blocks_occ,
               (unsigned long long)adaptive_base.blocks_stm,
               (unsigned long long)dex.blocks_occ,
               (unsigned long long)dex.blocks_stm,
               dex.avg_settle_latency_ms(), regime_flip ? "true" : "false");
  std::fprintf(f, "  \"loss_sweep\": [\n");
  for (std::size_t i = 0; i < loss.size(); ++i) {
    const auto& r = loss[i];
    std::fprintf(f,
                 "    {\"drop_per_mille\": %u, \"settle_latency_ms\": %.4f, "
                 "\"round_latency_ms\": %.4f, \"makespan_ms\": %.4f, "
                 "\"vote_timeouts\": %llu, \"vote_retransmits\": %llu, "
                 "\"quorum_reproposals\": %llu, \"messages_dropped\": "
                 "%llu}%s\n",
                 kDropPerMille[i], r.avg_settle_latency_ms(),
                 r.avg_round_latency_ms(), r.makespan_us / 1000.0,
                 (unsigned long long)r.vote_timeouts,
                 (unsigned long long)r.vote_retransmits,
                 (unsigned long long)r.quorum_reproposals,
                 (unsigned long long)r.messages_dropped,
                 i + 1 < loss.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"loss_sweep_liveness_held\": %s,\n",
               loss_liveness ? "true" : "false");
  std::fprintf(f, "  \"roots_agree_across_depths\": %s,\n",
               roots_agree ? "true" : "false");
  std::fprintf(f, "  \"settle_latency_strictly_decreasing\": %s\n",
               strictly_decreasing ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_consensus.json\n");

  if (!roots_agree) {
    std::printf("FAIL: canonical roots diverge across depths\n");
    return 1;
  }
  if (!strictly_decreasing) {
    std::printf("FAIL: settle latency not strictly decreasing with depth\n");
    return 1;
  }
  if (!loss_liveness) {
    std::printf("FAIL: quorum liveness lost within the 20%% loss sweep\n");
    return 1;
  }
  if (!engines_settled || !vengines_settled) {
    std::printf("FAIL: an engine-compare run did not settle the full chain\n");
    return 1;
  }
  if (!vroots_agree) {
    std::printf("FAIL: validator engines disagree on a canonical root\n");
    return 1;
  }
  if (!adaptive_within) {
    std::printf(
        "FAIL: adaptive settle latency %.2f ms exceeds best fixed engine "
        "%.2f ms by more than 5%%\n",
        engines[2].avg_settle_latency_ms(), best_fixed_settle_ms);
    return 1;
  }
  if (!regime_flip) {
    std::printf("FAIL: adaptive regime flip not demonstrated\n");
    return 1;
  }
  std::printf(
      "PASS: settle latency strictly decreasing with depth; quorum "
      "liveness held through %.0f%% loss; validator engines root-identical; "
      "adaptive within 5%% of best fixed engine\n",
      kDropPerMille[std::size(kDropPerMille) - 1] / 10.0);
  return 0;
}

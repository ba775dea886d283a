// Live-ingestion steady state: NodeDriver under the traffic firehose.
//
// Drives the full admission front -> proposer -> commit pipeline loop with
// host-thread workers across the four burst profiles and reports, per
// profile:
//   * steady-state committed throughput (tx/s, wall clock),
//   * pool occupancy over time (block-boundary samples, downsampled),
//   * admission-to-settle latency (p50/p90/p99/max),
//   * admission outcome counters (accepted/replaced/evicted/rejections).
//
// --smoke runs a shortened sweep and exit(1)s if any run violates the
// ingestion invariants: pool conservation, zero duplicate (sender, nonce)
// commits, a non-starved proposer (strictly bounded empty-block fraction),
// and a populated latency distribution.
//
// Emits BENCH_ingest.json (machine-readable) plus a stdout table; --smoke
// does not rewrite it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/node_driver.hpp"

namespace {

using blockpilot::core::NodeDriver;
using blockpilot::core::NodeDriverConfig;
using blockpilot::core::NodeDriverResult;
namespace workload = blockpilot::workload;

std::vector<workload::TrafficProfile> profiles() {
  return {workload::traffic_steady(), workload::traffic_bursty(),
          workload::traffic_nonce_storm(), workload::traffic_fee_frenzy()};
}

// Two regimes per profile.  Uncongested: service capacity (96 tx/block)
// exceeds the arrival rate, so the pool drains every interval and latency
// is pure pipeline depth.  Overload: arrivals outrun a 48-tx block against
// a 512-slot pool, so occupancy pins at the cap and the
// eviction/re-submission machinery carries the steady state — the regime
// the 500-block soak's liveness result is about.
NodeDriverConfig config_for(const workload::TrafficProfile& profile,
                            bool smoke, bool overload) {
  NodeDriverConfig cfg;
  cfg.profile = profile;
  cfg.seed = 0xF12E'0BEEULL;
  cfg.proposer.mode = blockpilot::core::ScheduleMode::kHostThreads;
  cfg.proposer.threads = 4;
  cfg.proposer.max_txs = overload ? 48 : 96;
  cfg.pool.max_txs = overload ? 512 : 2048;
  cfg.pool.max_bytes = cfg.pool.max_txs * 256;
  cfg.pool.enforce_nonce_order = true;
  cfg.pool.replace_bump_percent = profile.replace_bump_percent;
  cfg.blocks = smoke ? 64 : (overload ? 128 : 256);
  cfg.ticks_per_block = 2;
  cfg.speculation_depth = 2;
  return cfg;
}

/// Downsample the per-block occupancy series to at most `points` samples so
/// the JSON stays readable at any block count.
std::vector<std::size_t> downsample(const std::vector<std::size_t>& series,
                                    std::size_t points) {
  if (series.size() <= points) return series;
  std::vector<std::size_t> out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i)
    out.push_back(series[i * (series.size() - 1) / (points - 1)]);
  return out;
}

struct ProfileRow {
  std::string name;
  NodeDriverResult r;
  std::vector<std::size_t> occupancy;
};

bool gates_hold(const ProfileRow& row, std::string& why) {
  const NodeDriverResult& r = row.r;
  if (!r.conserved) {
    why = row.name + ": pool conservation violated";
    return false;
  }
  if (r.duplicate_commits != 0) {
    why = row.name + ": duplicate (sender, nonce) commit";
    return false;
  }
  if (r.txs_committed == 0) {
    why = row.name + ": nothing committed";
    return false;
  }
  // Host-thread scheduling jitters block composition, so the bound is
  // looser than the deterministic soak's; a starved proposer still trips it
  // (the pre-backpressure stranding bug emptied >80% of blocks).
  if (r.empty_blocks * 4 > r.blocks) {
    why = row.name + ": >25% empty blocks (" +
          std::to_string(r.empty_blocks) + "/" + std::to_string(r.blocks) +
          ")";
    return false;
  }
  if (r.admit_to_settle.samples == 0) {
    why = row.name + ": no admission-to-settle samples";
    return false;
  }
  return true;
}

void emit_rows(FILE* f, const char* key, const std::vector<ProfileRow>& sweep,
               bool trailing_comma) {
  std::fprintf(f, "  \"%s\": [\n", key);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const ProfileRow& row = sweep[i];
    const NodeDriverResult& r = row.r;
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"blocks\": %llu, \"txs_committed\": %llu, "
        "\"tx_per_s\": %.1f, \"empty_blocks\": %llu, \"aborts\": %llu, "
        "\"not_ready\": %llu,\n",
        row.name.c_str(), static_cast<unsigned long long>(r.blocks),
        static_cast<unsigned long long>(r.txs_committed), r.tx_per_s,
        static_cast<unsigned long long>(r.empty_blocks),
        static_cast<unsigned long long>(r.aborts),
        static_cast<unsigned long long>(r.not_ready));
    std::fprintf(
        f,
        "     \"admit_to_settle_us\": {\"p50\": %.1f, \"p90\": %.1f, "
        "\"p99\": %.1f, \"max\": %.1f, \"samples\": %zu},\n",
        r.admit_to_settle.p50_us, r.admit_to_settle.p90_us,
        r.admit_to_settle.p99_us, r.admit_to_settle.max_us,
        r.admit_to_settle.samples);
    std::fprintf(
        f,
        "     \"pool\": {\"accepted\": %llu, \"replaced\": %llu, "
        "\"evicted\": %llu, \"stale_dropped\": %llu, \"underpriced\": %llu, "
        "\"pool_full\": %llu, \"nonce_too_low\": %llu, \"duplicate\": "
        "%llu},\n",
        static_cast<unsigned long long>(r.pool_stats.accepted),
        static_cast<unsigned long long>(r.pool_stats.replaced),
        static_cast<unsigned long long>(r.pool_stats.evicted),
        static_cast<unsigned long long>(r.pool_stats.stale_dropped),
        static_cast<unsigned long long>(r.pool_stats.rejected_underpriced),
        static_cast<unsigned long long>(r.pool_stats.rejected_pool_full),
        static_cast<unsigned long long>(r.pool_stats.rejected_nonce_too_low),
        static_cast<unsigned long long>(r.pool_stats.rejected_duplicate));
    std::fprintf(f, "     \"occupancy\": [");
    for (std::size_t j = 0; j < row.occupancy.size(); ++j)
      std::fprintf(f, "%s%zu", j ? ", " : "", row.occupancy[j]);
    std::fprintf(f,
                 "],\n     \"conserved\": %s, \"duplicate_commits\": "
                 "%llu}%s\n",
                 r.conserved ? "true" : "false",
                 static_cast<unsigned long long>(r.duplicate_commits),
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ]%s\n", trailing_comma ? "," : "");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  std::vector<ProfileRow> rows;          // uncongested sweep
  std::vector<ProfileRow> overload_rows;
  std::printf("%-14s %-12s %10s %9s %9s %10s %10s %10s\n", "profile",
              "regime", "tx/s", "blocks", "empty", "p50_us", "p99_us",
              "evicted");
  for (const bool overload : {false, true}) {
    for (const workload::TrafficProfile& p : profiles()) {
      const NodeDriverConfig cfg = config_for(p, smoke, overload);
      ProfileRow row;
      row.name = p.name;
      row.r = NodeDriver(cfg).run();
      row.occupancy = downsample(row.r.occupancy, 32);
      std::printf("%-14s %-12s %10.1f %9llu %9llu %10.1f %10.1f %10llu\n",
                  row.name.c_str(), overload ? "overload" : "uncongested",
                  row.r.tx_per_s,
                  static_cast<unsigned long long>(row.r.blocks),
                  static_cast<unsigned long long>(row.r.empty_blocks),
                  row.r.admit_to_settle.p50_us, row.r.admit_to_settle.p99_us,
                  static_cast<unsigned long long>(row.r.pool_stats.evicted));
      (overload ? overload_rows : rows).push_back(std::move(row));
    }
  }

  if (!smoke) {
    FILE* f = std::fopen("BENCH_ingest.json", "w");
    if (!f) {
      std::printf("cannot write BENCH_ingest.json\n");
      return 1;
    }
    std::fprintf(f, "{\n  \"smoke\": false,\n");
    emit_rows(f, "uncongested", rows, /*trailing_comma=*/true);
    emit_rows(f, "overload", overload_rows, /*trailing_comma=*/false);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_ingest.json\n");
  }

  if (smoke) {
    for (const std::vector<ProfileRow>* sweep : {&rows, &overload_rows}) {
      for (const ProfileRow& row : *sweep) {
        std::string why;
        if (!gates_hold(row, why)) {
          std::printf("SMOKE GATE FAILED: %s\n", why.c_str());
          return 1;
        }
      }
    }
    std::printf("smoke gates passed (%zu runs)\n",
                rows.size() + overload_rows.size());
  }
  return 0;
}

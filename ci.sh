#!/usr/bin/env bash
# CI gate: tier-1 verify (full build + test suite), the commit-labeled
# tests — including the concurrency stress layer — and the ingest-labeled
# admission/soak tests under ThreadSanitizer,
# and the net-labeled consensus-loop tests (event-driven nodes, fork-choice
# fuzz, and the quorum/fault matrix — loss, duplication, partitions,
# Byzantine leaders) under both ThreadSanitizer and AddressSanitizer.
# The fuzz and the fault matrix detect sanitizer builds at compile time
# and trim their scenario sweeps so these gates stay within CI budget.
# The evm-labeled suites (interpreter differential, code-analysis cache)
# run under ThreadSanitizer to catch races on the shared per-code-hash
# analysis cache, and bench_evm --smoke gates fast-vs-reference
# bit-identity plus cache hit-rate floors.
# The stm-labeled suites (Block-STM scheduler, multi-version memory, the
# cross-engine differential, the host-threads hammer, the preemption
# hammer that replays Block-STM and OCC-WSI host-proposed blocks on a
# replica, the OCC-WSI proposer's real-thread lanes, the ThreadPool and its
# fork_join primitive, and the real-lane subgraph-LPT validator) run in
# the default build and again under
# ThreadSanitizer (the tsan-stm preset).
# The db-labeled crash/recovery suites additionally run under
# ThreadSanitizer (the tsan-db preset: the store sweep scans sealed pages
# off the store lock while puts and commits go on) and under combined
# ASan+UBSan (the asan-db preset), and every db gate is followed by a
# tmpdir hygiene check: tests and benches must remove their page files.
# The perf-smoke benches must leave the committed BENCH_*.json files as
# they are (a git diff over them fails the gate).
# The commit-labeled suites (incremental roots, forked copies sharing
# copy-on-write storage shards, the commit stress layer) run under the same
# ASan+UBSan build (the asan-commit preset): shard sharing is lifetime code.
# The codec-labeled suites (the RLP reader and its malformed-input table, the
# block/profile/announcement codec, Merkle proofs, the block archive) run
# there too (the asan-codec preset): the reader does span arithmetic over
# bytes from peers and disk.
#
#   ./ci.sh            # tier-1 + perf-smoke + tsan commit/stress/db + tsan/asan net + asan-db + asan-commit + asan-codec
#   ./ci.sh --tier1    # tier-1 only (fast path)
#   JOBS=8 ./ci.sh     # override parallelism
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"

# Page-store tests and benches create /tmp/bpdb_* scratch dirs and must
# remove them (crash-simulation paths included).  A leak here means a
# teardown bug, so fail the gate rather than fill the CI disk.
hygiene_check() {
  local leaked
  leaked="$(find /tmp -maxdepth 1 -name 'bpdb_*' -print 2>/dev/null || true)"
  if [[ -n "${leaked}" ]]; then
    echo "==> hygiene: leaked page-store scratch dirs after $1:" >&2
    echo "${leaked}" >&2
    exit 1
  fi
}

echo "==> tier-1: configure + build (RelWithDebInfo)"
cmake --preset default >/dev/null
cmake --build --preset default -j "${JOBS}"

echo "==> tier-1: full test suite"
ctest --preset default -j "${JOBS}"

if [[ "${1:-}" == "--tier1" ]]; then
  echo "==> tier-1 only: done"
  exit 0
fi

echo "==> perf-smoke: bench_versioned_state --smoke (multi-version memory + engine gates)"
# Fails on crash, on the regression sentinel (MvMemory slower than the
# embedded single-lock baseline at 8 threads), on a differential mismatch (proposed
# blocks not bit-identical to the pre-change capture), or on the regime-map
# gate (fewer than 4 largest-subgraph-ratio points, an OCC block that does
# not replay serially to its own root, a Block-STM block not bit-identical
# to its serial pop-order oracle, or a zero cross-engine speedup).
# Time-capped so a livelocked store cannot hang CI.
timeout 120 ./build/bench/bench_versioned_state --smoke

echo "==> perf-smoke: bench_correctness (engine state-root agreement)"
# The §5.2 replay: at every one of 30 heights the serial oracle, the
# subgraph-LPT validator, the two-phase OCC baseline and the pipeline must
# reproduce the proposer's state root bit-for-bit.  Exits 1 on the first
# divergence.  ~3 s; the best end-to-end gate for commitment changes.
timeout 120 ./build/bench/bench_correctness

echo "==> perf-smoke: bench_db --smoke (paged-store gates)"
# Fails on crash or on any db gate: warm-cache replay not faster than the
# cold run, cache hit rate not strictly inside (0, 100)% with the cache
# capped below the working set, compaction losing the durable root, or a
# recovery mismatch.  Also exercises the bench's own scratch-dir cleanup.
timeout 180 ./build/bench/bench_db --smoke
hygiene_check "bench_db"

echo "==> perf-smoke: bench_ingest --smoke (live-ingestion gates)"
# Drives the NodeDriver firehose across all four traffic profiles with
# host-thread workers.  Fails on crash or on any ingestion gate: pool
# conservation violated, a (sender, nonce) slot committed twice, a starved
# proposer (>25% empty blocks — the stranded-ladder failure mode), or an
# empty admission-to-settle latency distribution.
timeout 300 ./build/bench/bench_ingest --smoke

echo "==> perf-smoke: bench_consensus --smoke (engine matrix + adaptive gates)"
# Engine section only: every proposer engine (OCC-WSI, Block-STM, adaptive)
# and every validator engine (subgraph-LPT, Block-STM, adaptive) must settle
# the full chain, the validator engines must agree on every canonical root,
# the adaptive proposer must land within 5% of the best fixed engine's
# settle latency, and the dex-heavy regime flip must actually flip the
# per-block pick.  Does not rewrite the committed BENCH_consensus.json.
timeout 120 ./build/bench/bench_consensus --smoke

echo "==> perf-smoke: bench_evm --smoke (interpreter + analysis-cache gates)"
# Fails on crash or on any evm gate: fast and reference interpreters not
# bit-identical on the compute contract, the analysis-backed dispatch not at
# least as fast as the reference switch, steady-state analysis-cache hit rate
# below 99% under the mainnet profile, or a per-profile state-root mismatch
# between the two interpreters.
timeout 180 ./build/bench/bench_evm --smoke

echo "==> perf-smoke: committed BENCH_*.json untouched"
# Smoke runs gate and print, but never rewrite the committed full-mode
# BENCH files in the cwd; a diff here means one wrote smoke numbers over
# them.  (Run full-mode benches to regenerate those files on purpose.)
if git rev-parse --git-dir >/dev/null 2>&1; then
  git diff --exit-code -- 'BENCH_*.json'
fi

echo "==> tsan: configure + build (BLOCKPILOT_SANITIZE=thread)"
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "${JOBS}"

echo "==> tsan: commit-labeled tests (includes the stress label)"
ctest --preset tsan-commit

echo "==> tsan: ingest-labeled tests (admission front, concurrent submit-vs-pop soak)"
ctest --preset tsan-ingest

echo "==> tsan: net-labeled tests (consensus loop, fork-choice fuzz, fault matrix)"
ctest --preset tsan-net

echo "==> tsan: evm-labeled tests (interpreter differential, shared analysis cache)"
ctest --preset tsan-evm

echo "==> tsan: stm-labeled tests (Block-STM, OCC-WSI proposer lanes, thread pool fork-join, validator lanes under real threads)"
ctest --preset tsan-stm

echo "==> tsan: engine-differential matrix (proposer x validator engines, adaptive selection)"
ctest --preset tsan-engine-matrix

echo "==> tsan: db-labeled tests (the sweep reads sealed pages off the store lock)"
ctest --preset tsan-db
hygiene_check "tsan-db tests"

echo "==> asan: configure + build (BLOCKPILOT_SANITIZE=address)"
cmake --preset asan >/dev/null
cmake --build --preset asan -j "${JOBS}"

echo "==> asan: net-labeled tests (consensus loop, fork-choice fuzz, fault matrix)"
ctest --preset asan-net

echo "==> asan-db: configure + build (BLOCKPILOT_SANITIZE=address,undefined)"
cmake --preset asan-db >/dev/null
cmake --build --preset asan-db -j "${JOBS}"

echo "==> asan-db: db-labeled tests (page codecs, torn-write recovery, differential fuzz)"
ctest --preset asan-db
hygiene_check "asan-db tests"

echo "==> asan-db: commit-labeled tests (forked copies sharing storage shards, commit stress)"
ctest --preset asan-commit

echo "==> asan-db: codec-labeled tests (RLP reader over malformed bytes, wire codec, proofs, archive)"
ctest --preset asan-codec

echo "==> ci: all gates passed"

// Micro-benchmarks of the substrate layers (google-benchmark).
//
// Not a paper figure — these quantify the building blocks so regressions
// in the substrate (hashing, trie, EVM dispatch) are visible independently
// of the concurrency-control results.
#include <benchmark/benchmark.h>

#include "chain/codec.hpp"
#include "core/blockpilot.hpp"
#include "evm/assembler.hpp"
#include "workload/contracts.hpp"

namespace blockpilot {
namespace {

void BM_Keccak32(benchmark::State& state) {
  std::vector<std::uint8_t> data(32, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::keccak256(std::span(data)));
  }
}
BENCHMARK(BM_Keccak32);

void BM_Keccak1K(benchmark::State& state) {
  std::vector<std::uint8_t> data(1024, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::keccak256(std::span(data)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Keccak1K);

void BM_U256Mul(benchmark::State& state) {
  U256 a = U256::from_hex("0x123456789abcdef0fedcba987654321011223344556677");
  const U256 b = U256::from_hex("0xdeadbeefcafebabe0123456789abcdef");
  for (auto _ : state) {
    a *= b;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_U256Mul);

void BM_U256Div(benchmark::State& state) {
  const U256 a = ~U256{};
  const U256 b = U256::from_hex("0x123456789abcdef0fedcba9876543210aabbccdd");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a / b);
  }
}
BENCHMARK(BM_U256Div);

void BM_RlpEncodeTx(benchmark::State& state) {
  chain::Transaction tx;
  tx.from = Address::from_id(1);
  tx.to = Address::from_id(2);
  tx.nonce = 42;
  tx.gas_price = U256{100};
  tx.gas_limit = 21000;
  tx.value = U256{123456789};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tx.rlp_encode());
  }
}
BENCHMARK(BM_RlpEncodeTx);

void BM_TrieInsertAndRoot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    trie::MerklePatriciaTrie t;
    for (std::size_t i = 0; i < n; ++i) {
      const U256 key{i * 2654435761u};
      const auto kb = key.to_be_bytes();
      t.put(std::span(kb), std::span(kb).subspan(0, 8));
    }
    benchmark::DoNotOptimize(t.root_hash());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TrieInsertAndRoot)->Arg(16)->Arg(128)->Arg(1024);

void BM_EvmNativeTransfer(benchmark::State& state) {
  state::WorldState ws;
  const Address alice = Address::from_id(1), bob = Address::from_id(2);
  ws.set(state::StateKey::balance(alice), U256{1} .shl(96));
  evm::BlockContext block;
  block.coinbase = Address::from_id(0xFEE);
  chain::Transaction tx;
  tx.from = alice;
  tx.to = bob;
  tx.value = U256{1};
  tx.gas_limit = 25'000;
  tx.gas_price = U256{1};
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    tx.nonce = nonce++;
    const state::WorldStateView view(ws);
    state::ExecBuffer buffer(view);
    const auto r = evm::execute_transaction(buffer, block, tx);
    benchmark::DoNotOptimize(r);
    for (const auto& [key, value] : buffer.write_set()) ws.set(key, value);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EvmNativeTransfer);

void BM_EvmTokenTransfer(benchmark::State& state) {
  state::WorldState ws;
  const Address alice = Address::from_id(1), bob = Address::from_id(2);
  const Address token = Address::from_id(0x70);
  ws.set(state::StateKey::balance(alice), U256{1}.shl(96));
  ws.set_code(token, workload::token_contract());
  ws.set(state::StateKey::storage(token, alice.to_u256()), U256{1}.shl(96));
  evm::BlockContext block;
  block.coinbase = Address::from_id(0xFEE);
  chain::Transaction tx;
  tx.from = alice;
  tx.to = token;
  tx.data = workload::token_transfer_calldata(bob, U256{1});
  tx.gas_limit = 120'000;
  tx.gas_price = U256{1};
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    tx.nonce = nonce++;
    const state::WorldStateView view(ws);
    state::ExecBuffer buffer(view);
    const auto r = evm::execute_transaction(buffer, block, tx);
    benchmark::DoNotOptimize(r);
    for (const auto& [key, value] : buffer.write_set()) ws.set(key, value);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EvmTokenTransfer);

void BM_DependencyGraphBuild(benchmark::State& state) {
  workload::WorkloadConfig wc = workload::preset_mainnet();
  workload::WorkloadGenerator gen(wc);
  const state::WorldState genesis = gen.genesis();
  evm::BlockContext ctx;
  ctx.coinbase = Address::from_id(0xFEE);
  const auto txs = gen.next_batch(132);
  const auto serial = core::execute_serial(genesis, ctx, std::span(txs));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::build_dependency_graph(
        serial.exec.profile, sched::Granularity::kAccount));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 132);
}
BENCHMARK(BM_DependencyGraphBuild);

// What a proposer broadcasts for one 128-tx preset_mainnet block: the sealed
// block plus its read/write-set profile (the perfbench `codec.*` spans).
const chain::BlockAnnouncement& mainnet_announcement() {
  static const chain::BlockAnnouncement ann = [] {
    workload::WorkloadGenerator gen(workload::preset_mainnet());
    const state::WorldState genesis = gen.genesis();
    evm::BlockContext ctx;
    ctx.number = 1;
    ctx.coinbase = Address::from_id(0xFEE);
    const auto txs = gen.next_batch(128);
    const auto serial = core::execute_serial(genesis, ctx, std::span(txs));
    chain::BlockAnnouncement a;
    a.block = core::seal_block(ctx, serial.exec, serial.included);
    a.profile = serial.exec.profile;
    return a;
  }();
  return ann;
}

void BM_CodecEncodeAnnouncement(benchmark::State& state) {
  const chain::BlockAnnouncement& ann = mainnet_announcement();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const chain::Bytes wire = chain::encode_announcement(ann);
    bytes = wire.size();
    benchmark::DoNotOptimize(wire.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CodecEncodeAnnouncement);

void BM_CodecDecodeAnnouncement(benchmark::State& state) {
  const chain::Bytes wire = chain::encode_announcement(mainnet_announcement());
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain::decode_announcement(std::span(wire)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_CodecDecodeAnnouncement);

}  // namespace
}  // namespace blockpilot

BENCHMARK_MAIN();

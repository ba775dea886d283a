// bpctl: command-line driver for BlockPilot experiments.
//
//   bpctl chain  [--heights N] [--threads T] [--preset NAME] [--txs N]
//       run a propose -> validate -> commit chain, print per-height stats
//   bpctl sweep  [--blocks N] [--preset NAME]
//       thread-count sweep for proposer and validator on one workload
//   bpctl export --out FILE [--heights N] [--preset NAME]
//       build a chain and archive it to FILE
//   bpctl import --in FILE [--preset NAME]
//       replay an archive into a fresh node and verify every block
//
// Presets: mainnet (default), low, high, nft.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "chain/archive.hpp"
#include "core/blockpilot.hpp"

using namespace blockpilot;

namespace {

struct Options {
  std::string command;
  std::uint64_t heights = 5;
  std::size_t threads = 8;
  std::size_t txs = 0;  // 0 = preset default
  int blocks = 10;
  std::string preset = "mainnet";
  std::string file;
};

workload::WorkloadConfig preset_by_name(const std::string& name) {
  if (name == "low") return workload::preset_low_conflict();
  if (name == "high") return workload::preset_high_conflict();
  if (name == "nft") return workload::preset_nft_drop();
  return workload::preset_mainnet();
}

evm::BlockContext ctx_for(std::uint64_t height) {
  evm::BlockContext ctx;
  ctx.number = height;
  ctx.timestamp = 1'700'000'000 + height * 12;
  ctx.coinbase = Address::from_id(0xC0FFEE);
  return ctx;
}

bool parse(int argc, char** argv, Options& opt) {
  if (argc < 2) return false;
  opt.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--heights") {
      opt.heights = std::stoull(value);
    } else if (flag == "--threads") {
      opt.threads = std::stoul(value);
    } else if (flag == "--txs") {
      opt.txs = std::stoul(value);
    } else if (flag == "--blocks") {
      opt.blocks = std::stoi(value);
    } else if (flag == "--preset") {
      opt.preset = value;
    } else if (flag == "--out" || flag == "--in") {
      opt.file = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

workload::WorkloadGenerator make_generator(const Options& opt) {
  workload::WorkloadConfig wc = preset_by_name(opt.preset);
  if (opt.txs != 0) wc.txs_per_block = opt.txs;
  return workload::WorkloadGenerator(wc);
}

int cmd_chain(const Options& opt) {
  auto gen = make_generator(opt);
  chain::Blockchain chain(gen.genesis());
  ThreadPool workers(4);
  core::ProposerConfig pc;
  pc.threads = opt.threads;
  core::BlockProposer proposer(pc);
  core::ValidatorConfig vc;
  vc.threads = opt.threads;
  core::BlockValidator validator(vc);

  std::printf("%7s %5s %9s %8s %10s %10s  %s\n", "height", "txs", "gas(M)",
              "aborts", "prop-spdp", "val-spdp", "state root");
  for (std::uint64_t h = 1; h <= opt.heights; ++h) {
    txpool::TxPool pool;
    pool.add_all(gen.next_block());
    core::ProposedBlock blk =
        proposer.propose(*chain.head_state(), ctx_for(h), pool, workers);
    blk.block.header.parent_hash = chain.head().header.hash();

    const auto outcome = validator.validate(*chain.head_state(), blk.block,
                                            blk.profile, workers);
    if (!outcome.valid) {
      std::printf("height %llu REJECTED: %s\n",
                  static_cast<unsigned long long>(h),
                  outcome.reject_reason.c_str());
      return 1;
    }
    chain.commit_block(blk.block, outcome.exec.post_state,
                       outcome.exec.receipts);
    std::printf("%7llu %5zu %9.2f %8llu %9.2fx %9.2fx  %.18s...\n",
                static_cast<unsigned long long>(h),
                blk.block.transactions.size(),
                static_cast<double>(blk.block.header.gas_used) / 1e6,
                static_cast<unsigned long long>(blk.stats.aborts),
                blk.stats.virtual_speedup(),
                outcome.stats.virtual_speedup(),
                blk.block.header.state_root.to_hex().c_str());
  }
  std::printf("done: height %llu, %zu blocks stored\n",
              static_cast<unsigned long long>(chain.height()),
              chain.block_count());
  return 0;
}

int cmd_sweep(const Options& opt) {
  auto gen = make_generator(opt);
  const state::WorldState genesis = gen.genesis();
  ThreadPool workers(1);

  // Pre-build honest blocks for validator runs.
  std::vector<core::BlockBundle> bundles;
  std::vector<std::vector<chain::Transaction>> batches;
  for (int b = 0; b < opt.blocks; ++b) {
    const auto txs = gen.next_block();
    const auto serial = core::execute_serial(genesis, ctx_for(1), std::span(txs));
    core::BlockBundle bundle;
    bundle.block = core::seal_block(ctx_for(1), serial.exec, serial.included);
    bundle.profile = serial.exec.profile;
    bundles.push_back(std::move(bundle));
    batches.push_back(txs);
  }

  std::printf("preset=%s blocks=%d\n", opt.preset.c_str(), opt.blocks);
  std::printf("%8s %14s %14s\n", "threads", "proposer", "validator");
  for (const std::size_t threads : {1u, 2u, 4u, 8u, 16u}) {
    double prop = 0, val = 0;
    for (int b = 0; b < opt.blocks; ++b) {
      txpool::TxPool pool;
      pool.add_all(batches[static_cast<std::size_t>(b)]);
      core::ProposerConfig pc;
      pc.threads = threads;
      const auto blk = core::BlockProposer(pc).propose(genesis, ctx_for(1),
                                                       pool, workers);
      prop += blk.stats.virtual_speedup();

      core::ValidatorConfig vc;
      vc.threads = threads;
      const auto& bundle = bundles[static_cast<std::size_t>(b)];
      const auto outcome = core::BlockValidator(vc).validate(
          genesis, bundle.block, bundle.profile, workers);
      if (!outcome.valid) {
        std::printf("validation failed: %s\n", outcome.reject_reason.c_str());
        return 1;
      }
      val += outcome.stats.virtual_speedup();
    }
    std::printf("%8zu %13.2fx %13.2fx\n", threads, prop / opt.blocks,
                val / opt.blocks);
  }
  return 0;
}

int cmd_export(const Options& opt) {
  if (opt.file.empty()) {
    std::fprintf(stderr, "export needs --out FILE\n");
    return 2;
  }
  std::ofstream out(opt.file, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", opt.file.c_str());
    return 2;
  }
  auto gen = make_generator(opt);
  chain::Blockchain chain(gen.genesis());
  ThreadPool workers(4);
  core::ProposerConfig pc;
  pc.threads = opt.threads;
  core::BlockProposer proposer(pc);
  chain::BlockArchiveWriter writer(out);

  for (std::uint64_t h = 1; h <= opt.heights; ++h) {
    txpool::TxPool pool;
    pool.add_all(gen.next_block());
    core::ProposedBlock blk =
        proposer.propose(*chain.head_state(), ctx_for(h), pool, workers);
    blk.block.header.parent_hash = chain.head().header.hash();
    writer.append({blk.block, blk.profile});
    chain.commit_block(blk.block, blk.post_state, blk.receipts);
  }
  std::printf("exported %zu blocks to %s (head root %s)\n", writer.entries(),
              opt.file.c_str(),
              chain.head().header.state_root.to_hex().c_str());
  return 0;
}

int cmd_import(const Options& opt) {
  if (opt.file.empty()) {
    std::fprintf(stderr, "import needs --in FILE\n");
    return 2;
  }
  std::ifstream in(opt.file, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", opt.file.c_str());
    return 2;
  }
  auto gen = make_generator(opt);
  chain::Blockchain chain(gen.genesis());
  ThreadPool workers(4);
  core::ValidatorConfig vc;
  vc.threads = opt.threads;
  core::BlockValidator validator(vc);

  chain::BlockArchiveReader reader(in);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s is not a BlockPilot archive\n",
                 opt.file.c_str());
    return 2;
  }
  std::size_t imported = 0;
  while (auto ann = reader.next()) {
    const auto outcome = validator.validate(*chain.head_state(), ann->block,
                                            ann->profile, workers);
    if (!outcome.valid) {
      std::printf("block %zu INVALID: %s\n", imported,
                  outcome.reject_reason.c_str());
      return 1;
    }
    chain.commit_block(ann->block, outcome.exec.post_state,
                       outcome.exec.receipts);
    ++imported;
  }
  if (!reader.ok()) {
    std::fprintf(stderr, "archive corrupted after %zu blocks\n", imported);
    return 1;
  }
  std::printf("imported and validated %zu blocks; head root %s\n", imported,
              chain.head().header.state_root.to_hex().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: bpctl chain|sweep|export|import [flags]\n"
                 "  --heights N --threads T --txs N --blocks N\n"
                 "  --preset mainnet|low|high|nft --out FILE --in FILE\n");
    return 2;
  }
  if (opt.command == "chain") return cmd_chain(opt);
  if (opt.command == "sweep") return cmd_sweep(opt);
  if (opt.command == "export") return cmd_export(opt);
  if (opt.command == "import") return cmd_import(opt);
  std::fprintf(stderr, "unknown command: %s\n", opt.command.c_str());
  return 2;
}

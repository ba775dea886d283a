#include "chain/archive.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/blockpilot.hpp"

namespace blockpilot::chain {
namespace {

evm::BlockContext ctx_for(std::uint64_t height) {
  evm::BlockContext ctx;
  ctx.number = height;
  ctx.timestamp = 1'700'000'000 + height * 12;
  ctx.coinbase = Address::from_id(0xC0FFEE);
  return ctx;
}

TEST(Archive, EmptyArchiveRoundTrip) {
  std::stringstream stream;
  BlockArchiveWriter writer(stream);
  EXPECT_EQ(writer.entries(), 0u);
  BlockArchiveReader reader(stream);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.next(), std::nullopt);
}

TEST(Archive, BadMagicRejected) {
  std::stringstream stream;
  stream << "NOTANARCHIVE";
  BlockArchiveReader reader(stream);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.next(), std::nullopt);
}

TEST(Archive, TruncatedEntryFlagsError) {
  std::stringstream stream;
  {
    BlockArchiveWriter writer(stream);
    BlockAnnouncement ann;
    ann.block.header.number = 1;
    writer.append(ann);
  }
  std::string data = stream.str();
  data.resize(data.size() - 3);  // cut into the payload
  std::stringstream truncated(data);
  BlockArchiveReader reader(truncated);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.next(), std::nullopt);
  EXPECT_FALSE(reader.ok());
}

TEST(Archive, MalformedEntryPayloadFlagsError) {
  // A well-framed entry whose payload is not an announcement: the first
  // entry's outer list prefix is turned into the string prefix of the same
  // length.  The reader must report it, not abort the process.
  std::stringstream stream;
  {
    BlockArchiveWriter writer(stream);
    BlockAnnouncement ann;
    ann.block.header.number = 1;
    writer.append(ann);
  }
  std::string data = stream.str();
  constexpr std::size_t kPayload = 8 + 4;  // magic + length prefix
  ASSERT_GE(static_cast<std::uint8_t>(data[kPayload]), 0xc0);
  data[kPayload] = static_cast<char>(data[kPayload] - 0x40);
  std::stringstream corrupted(data);
  BlockArchiveReader reader(corrupted);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.next(), std::nullopt);
  EXPECT_FALSE(reader.ok());
}

TEST(Archive, ExportReplayIntoFreshNode) {
  // A proposing node builds a chain and archives every announcement; a
  // fresh validating node replays the archive from genesis and must arrive
  // at the identical head — the export/import sync story.
  workload::WorkloadConfig wc = workload::preset_mainnet();
  wc.seed = 0xA7C;
  wc.txs_per_block = 40;
  workload::WorkloadGenerator gen(wc);

  std::stringstream archive_stream;
  Hash256 producer_head_root;
  {
    BlockArchiveWriter writer(archive_stream);
    chain::Blockchain chain(gen.genesis());
    ThreadPool workers(4);
    core::ProposerConfig pc;
    pc.threads = 4;
    core::BlockProposer proposer(pc);

    for (std::uint64_t height = 1; height <= 6; ++height) {
      txpool::TxPool pool;
      pool.add_all(gen.next_block());
      core::ProposedBlock blk =
          proposer.propose(*chain.head_state(), ctx_for(height), pool, workers);
      blk.block.header.parent_hash = chain.head().header.hash();
      writer.append({blk.block, blk.profile});
      chain.commit_block(blk.block, blk.post_state, blk.receipts);
    }
    producer_head_root = chain.head().header.state_root;
    EXPECT_EQ(writer.entries(), 6u);
  }

  // Fresh node: same genesis, no prior knowledge of the blocks.
  workload::WorkloadGenerator gen2(wc);  // independent instance
  chain::Blockchain replica(gen2.genesis());
  ThreadPool workers(4);
  core::ValidatorConfig vc;
  vc.threads = 4;
  core::BlockValidator validator(vc);

  BlockArchiveReader reader(archive_stream);
  ASSERT_TRUE(reader.ok());
  std::size_t replayed = 0;
  while (auto ann = reader.next()) {
    const auto outcome = validator.validate(*replica.head_state(), ann->block,
                                            ann->profile, workers);
    ASSERT_TRUE(outcome.valid)
        << "replay failed at entry " << replayed << ": "
        << outcome.reject_reason;
    replica.commit_block(ann->block, outcome.exec.post_state,
                         outcome.exec.receipts);
    ++replayed;
  }
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(replayed, 6u);
  EXPECT_EQ(replica.height(), 6u);
  EXPECT_EQ(replica.head().header.state_root, producer_head_root);
}

}  // namespace
}  // namespace blockpilot::chain

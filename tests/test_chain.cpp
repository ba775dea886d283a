#include <gtest/gtest.h>

#include <algorithm>

#include "chain/block.hpp"
#include "chain/blockchain.hpp"
#include "chain/codec.hpp"
#include "core/serial_executor.hpp"
#include "workload/generator.hpp"

namespace blockpilot::chain {
namespace {

Transaction sample_tx(std::uint64_t nonce) {
  Transaction tx;
  tx.nonce = nonce;
  tx.gas_price = U256{100 + nonce};
  tx.gas_limit = 21000;
  tx.from = Address::from_id(1);
  tx.to = Address::from_id(2);
  tx.value = U256{12345};
  tx.data = {0xde, 0xad, 0x00, 0xbe, 0xef};
  return tx;
}

TEST(Transaction, HashIsStableAndSensitive) {
  const Transaction a = sample_tx(0);
  Transaction b = sample_tx(0);
  EXPECT_EQ(a.hash(), b.hash());
  b.value += U256{1};
  EXPECT_NE(a.hash(), b.hash());
  Transaction c = sample_tx(1);
  EXPECT_NE(a.hash(), c.hash());
}

TEST(BlockHeader, HashCoversAllFields) {
  BlockHeader h;
  h.number = 5;
  const Hash256 base = h.hash();
  BlockHeader h2 = h;
  h2.gas_used = 1;
  EXPECT_NE(base, h2.hash());
  BlockHeader h3 = h;
  h3.state_root.bytes[31] = 1;
  EXPECT_NE(base, h3.hash());
  BlockHeader h4 = h;
  h4.parent_hash.bytes[0] = 1;
  EXPECT_NE(base, h4.hash());
}

TEST(TransactionsRoot, EmptyAndOrderSensitivity) {
  EXPECT_EQ(transactions_root({}).to_hex(),
            "0x56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421");
  const std::vector<Transaction> ab = {sample_tx(0), sample_tx(1)};
  const std::vector<Transaction> ba = {sample_tx(1), sample_tx(0)};
  EXPECT_NE(transactions_root(ab), transactions_root(ba));
  EXPECT_EQ(transactions_root(ab), transactions_root(ab));
}

TEST(Blockchain, GenesisAndCommit) {
  state::WorldState genesis_state;
  genesis_state.set(state::StateKey::balance(Address::from_id(7)), U256{9});
  Blockchain chain(genesis_state);
  EXPECT_EQ(chain.height(), 0u);
  EXPECT_EQ(chain.genesis().header.state_root, genesis_state.state_root());

  Block b1;
  b1.header.number = 1;
  b1.header.parent_hash = chain.genesis_hash();
  auto post = std::make_shared<state::WorldState>(genesis_state);
  post->set(state::StateKey::balance(Address::from_id(8)), U256{1});
  b1.header.state_root = post->state_root();
  const Hash256 b1_hash = b1.header.hash();
  chain.commit_block(b1, post);

  EXPECT_EQ(chain.height(), 1u);
  EXPECT_EQ(chain.head().header.hash(), b1_hash);
  EXPECT_NE(chain.block_by_hash(b1_hash), nullptr);
  EXPECT_EQ(chain.block_by_hash(Hash256{}), nullptr);
  EXPECT_EQ(chain.state_of(b1_hash)->state_root(), b1.header.state_root);
}

TEST(Blockchain, CanonicalBlockWalk) {
  Blockchain chain(state::WorldState{});
  auto state = std::make_shared<state::WorldState>();
  Hash256 parent = chain.genesis_hash();
  std::vector<Hash256> hashes = {parent};
  for (std::uint64_t h = 1; h <= 4; ++h) {
    Block b;
    b.header.number = h;
    b.header.timestamp = h;
    b.header.parent_hash = parent;
    parent = b.header.hash();
    hashes.push_back(parent);
    chain.commit_block(std::move(b), state);
  }
  for (std::uint64_t h = 0; h <= 4; ++h) {
    const Block* blk = chain.canonical_block_at(h);
    ASSERT_NE(blk, nullptr) << h;
    EXPECT_EQ(blk->header.number, h);
    EXPECT_EQ(blk->header.hash(), hashes[h]);
  }
  EXPECT_EQ(chain.canonical_block_at(5), nullptr);
}

TEST(Blockchain, ReceiptsStoredAndRetrievable) {
  Blockchain chain(state::WorldState{});
  Block b;
  b.header.number = 1;
  b.header.parent_hash = chain.genesis_hash();
  const Hash256 h = b.header.hash();
  std::vector<Receipt> receipts(3);
  receipts[1].gas_used = 777;
  chain.commit_block(std::move(b), std::make_shared<state::WorldState>(),
                     receipts);
  const auto* stored = chain.receipts_of(h);
  ASSERT_NE(stored, nullptr);
  ASSERT_EQ(stored->size(), 3u);
  EXPECT_EQ((*stored)[1].gas_used, 777u);
  EXPECT_EQ(chain.receipts_of(chain.genesis_hash()), nullptr);
}

TEST(Blockchain, SiblingForksKeepHeadStable) {
  Blockchain chain(state::WorldState{});
  auto state = std::make_shared<state::WorldState>();

  Block a, b;
  a.header.number = 1;
  a.header.timestamp = 1;
  a.header.parent_hash = chain.genesis_hash();
  b.header.number = 1;
  b.header.timestamp = 2;  // distinct hash
  b.header.parent_hash = chain.genesis_hash();

  chain.commit_block(a, state);
  const Hash256 head_after_a = chain.head().header.hash();
  chain.commit_block(b, state);
  // Same height: head does not reorg to the sibling.
  EXPECT_EQ(chain.head().header.hash(), head_after_a);
  EXPECT_EQ(chain.block_count(), 3u);
}

// ---- receipts, blooms ----

evm::LogRecord sample_log(std::uint64_t addr_id, std::uint64_t topic) {
  evm::LogRecord log;
  log.address = Address::from_id(addr_id);
  log.topics.push_back(U256{topic});
  log.data = {1, 2, 3};
  return log;
}

TEST(Bloom, AddedItemsMayBeContained) {
  Bloom b;
  const Address addr = Address::from_id(77);
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.may_contain(std::span(addr.bytes)));
  b.add(std::span(addr.bytes));
  EXPECT_TRUE(b.may_contain(std::span(addr.bytes)));
  EXPECT_FALSE(b.empty());
}

TEST(Bloom, AbsentItemsUsuallyRejected) {
  Bloom b;
  const Address present = Address::from_id(1);
  b.add(std::span(present.bytes));
  int false_positives = 0;
  for (std::uint64_t i = 100; i < 400; ++i) {
    const Address absent = Address::from_id(i);
    if (b.may_contain(std::span(absent.bytes))) ++false_positives;
  }
  // 3 bits of 2048 set: false-positive rate must be tiny.
  EXPECT_LT(false_positives, 3);
}

TEST(Bloom, MergeIsUnion) {
  Bloom a, b;
  const Address x = Address::from_id(1), y = Address::from_id(2);
  a.add(std::span(x.bytes));
  b.add(std::span(y.bytes));
  a.merge(b);
  EXPECT_TRUE(a.may_contain(std::span(x.bytes)));
  EXPECT_TRUE(a.may_contain(std::span(y.bytes)));
}

TEST(Bloom, FromBytesRoundTrip) {
  Bloom b;
  const Address x = Address::from_id(42);
  b.add(std::span(x.bytes));
  const Bloom back = Bloom::from_bytes(std::span(b.bytes()));
  EXPECT_EQ(b, back);
}

TEST(Receipt, BloomCoversLogAddressAndTopics) {
  Receipt r;
  r.logs.push_back(sample_log(9, 0xbeef));
  const Bloom b = r.bloom();
  const Address logger = Address::from_id(9);
  EXPECT_TRUE(b.may_contain(std::span(logger.bytes)));
  const auto topic = U256{0xbeef}.to_be_bytes();
  EXPECT_TRUE(b.may_contain(std::span(topic)));
}

TEST(Receipt, RootSensitiveToContent) {
  Receipt a;
  a.success = true;
  a.gas_used = 21000;
  a.cumulative_gas = 21000;
  Receipt b = a;
  EXPECT_EQ(receipts_root({a}), receipts_root({b}));
  b.success = false;
  EXPECT_NE(receipts_root({a}), receipts_root({b}));
  Receipt c = a;
  c.logs.push_back(sample_log(1, 2));
  EXPECT_NE(receipts_root({a}), receipts_root({c}));
  EXPECT_EQ(receipts_root({}).to_hex(),
            "0x56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421");
}

TEST(Receipt, BlockBloomIsUnionOfReceipts) {
  Receipt a, b;
  a.logs.push_back(sample_log(1, 10));
  b.logs.push_back(sample_log(2, 20));
  const Bloom combined = block_bloom({a, b});
  const Address one = Address::from_id(1), two = Address::from_id(2);
  EXPECT_TRUE(combined.may_contain(std::span(one.bytes)));
  EXPECT_TRUE(combined.may_contain(std::span(two.bytes)));
}

// ---- log filtering over the chain ----

TEST(FilterLogs, FindsTokenTransfersByAddressAndTopic) {
  // Build a two-block chain whose token transfers emit LOG2 events, then
  // query them back through the bloom-accelerated filter.
  workload::WorkloadConfig wc = workload::preset_mainnet();
  wc.seed = 808;
  wc.dex_fraction = 0.0;  // token transfers only emit logs
  wc.token_fraction = 0.8;
  workload::WorkloadGenerator gen(wc);
  Blockchain chain(gen.genesis());

  evm::BlockContext ctx;
  ctx.coinbase = Address::from_id(0xFEE);
  std::size_t expected_logs = 0;
  auto parent_state = chain.head_state();
  for (std::uint64_t h = 1; h <= 2; ++h) {
    ctx.number = h;
    const auto txs = gen.next_batch(40);
    const auto r = core::execute_serial(*parent_state, ctx, std::span(txs));
    Block block = core::seal_block(ctx, r.exec, r.included);
    block.header.parent_hash = chain.head().header.hash();
    for (const auto& receipt : r.exec.receipts)
      expected_logs += receipt.logs.size();
    chain.commit_block(std::move(block), r.exec.post_state, r.exec.receipts);
    parent_state = chain.head_state();
  }
  ASSERT_GT(expected_logs, 0u);

  // All logs from the hottest token contract.
  LogQuery by_address;
  by_address.address = gen.token(0);
  const auto token_logs = filter_logs(chain, by_address);
  for (const auto& match : token_logs)
    EXPECT_EQ(match.log.address, gen.token(0));

  // Unfiltered query returns every log.
  const auto all = filter_logs(chain, LogQuery{});
  EXPECT_EQ(all.size(), expected_logs);
  EXPECT_LE(token_logs.size(), all.size());

  // Topic query: logs where some specific account was sender or receiver.
  ASSERT_FALSE(all.empty());
  const U256 some_topic = all.front().log.topics.front();
  LogQuery by_topic;
  by_topic.topic = some_topic;
  const auto topic_logs = filter_logs(chain, by_topic);
  EXPECT_FALSE(topic_logs.empty());
  for (const auto& match : topic_logs) {
    bool hit = false;
    for (const auto& topic : match.log.topics)
      if (topic == some_topic) hit = true;
    EXPECT_TRUE(hit);
  }

  // Height range restriction.
  LogQuery only_h2;
  only_h2.from_height = 2;
  for (const auto& match : filter_logs(chain, only_h2))
    EXPECT_EQ(match.height, 2u);

  // An address nobody logged: bloom short-circuits to zero matches.
  LogQuery ghost;
  ghost.address = Address::from_id(0xDEADDEAD);
  EXPECT_TRUE(filter_logs(chain, ghost).empty());
}

// ---- wire codec ----

TEST(Codec, TransactionRoundTrip) {
  // The block codec frames each transaction with Transaction::encode_into,
  // the same definition behind rlp_encode() and the transaction hash.
  Block block;
  block.transactions.push_back(sample_tx(3));
  const Transaction& tx = block.transactions[0];
  const Bytes wire = encode_block(block);
  const Bytes tx_wire = tx.rlp_encode();
  EXPECT_NE(std::search(wire.begin(), wire.end(), tx_wire.begin(),
                        tx_wire.end()),
            wire.end());
  const Block decoded = decode_block(std::span(wire));
  ASSERT_EQ(decoded.transactions.size(), 1u);
  const Transaction& back = decoded.transactions[0];
  EXPECT_EQ(back.nonce, tx.nonce);
  EXPECT_EQ(back.gas_price, tx.gas_price);
  EXPECT_EQ(back.gas_limit, tx.gas_limit);
  EXPECT_EQ(back.from, tx.from);
  EXPECT_EQ(back.to, tx.to);
  EXPECT_EQ(back.value, tx.value);
  EXPECT_EQ(back.data, tx.data);
  EXPECT_EQ(back.hash(), tx.hash());
}

TEST(Codec, BlockRoundTrip) {
  Block block;
  block.header.number = 42;
  block.header.gas_used = 123456;
  block.header.coinbase = Address::from_id(0xFEE);
  block.header.timestamp = 999;
  for (std::uint64_t i = 0; i < 5; ++i)
    block.transactions.push_back(sample_tx(i));
  block.header.tx_root = transactions_root(block.transactions);

  const Bytes wire = encode_block(block);
  const Block back = decode_block(std::span(wire));
  EXPECT_EQ(back.header.hash(), block.header.hash());
  ASSERT_EQ(back.transactions.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(back.transactions[i].hash(), block.transactions[i].hash());
  EXPECT_EQ(transactions_root(back.transactions), block.header.tx_root);
}

TEST(Codec, ProfileRoundTrip) {
  BlockProfile profile;
  TxProfile t1;
  t1.reads.push_back(state::StateKey::balance(Address::from_id(1)));
  t1.reads.push_back(state::StateKey::storage(Address::from_id(2), U256{7}));
  t1.writes.emplace_back(state::StateKey::nonce(Address::from_id(1)),
                         U256{5});
  t1.writes.emplace_back(
      state::StateKey::storage(Address::from_id(2), U256{7}), U256{0xabc});
  t1.gas_used = 54321;
  profile.txs.push_back(t1);
  profile.txs.push_back(TxProfile{});  // empty profile entry is legal

  const Bytes wire = encode_profile(profile);
  const BlockProfile back = decode_profile(std::span(wire));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.txs[0].reads, profile.txs[0].reads);
  EXPECT_EQ(back.txs[0].writes, profile.txs[0].writes);
  EXPECT_EQ(back.txs[0].gas_used, 54321u);
  EXPECT_TRUE(back.txs[1].reads.empty());
  EXPECT_TRUE(back.txs[1].writes.empty());
}

// A sealed block of `n_txs` preset_mainnet transactions with its profile:
// a real proposer output, what validators in the network substrate consume.
BlockAnnouncement mainnet_announcement(std::uint64_t seed, std::size_t n_txs) {
  workload::WorkloadConfig wc = workload::preset_mainnet();
  wc.seed = seed;
  workload::WorkloadGenerator gen(wc);
  const state::WorldState genesis = gen.genesis();
  evm::BlockContext ctx;
  ctx.number = 1;
  ctx.coinbase = Address::from_id(0xC0FFEE);
  const auto txs = gen.next_batch(n_txs);
  const core::SerialResult serial =
      core::execute_serial(genesis, ctx, std::span(txs));
  BlockAnnouncement ann;
  ann.block = core::seal_block(ctx, serial.exec, serial.included);
  ann.profile = serial.exec.profile;
  return ann;
}

std::string digest_hex(const Bytes& wire) {
  return Hash256::of(std::span(wire)).to_hex();
}

TEST(Codec, AnnouncementRoundTripOnRealBlock) {
  const BlockAnnouncement ann =
      mainnet_announcement(workload::WorkloadConfig{}.seed, 40);
  const Bytes wire = encode_announcement(ann);
  const BlockAnnouncement back = decode_announcement(std::span(wire));
  EXPECT_EQ(back.block.header.hash(), ann.block.header.hash());
  ASSERT_EQ(back.profile.size(), ann.profile.size());
  for (std::size_t i = 0; i < ann.profile.size(); ++i) {
    EXPECT_EQ(back.profile.txs[i].reads, ann.profile.txs[i].reads);
    EXPECT_EQ(back.profile.txs[i].writes, ann.profile.txs[i].writes);
    EXPECT_EQ(back.profile.txs[i].gas_used, ann.profile.txs[i].gas_used);
  }
}

// The wire format is a contract between nodes: these digests were captured
// from the Item-tree codec and pin every byte of a 128-tx mainnet block.
TEST(Codec, GoldenWireDigests) {
  const BlockAnnouncement ann = mainnet_announcement(2024, 128);
  ASSERT_EQ(ann.block.transactions.size(), 128u);
  const Bytes wire = encode_announcement(ann);
  EXPECT_EQ(wire.size(), 44826u);
  EXPECT_EQ(digest_hex(encode_block(ann.block)),
            "0x453a3d64f7a19baf645aa3e15b39df6f47644866422c4872b2c9cefc868243a4");
  EXPECT_EQ(digest_hex(encode_profile(ann.profile)),
            "0xf1a4a957abf14347edda5eb3aedb397b678008e439249a7243dde7a57e957dca");
  EXPECT_EQ(digest_hex(wire),
            "0x9fd87678a76d633579676cc892ecfd6d2d22ffc591a9ea889c4a73753d85870d");
  // Decoding loses nothing: the decoded announcement re-encodes to the wire.
  EXPECT_EQ(encode_announcement(decode_announcement(std::span(wire))), wire);
}

}  // namespace
}  // namespace blockpilot::chain

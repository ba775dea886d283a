#include "chain/codec.hpp"

#include "support/assert.hpp"

namespace blockpilot::chain {
namespace {

using state::Field;
using state::StateKey;

// A state key's wire fields [addr, field, slot]: a profile read is these
// three as a list, a profile write appends the written value.
void add_key_fields(rlp::Encoder& enc, const StateKey& key) {
  enc.add(key.addr)
      .add(static_cast<std::uint64_t>(key.field))
      .add(key.field == Field::kStorage ? key.slot : U256{});
}

StateKey read_key_fields(rlp::Reader& in) {
  const Address addr = in.address();
  const std::uint64_t field = in.u64();
  if (field > 2) in.fail();  // unknown state-key field
  // The converting constructor fills the cached hash.
  return StateKey{addr, static_cast<Field>(field), in.u256()};
}

void encode_block_into(rlp::Encoder& enc, const Block& block) {
  enc.begin_list();
  block.header.encode_into(enc);
  enc.begin_list();
  for (const Transaction& tx : block.transactions) tx.encode_into(enc);
  enc.end_list();
  enc.end_list();
}

void encode_profile_into(rlp::Encoder& enc, const BlockProfile& profile) {
  enc.begin_list();
  for (const TxProfile& tx : profile.txs) {
    enc.begin_list();
    enc.begin_list();
    for (const StateKey& key : tx.reads) {
      enc.begin_list();
      add_key_fields(enc, key);
      enc.end_list();
    }
    enc.end_list();
    enc.begin_list();
    for (const auto& [key, value] : tx.writes) {
      enc.begin_list();
      add_key_fields(enc, key);
      enc.add(value).end_list();
    }
    enc.end_list();
    enc.add(tx.gas_used);
    enc.end_list();
  }
  enc.end_list();
}

BlockHeader read_header(rlp::Reader& in) {
  rlp::Reader r = in.list();
  BlockHeader header;
  header.parent_hash = r.hash();
  header.number = r.u64();
  header.coinbase = r.address();
  header.state_root = r.hash();
  header.tx_root = r.hash();
  header.receipts_root = r.hash();
  header.logs_bloom = Bloom::from_bytes(r.bytes(Bloom::kBytes));
  header.gas_limit = r.u64();
  header.gas_used = r.u64();
  header.timestamp = r.u64();
  r.finish();
  return header;
}

Transaction read_transaction(rlp::Reader& in) {
  rlp::Reader r = in.list();
  Transaction tx;
  tx.nonce = r.u64();
  tx.gas_price = r.u256();
  tx.gas_limit = r.u64();
  tx.from = r.address();
  tx.to = r.address();
  tx.value = r.u256();
  const auto data = r.bytes();
  tx.data.assign(data.begin(), data.end());
  r.finish();
  return tx;
}

Block read_block(rlp::Reader& in) {
  rlp::Reader r = in.list();
  Block block;
  block.header = read_header(r);
  rlp::Reader txs = r.list();
  while (!txs.at_end()) block.transactions.push_back(read_transaction(txs));
  r.finish();
  return block;
}

BlockProfile read_profile(rlp::Reader& in) {
  rlp::Reader r = in.list();
  BlockProfile profile;
  while (!r.at_end()) {
    rlp::Reader entry = r.list();
    TxProfile tx;
    rlp::Reader reads = entry.list();
    while (!reads.at_end()) {
      rlp::Reader key = reads.list();
      tx.reads.push_back(read_key_fields(key));
      key.finish();
    }
    rlp::Reader writes = entry.list();
    while (!writes.at_end()) {
      rlp::Reader write = writes.list();
      const StateKey key = read_key_fields(write);
      tx.writes.emplace_back(key, write.u256());
      write.finish();
    }
    tx.gas_used = entry.u64();
    entry.finish();
    profile.txs.push_back(std::move(tx));
  }
  return profile;
}

}  // namespace

Bytes encode_block(const Block& block) {
  rlp::Encoder enc;
  encode_block_into(enc, block);
  return enc.take();
}

Block decode_block(std::span<const std::uint8_t> wire) {
  rlp::Reader in(wire);
  Block block = read_block(in);
  in.finish();
  BP_ASSERT_MSG(in.ok(), "malformed block");
  return block;
}

Bytes encode_profile(const BlockProfile& profile) {
  rlp::Encoder enc;
  encode_profile_into(enc, profile);
  return enc.take();
}

BlockProfile decode_profile(std::span<const std::uint8_t> wire) {
  rlp::Reader in(wire);
  BlockProfile profile = read_profile(in);
  in.finish();
  BP_ASSERT_MSG(in.ok(), "malformed block profile");
  return profile;
}

Bytes encode_announcement(const BlockAnnouncement& ann) {
  rlp::Encoder enc;
  enc.begin_list();
  encode_block_into(enc, ann.block);
  encode_profile_into(enc, ann.profile);
  enc.end_list();
  return enc.take();
}

std::optional<BlockAnnouncement> try_decode_announcement(
    std::span<const std::uint8_t> wire) {
  rlp::Reader in(wire);
  rlp::Reader r = in.list();
  BlockAnnouncement ann;
  ann.block = read_block(r);
  ann.profile = read_profile(r);
  r.finish();
  in.finish();
  if (!in.ok()) return std::nullopt;
  return ann;
}

BlockAnnouncement decode_announcement(std::span<const std::uint8_t> wire) {
  std::optional<BlockAnnouncement> ann = try_decode_announcement(wire);
  BP_ASSERT_MSG(ann.has_value(), "malformed block announcement");
  return std::move(*ann);
}

}  // namespace blockpilot::chain

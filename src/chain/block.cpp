#include "chain/block.hpp"

#include "rlp/rlp.hpp"

namespace blockpilot::chain {

void BlockHeader::encode_into(rlp::Encoder& enc) const {
  enc.begin_list()
      .add(parent_hash)
      .add(number)
      .add(coinbase)
      .add(state_root)
      .add(tx_root)
      .add(receipts_root)
      .add(std::span(logs_bloom.bytes()))
      .add(gas_limit)
      .add(gas_used)
      .add(timestamp)
      .end_list();
}

Bytes BlockHeader::rlp_encode() const {
  rlp::Encoder enc;
  encode_into(enc);
  return enc.take();
}

Hash256 BlockHeader::hash() const {
  const Bytes encoded = rlp_encode();
  return Hash256::of(std::span(encoded));
}

Hash256 transactions_root(const std::vector<Transaction>& txs) {
  trie::MerklePatriciaTrie t;  // index keys are not hashed (yellow paper)
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const auto key = rlp::encode(static_cast<std::uint64_t>(i));
    const auto value = txs[i].rlp_encode();
    t.put(std::span(key), std::span(value));
  }
  return t.root_hash();
}

}  // namespace blockpilot::chain

// Block, BlockHeader and the transactions trie root.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/bloom.hpp"
#include "chain/transaction.hpp"
#include "trie/mpt.hpp"
#include "types/address.hpp"

namespace blockpilot::chain {

struct BlockHeader {
  Hash256 parent_hash;
  std::uint64_t number = 0;
  Address coinbase;
  Hash256 state_root;     // world-state MPT root after executing this block
  Hash256 tx_root;        // transactions trie root
  Hash256 receipts_root;  // receipts trie root
  Bloom logs_bloom;       // union of all receipts' log blooms
  std::uint64_t gas_limit = 30'000'000;
  std::uint64_t gas_used = 0;
  std::uint64_t timestamp = 0;

  /// The one definition of the header wire format: rlp([parent_hash,
  /// number, coinbase, state_root, tx_root, receipts_root, logs_bloom,
  /// gas_limit, gas_used, timestamp]).
  void encode_into(rlp::Encoder& enc) const;
  Bytes rlp_encode() const;
  Hash256 hash() const;
};

struct Block {
  BlockHeader header;
  std::vector<Transaction> transactions;

  /// Total gas limit of contained transactions (scheduling estimate input).
  std::uint64_t total_gas_limit() const noexcept {
    std::uint64_t g = 0;
    for (const auto& tx : transactions) g += tx.gas_limit;
    return g;
  }
};

/// Ethereum-style transactions trie: rlp(index) -> rlp(tx).
Hash256 transactions_root(const std::vector<Transaction>& txs);

}  // namespace blockpilot::chain

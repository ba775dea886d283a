// Transaction: a signed-transfer abstraction (signatures elided — sender
// recovery is outside this reproduction's scope; `from` is authoritative).
#pragma once

#include <cstdint>
#include <vector>

#include "rlp/rlp.hpp"
#include "types/address.hpp"
#include "types/u256.hpp"

namespace blockpilot::chain {

using Bytes = std::vector<std::uint8_t>;

struct Transaction {
  std::uint64_t nonce = 0;
  U256 gas_price;
  std::uint64_t gas_limit = 0;
  Address from;
  Address to;
  U256 value;
  Bytes data;

  friend bool operator==(const Transaction&, const Transaction&) = default;

  /// Canonical RLP encoding [nonce, gasPrice, gasLimit, from, to, value,
  /// data] (the `from` field substitutes for the signature triplet): the
  /// one definition of the transaction wire format.
  void encode_into(rlp::Encoder& enc) const {
    enc.begin_list()
        .add(nonce)
        .add(gas_price)
        .add(gas_limit)
        .add(from)
        .add(to)
        .add(value)
        .add(std::span(data))
        .end_list();
  }

  Bytes rlp_encode() const {
    rlp::Encoder enc;
    encode_into(enc);
    return enc.take();
  }

  /// Transaction hash: keccak over the RLP encoding.
  Hash256 hash() const {
    const Bytes encoded = rlp_encode();
    return Hash256::of(std::span(encoded));
  }
};

}  // namespace blockpilot::chain

// Wire codec: RLP serialization for everything a proposer broadcasts.
//
// The paper's proposers "provide execution details like read and write
// sets about their transactions in the block profile and broadcast it into
// the network" (§4.2).  This codec defines that wire format: blocks,
// headers, transactions and block profiles round-trip through canonical
// RLP, so the network substrate (src/net) ships plain byte strings.
#pragma once

#include <optional>
#include <vector>

#include "chain/block.hpp"
#include "chain/profile.hpp"

namespace blockpilot::chain {

// -- blocks ---------------------------------------------------------------

/// rlp([header, [tx...]]) where header/tx use their canonical encodings
/// (BlockHeader::encode_into, Transaction::encode_into).
///
/// Every decode_* aborts on malformed input: one BP_ASSERT on the reader's
/// error flag once decoding has stopped.
Bytes encode_block(const Block& block);
Block decode_block(std::span<const std::uint8_t> wire);

// -- block profiles -------------------------------------------------------

/// rlp([[reads, writes, gas] ...]) with
///   reads  = [[addr, field, slot] ...]
///   writes = [[addr, field, slot, value] ...]
Bytes encode_profile(const BlockProfile& profile);
BlockProfile decode_profile(std::span<const std::uint8_t> wire);

// -- combined broadcast unit ----------------------------------------------

/// What a BlockPilot proposer gossips: rlp([block, profile]).
struct BlockAnnouncement {
  Block block;
  BlockProfile profile;
};

Bytes encode_announcement(const BlockAnnouncement& ann);
BlockAnnouncement decode_announcement(std::span<const std::uint8_t> wire);
/// As decode_announcement, but nullopt on malformed input instead of an
/// abort: for bytes read from disk (BlockArchiveReader).
std::optional<BlockAnnouncement> try_decode_announcement(
    std::span<const std::uint8_t> wire);

}  // namespace blockpilot::chain

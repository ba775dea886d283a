// Recursive Length Prefix (RLP) serialization, Ethereum's canonical wire
// and trie-node encoding.
//
// Encoding rules (yellow paper, appendix B):
//   * single byte < 0x80 encodes itself;
//   * a string of 0-55 bytes: 0x80+len prefix;
//   * longer strings: 0xb7+len-of-len prefix, then big-endian length;
//   * a list whose payload is 0-55 bytes: 0xc0+len prefix;
//   * longer lists: 0xf7+len-of-len prefix, then big-endian length.
// Integers are encoded as minimal big-endian strings (zero = empty string).
//
// Encoder: everything is written into one buffer.  begin_list() records the
// offset where the list's payload starts; end_list() inserts the length
// prefix at that offset once the payload size is known, so no list owns a
// buffer of its own.
//
// Reader: a cursor over a byte span.  Every format this codebase decodes
// (blocks, profiles, trie nodes, proofs) has a fixed schema, so callers walk
// it field by field and no generic item tree is built: strings come back as
// spans into the input, lists as sub-readers over their payload, and no
// decode recurses on the input's nesting.  The reader never trusts a
// length: each is compared against the bytes that remain, so a hostile
// prefix cannot overflow an offset.  Non-minimal length prefixes are
// rejected, so an accepted item's raw() bytes are its canonical encoding.
// The first failure (truncation, wrong item kind, wrong width, trailing
// bytes) sets an error flag shared by a reader and all its sub-readers;
// from then on reads return empty values and at_end() is true, so every
// decode loop ends and the caller checks ok() once at the top.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "types/address.hpp"
#include "types/u256.hpp"

namespace blockpilot::rlp {

using Bytes = std::vector<std::uint8_t>;

/// Streaming encoder.  Items appended at the top level concatenate; use
/// begin_list()/end_list() to nest.
class Encoder {
 public:
  Encoder& add(std::span<const std::uint8_t> str);
  Encoder& add(std::string_view str);
  Encoder& add(std::uint64_t value);        // minimal big-endian integer
  Encoder& add(const U256& value);          // minimal big-endian integer
  Encoder& add(const Address& addr);        // 20-byte string
  Encoder& add(const Hash256& hash);        // 32-byte string

  /// Appends a pre-encoded RLP item verbatim (for nested structures whose
  /// encoding was computed elsewhere, e.g. trie child references).
  Encoder& add_raw(std::span<const std::uint8_t> encoded);

  /// Opens a list; every item added until the matching end_list() belongs to
  /// it.  Lists may nest arbitrarily.
  Encoder& begin_list();
  Encoder& end_list();

  /// Finishes encoding and returns the buffer.  All lists must be closed.
  Bytes take();

 private:
  void append_string(std::span<const std::uint8_t> str);

  Bytes buffer_;
  std::vector<std::size_t> open_lists_;  // payload offset per open list
};

/// Encodes a single byte-string item.
Bytes encode(std::span<const std::uint8_t> str);
Bytes encode(std::uint64_t value);
Bytes encode(const U256& value);

/// Cursor over a sequence of RLP items: the whole input for a top-level
/// reader, a list's payload for a sub-reader.  Not copyable: sub-readers
/// point at the error flag of the reader they came from, and must not
/// outlive it (nor the input bytes).
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) noexcept
      : data_(data), failed_(&own_failed_) {}
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// False once any read on this reader, its parent or a sub-reader failed.
  bool ok() const noexcept { return !*failed_; }
  /// True when no item is left to read, or after a failure.
  bool at_end() const noexcept { return *failed_ || pos_ == data_.size(); }
  /// True when the next item is a well-formed list.
  bool next_is_list() const noexcept;
  /// Counts the items left, without consuming them.
  std::size_t count();

  /// Reads a list and returns a reader over its payload.
  Reader list();
  /// Reads a string and returns its payload (a view into the input).
  std::span<const std::uint8_t> bytes();
  /// Reads a string that must be exactly `n` bytes long.
  std::span<const std::uint8_t> bytes(std::size_t n);
  /// Reads any item and returns its whole encoding, prefix included.
  std::span<const std::uint8_t> raw();

  std::uint64_t u64();   // string of at most 8 bytes
  U256 u256();           // string of at most 32 bytes
  Address address();     // string of exactly 20 bytes
  Hash256 hash();        // string of exactly 32 bytes

  /// Fails unless every item has been read: rejects trailing data.
  void finish() noexcept;
  /// Marks the input malformed (for schema checks made by the caller).
  void fail() noexcept;

 private:
  struct Head {
    bool is_list = false;
    std::size_t header = 0;   // prefix bytes
    std::size_t payload = 0;  // payload bytes
  };

  Reader(std::span<const std::uint8_t> data, bool* failed) noexcept
      : data_(data), failed_(failed) {}
  /// Parses the prefix of the item at `pos`; false when there is none or
  /// it is malformed.
  bool peek(std::size_t pos, Head& head) const noexcept;
  /// Consumes the next item if it has the wanted kind; returns its payload.
  std::span<const std::uint8_t> take(bool want_list) noexcept;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool own_failed_ = false;
  bool* failed_;
};

}  // namespace blockpilot::rlp

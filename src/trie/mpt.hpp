// Merkle Patricia Trie (MPT) — Ethereum's authenticated key-value structure.
//
// The world-state root, every account's storage root, and the block-header
// state commitment that validators compare against a proposed block (paper
// §5.2: "Two world states are considered identical only if their MPT roots
// are the same") are all MPT root hashes, so correctness of this module is
// the foundation of the whole reproduction.
//
// Node model (yellow paper, appendix D):
//   * leaf      — hex-prefix-encoded key remainder + value;
//   * extension — hex-prefix-encoded shared nibble run + one child;
//   * branch    — 16 children indexed by next nibble + optional value.
// A node reference is its RLP encoding when shorter than 32 bytes, else the
// Keccak-256 of that encoding.  The root is always hashed.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "types/address.hpp"

namespace blockpilot {
class ThreadPool;
}  // namespace blockpilot

namespace blockpilot::db {
class NodeStore;
class PutBatch;
}  // namespace blockpilot::db

namespace blockpilot::trie {

namespace detail {
struct MptNode;
}  // namespace detail

using Bytes = std::vector<std::uint8_t>;
using Nibbles = std::vector<std::uint8_t>;  // values 0..15

/// Splits a byte string into nibbles, high nibble first.
Nibbles to_nibbles(std::span<const std::uint8_t> key);

/// Hex-prefix (compact) encoding of a nibble path (yellow paper eq. 197).
Bytes hex_prefix_encode(std::span<const std::uint8_t> nibbles, bool is_leaf);

/// Inverse of hex_prefix_encode: recovers (nibbles, is_leaf).
std::pair<Nibbles, bool> hex_prefix_decode(std::span<const std::uint8_t> hp);

/// In-memory *persistent* Merkle Patricia Trie over byte-string keys and
/// values.
///
/// Copies share structure: copying a trie is O(1) and mutations path-copy,
/// cloning only the spine from the root to the touched key while every
/// untouched subtree stays shared between the copies.  Shared nodes also
/// keep their memoized hash references, which is what makes `root_hash()`
/// incremental — after k updates only O(k * depth) nodes re-hash.
///
/// Thread-safety: concurrent reads (get / root_hash / prove) are safe, even
/// across tries sharing structure (node hash memos are internally
/// synchronized).  Writes (put / erase) must not race with any other access
/// to the *same* trie object; writes to distinct tries sharing structure
/// are safe (mutation never touches shared nodes).
class MerklePatriciaTrie {
 public:
  MerklePatriciaTrie();
  ~MerklePatriciaTrie();
  MerklePatriciaTrie(MerklePatriciaTrie&&) noexcept;
  MerklePatriciaTrie& operator=(MerklePatriciaTrie&&) noexcept;
  MerklePatriciaTrie(const MerklePatriciaTrie&);
  MerklePatriciaTrie& operator=(const MerklePatriciaTrie&);

  /// Inserts or overwrites. Empty values are equivalent to erasure (the trie
  /// never stores empty values, matching Ethereum semantics).
  void put(std::span<const std::uint8_t> key,
           std::span<const std::uint8_t> value);

  /// Returns the stored value or nullopt.
  std::optional<Bytes> get(std::span<const std::uint8_t> key) const;

  /// Removes a key; no-op when absent.
  void erase(std::span<const std::uint8_t> key);

  bool empty() const noexcept { return root_ == nullptr; }

  /// Number of key-value pairs.
  std::size_t size() const noexcept { return size_; }

  /// Keccak-256 commitment over the whole trie.  The canonical empty-trie
  /// root (keccak of the RLP empty string) is returned for an empty trie.
  /// With `lanes`, the subtries below the first node with two or more
  /// unhashed children (the root branch, or the branch under a root
  /// extension) hash as lanes of lanes->fork_join, and the spine above
  /// them on the calling thread; the result is the same either way.
  Hash256 root_hash(ThreadPool* lanes = nullptr) const;

  /// The canonical empty-trie root constant.
  static Hash256 empty_root();

  /// Reopens a previously persisted trie by its root hash: the root node is
  /// loaded eagerly from `store` (aborting if absent), everything below it
  /// materializes lazily through disk-backed stubs as traversals touch it.
  /// `store` must outlive the returned trie and every trie derived from it.
  /// size() is not recoverable from a root hash and reports 0.
  static MerklePatriciaTrie from_root(const Hash256& root,
                                      const db::NodeStore& store);

  /// Writes every *new* node reachable from the root into `store`
  /// (content-addressed: walks prune at nodes the store already holds, and
  /// at unloaded stubs, which by construction came from a persisted root).
  /// Returns the number of nodes appended.  After it returns, from_root
  /// (root_hash(), store) reconstructs this exact trie.  Opens a
  /// db::WriteSession on `store` for the walk.
  std::size_t persist_nodes(db::NodeStore& store) const;

  /// persist_nodes into the caller's batch (and so inside its session);
  /// the caller flushes it.  With `lanes`, the subtries below the first
  /// node with two or more new children walk as lanes of lanes->fork_join,
  /// each into a deferred batch flushed after the join, and that node and
  /// the spine above it are put after them: every node still lands after
  /// all of its children.
  std::size_t persist_nodes(db::PutBatch& out,
                            ThreadPool* lanes = nullptr) const;

  /// Internal: root node pointer for the proof generator (proof.hpp).
  /// nullptr for an empty trie.  Not stable API.
  const detail::MptNode* root_node() const noexcept { return root_.get(); }

 private:
  std::shared_ptr<detail::MptNode> root_;
  std::size_t size_ = 0;
};

/// "Secure" trie wrapper: keys are keccak-hashed before insertion, matching
/// Ethereum's account and storage tries (prevents path-length attacks and
/// balances the tree).
class SecureTrie {
 public:
  void put(std::span<const std::uint8_t> key,
           std::span<const std::uint8_t> value) {
    const auto hashed = crypto::keccak256(key);
    inner_.put(std::span(hashed), value);
  }

  std::optional<Bytes> get(std::span<const std::uint8_t> key) const {
    const auto hashed = crypto::keccak256(key);
    return inner_.get(std::span(hashed));
  }

  void erase(std::span<const std::uint8_t> key) {
    const auto hashed = crypto::keccak256(key);
    inner_.erase(std::span(hashed));
  }

  Hash256 root_hash(ThreadPool* lanes = nullptr) const {
    return inner_.root_hash(lanes);
  }
  std::size_t size() const noexcept { return inner_.size(); }
  bool empty() const noexcept { return inner_.empty(); }

  /// See MerklePatriciaTrie::from_root / persist_nodes.
  static SecureTrie from_root(const Hash256& root, const db::NodeStore& store) {
    SecureTrie t;
    t.inner_ = MerklePatriciaTrie::from_root(root, store);
    return t;
  }
  std::size_t persist_nodes(db::NodeStore& store) const {
    return inner_.persist_nodes(store);
  }
  std::size_t persist_nodes(db::PutBatch& out,
                            ThreadPool* lanes = nullptr) const {
    return inner_.persist_nodes(out, lanes);
  }
  const MerklePatriciaTrie& inner() const noexcept { return inner_; }

 private:
  MerklePatriciaTrie inner_;
};

}  // namespace blockpilot::trie

// Internal MPT node representation and node encoding, shared between the
// trie implementation (mpt.cpp) and the proof generator (proof.cpp).
// Not part of the public API.
//
// Nodes are reference-counted and structurally shared between tries: copying
// a trie shares the whole node graph, and mutations path-copy (clone only
// the nodes on the root-to-leaf spine, cloning shallowly so subtrees stay
// shared).  This is what makes per-block world-state copies O(1) and state
// commitment incremental — see docs/commit_pipeline.md.
//
// Each node memoizes its *reference* (the inline RLP when shorter than 32
// bytes, else the keccak digest of the RLP), inline in the node.  The memo
// is filled lazily on first hash and survives until a mutation invalidates the node (mutations
// only ever touch uniquely-owned nodes, so shared subtrees keep their
// references).  Because tries that share structure may hash concurrently on
// the commit pool, the memo is guarded by a per-node spinlock.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "crypto/keccak.hpp"
#include "rlp/rlp.hpp"
#include "support/assert.hpp"
#include "trie/mpt.hpp"

namespace blockpilot::db {
class NodeStore;
}  // namespace blockpilot::db

namespace blockpilot::trie::detail {

struct MptNode {
  using Children = std::array<std::shared_ptr<MptNode>, 16>;
  enum class Kind : std::uint8_t { kLeaf, kExtension, kBranch };

  // Layout: a trie keeps every node of every retained version, so the node
  // stays small.  Only branches allocate their 16 child slots, and the
  // reference memo is inline: a leaf or an extension pays for neither.
  Kind kind;

  // Memoized node reference: inline RLP when < 32 bytes, else the 32-byte
  // keccak digest, in ref[0, ref_size).  `ref_ready` is the publication
  // flag; `ref_lock` is a spinlock that serializes the (rare) concurrent
  // first computation when two tries sharing this node hash at the same
  // time.
  mutable std::atomic<bool> ref_ready{false};
  mutable std::atomic_flag ref_lock = ATOMIC_FLAG_INIT;

  // Disk-backed stub support: a stub carries only its 32-byte reference
  // (ref_ready is true from birth, so hashing a trie of stubs never touches
  // disk) and materializes kind/path/value/children lazily from `store` on
  // first structural access (detail::resolved).  `loaded` is the
  // publication flag for the materialized fields; the one-time load
  // serializes on ref_lock, which a stub's node_ref never contends (its
  // fast path always wins).
  mutable std::atomic<bool> loaded{true};
  mutable std::uint8_t ref_size = 0;

  // Leaf / extension:
  Nibbles path;
  Bytes value;                     // leaf value, or branch value slot
  std::shared_ptr<MptNode> child;  // extension child

  // Branch: the child slots, allocated by branch() (and by a stub load
  // that finds a branch); null for leaves and extensions.
  std::unique_ptr<Children> kids;

  mutable std::array<std::uint8_t, 32> ref;
  const db::NodeStore* store = nullptr;

  /// A branch's child slots.
  Children& children() const { return *kids; }

  /// The memoized reference; valid once ref_ready is published.
  std::span<const std::uint8_t> cached_ref() const noexcept {
    return {ref.data(), ref_size};
  }

  /// Stores a reference of at most 32 bytes (before publishing it).
  void set_ref(std::span<const std::uint8_t> r) const noexcept {
    std::copy(r.begin(), r.end(), ref.begin());
    ref_size = static_cast<std::uint8_t>(r.size());
  }

  /// Drops the memoized reference.  Callers must hold unique ownership of
  /// the node (mutation contract), so no locking is needed.
  void invalidate_ref() noexcept {
    ref_ready.store(false, std::memory_order_relaxed);
  }

  static std::shared_ptr<MptNode> leaf(Nibbles p, Bytes v) {
    auto n = std::make_shared<MptNode>();
    n->kind = Kind::kLeaf;
    n->path = std::move(p);
    n->value = std::move(v);
    return n;
  }
  static std::shared_ptr<MptNode> extension(Nibbles p,
                                            std::shared_ptr<MptNode> c) {
    BP_ASSERT(!p.empty());
    auto n = std::make_shared<MptNode>();
    n->kind = Kind::kExtension;
    n->path = std::move(p);
    n->child = std::move(c);
    return n;
  }
  static std::shared_ptr<MptNode> branch() {
    auto n = std::make_shared<MptNode>();
    n->kind = Kind::kBranch;
    n->kids = std::make_unique<Children>();
    return n;
  }
  /// Unloaded disk-backed stub addressed by its 32-byte hash reference.
  static std::shared_ptr<MptNode> stub(const Hash256& hash,
                                       const db::NodeStore* s) {
    auto n = std::make_shared<MptNode>();
    n->kind = Kind::kBranch;  // placeholder until loaded
    n->set_ref(hash.bytes);
    n->store = s;
    n->loaded.store(false, std::memory_order_relaxed);
    n->ref_ready.store(true, std::memory_order_release);
    return n;
  }
};

// Encodes a node to RLP (yellow paper node composition function c).  Child
// references resolve through each child's memoized reference.
Bytes encode_node(const MptNode* node);

// Appends a child reference: inline RLP when < 32 bytes, else keccak hash.
void append_reference(rlp::Encoder& enc, const MptNode* node);

// The node's memoized reference (computing and caching it on first use).
std::span<const std::uint8_t> node_ref(const MptNode* node);

// Materializes an unloaded stub from its store (read-through the global
// NodeCache).  Aborts on a missing or corrupt node — a stub's hash was
// produced by a persisted parent, so absence means the store broke its
// durability contract.
void load_stub(const MptNode* node);

/// Ensures structural fields (kind/path/value/children) are readable.
/// Every traversal step must pass through this before touching them.
inline const MptNode* resolved(const MptNode* node) {
  if (node != nullptr && !node->loaded.load(std::memory_order_acquire))
    load_stub(node);
  return node;
}

}  // namespace blockpilot::trie::detail

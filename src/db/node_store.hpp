// NodeStore: the content-addressed MPT node store the trie layer resolves
// disk-backed node refs through.
//
// Nodes are immutable and keyed by their keccak-256 reference (exactly the
// 32-byte child refs inside parent encodings), so a store is a write-once
// map hash -> RLP encoding plus a durability barrier: commit_root(root, h)
// promises that every node reachable from `root` survives a crash.  Two
// backends implement the interface:
//
//   * InMemoryNodeStore — an unordered_map.  The reference backend: every
//     existing test and differential gates against it, and the paged
//     backend must be bit-identical to it at every height.
//   * PagedNodeStore (paged_node_store.hpp) — the append-only paged file
//     with manifest-based crash recovery and compaction.
//
// Reads are hot-path (trie stub resolution on proposer/validator lanes),
// so the interface is deliberately tiny.
#pragma once

#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "db/status.hpp"
#include "types/address.hpp"

namespace blockpilot::db {

class NodeStore {
 public:
  virtual ~NodeStore() = default;

  /// Stores `encoding` under `hash`.  Idempotent: re-putting an existing
  /// hash is a no-op (content-addressing makes collisions impossible).
  virtual Status put(const Hash256& hash,
                     std::span<const std::uint8_t> encoding) = 0;

  /// Fetches the encoding stored under `hash` into `out`.
  /// kNotFound when absent; backends surface damage as kCorruptPage.
  virtual Status get(const Hash256& hash,
                     std::vector<std::uint8_t>& out) const = 0;

  /// Whether a node is already stored (used to prune persist walks at
  /// unchanged subtrees).
  virtual bool contains(const Hash256& hash) const = 0;

  /// Durability barrier: after this returns ok, a crash recovers to a
  /// store containing at least every node reachable from `root`.
  virtual Status commit_root(const Hash256& root, std::uint64_t height) = 0;

  /// The last root commit_root() made durable (zero hash when none).
  virtual Hash256 durable_root() const = 0;
  virtual std::uint64_t durable_height() const = 0;

  struct Stats {
    std::uint64_t puts = 0;          // put() calls that stored a new node
    std::uint64_t dup_puts = 0;      // put() calls answered by dedup
    std::uint64_t gets = 0;          // get() calls served
    std::uint64_t get_misses = 0;    // get() calls that found nothing
    std::uint64_t roots_committed = 0;
    std::uint64_t node_bytes = 0;    // payload bytes of stored nodes
    std::uint64_t nodes = 0;         // stored node count
    std::uint64_t file_bytes = 0;    // on-disk footprint (0 for in-memory)
    std::uint64_t recovered_nodes = 0;   // nodes re-indexed at open
    std::uint64_t compactions = 0;       // completed compaction passes
    std::uint64_t compacted_bytes = 0;   // dead bytes reclaimed
    double last_sweep_walk_ms = 0.0;     // last compaction: scan + walk
    double last_sweep_copy_ms = 0.0;     // last compaction: copy + fsync
  };
  virtual Stats stats() const = 0;
};

/// The reference backend: a mutex-guarded map.  commit_root only records
/// the root (RAM is "durable" for the reference semantics the differentials
/// gate on).
class InMemoryNodeStore final : public NodeStore {
 public:
  Status put(const Hash256& hash,
             std::span<const std::uint8_t> encoding) override;
  Status get(const Hash256& hash,
             std::vector<std::uint8_t>& out) const override;
  bool contains(const Hash256& hash) const override;
  Status commit_root(const Hash256& root, std::uint64_t height) override;
  Hash256 durable_root() const override;
  std::uint64_t durable_height() const override;
  Stats stats() const override;

 private:
  mutable std::mutex mu_;
  std::unordered_map<Hash256, std::vector<std::uint8_t>> nodes_;
  Hash256 durable_root_;
  std::uint64_t durable_height_ = 0;
  mutable Stats stats_;
};

}  // namespace blockpilot::db

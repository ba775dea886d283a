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

#include <cstdint>
#include <iterator>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "db/status.hpp"
#include "types/address.hpp"

namespace blockpilot::db {

/// One node for NodeStore::put_batch.
struct NodeRecord {
  Hash256 hash;
  std::vector<std::uint8_t> encoding;
};

class NodeStore {
 public:
  virtual ~NodeStore() = default;

  /// Stores `encoding` under `hash`.  Idempotent: re-putting an existing
  /// hash is a no-op (content-addressing makes collisions impossible).
  virtual Status put(const Hash256& hash,
                     std::span<const std::uint8_t> encoding) = 0;

  /// put() of each node, in order.  Backends take their lock once for the
  /// batch, so persist lanes append without contending per node.  A batch
  /// in post-order (every node after its children) appends in post-order.
  virtual Status put_batch(std::span<const NodeRecord> nodes);

  /// Fetches the encoding stored under `hash` into `out`.
  /// kNotFound when absent; backends surface damage as kCorruptPage.
  virtual Status get(const Hash256& hash,
                     std::vector<std::uint8_t>& out) const = 0;

  /// Whether a node is already stored (used to prune persist walks at
  /// unchanged subtrees).
  virtual bool contains(const Hash256& hash) const = 0;

  /// contains() of up to 64 hashes at once (a node's children): bit i is
  /// set when hashes[i] is stored.  Backends answer under one lock.
  virtual std::uint64_t contains_mask(std::span<const Hash256> hashes) const;

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

  /// Shared by every persist walk (see WriteSession) and taken exclusively
  /// by a backend step that must not interleave with one; nullptr when the
  /// backend has none.
  virtual std::shared_mutex* writer_gate() { return nullptr; }
};

/// A persist walk's hold on a store: every trie-persist entry point opens
/// one for the whole walk, from its first contains() to its last put().
/// A walk prunes at nodes the store already holds, so a node it found
/// present must stay present until the parents that reference it are put;
/// PagedNodeStore's compaction swap waits for open sessions for exactly
/// that reason.  Opened once per walk, on the walk's calling thread, and
/// never nested: lanes of a parallel walk share their caller's session.
class WriteSession {
 public:
  explicit WriteSession(NodeStore& store) : store_(store) {
    if (std::shared_mutex* gate = store.writer_gate())
      hold_ = std::shared_lock(*gate);
  }

  NodeStore& store() const noexcept { return store_; }

 private:
  NodeStore& store_;
  std::shared_lock<std::shared_mutex> hold_;
};

/// A persist walk's pending puts, appended through put_batch in the order
/// they were put.  With the default threshold a walk appends every
/// kFlushAt nodes; a lane of a parallel walk defers every put, and its
/// caller appends the lane's batch to its own after the join, so lanes
/// only probe the store while they walk and never wait on each other's
/// appends.
class PutBatch {
 public:
  static constexpr std::size_t kFlushAt = 256;

  explicit PutBatch(WriteSession& session)
      : PutBatch(session.store(), kFlushAt) {}

  NodeStore& store() const noexcept { return store_; }

  /// An empty batch in the same session that appends only on flush().
  PutBatch deferred() const { return PutBatch(store_, SIZE_MAX); }

  Status put(const Hash256& hash, std::vector<std::uint8_t> encoding) {
    nodes_.push_back({hash, std::move(encoding)});
    return nodes_.size() >= flush_at_ ? flush() : Status::Ok();
  }

  /// Moves `lane`'s pending puts behind this batch's, in order.
  Status append(PutBatch&& lane) {
    nodes_.insert(nodes_.end(), std::make_move_iterator(lane.nodes_.begin()),
                  std::make_move_iterator(lane.nodes_.end()));
    lane.nodes_.clear();
    return nodes_.size() >= flush_at_ ? flush() : Status::Ok();
  }

  Status flush() {
    const Status st = store_.put_batch(nodes_);
    nodes_.clear();
    return st;
  }

 private:
  PutBatch(NodeStore& store, std::size_t flush_at)
      : store_(store), flush_at_(flush_at) {}

  NodeStore& store_;
  std::size_t flush_at_;
  std::vector<NodeRecord> nodes_;
};

/// The reference backend: a mutex-guarded map.  commit_root only records
/// the root (RAM is "durable" for the reference semantics the differentials
/// gate on).
class InMemoryNodeStore final : public NodeStore {
 public:
  Status put(const Hash256& hash,
             std::span<const std::uint8_t> encoding) override;
  Status put_batch(std::span<const NodeRecord> nodes) override;
  Status get(const Hash256& hash,
             std::vector<std::uint8_t>& out) const override;
  bool contains(const Hash256& hash) const override;
  std::uint64_t contains_mask(std::span<const Hash256> hashes) const override;
  Status commit_root(const Hash256& root, std::uint64_t height) override;
  Hash256 durable_root() const override;
  std::uint64_t durable_height() const override;
  Stats stats() const override;

 private:
  void put_locked(const Hash256& hash, std::span<const std::uint8_t> encoding);

  mutable std::mutex mu_;
  std::unordered_map<Hash256, std::vector<std::uint8_t>> nodes_;
  Hash256 durable_root_;
  std::uint64_t durable_height_ = 0;
  mutable Stats stats_;
};

}  // namespace blockpilot::db

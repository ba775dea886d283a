// NodeCache: a bounded read cache of MPT node encodings, keyed by hash.
//
// A trie reopened over a node store (MerklePatriciaTrie::from_root) starts
// as one unloaded stub and loads each node from the store the first time a
// traversal needs it.  Sibling blocks, replicas and restarts reopen the same
// nodes again and again, so every stub load reads through this cache: a hit
// skips the store, a miss fetches the record, checks that it hashes to the
// reference, and only then puts it here.  Node hashing itself does not go
// through the cache: each MptNode memoizes its own reference
// (MptNode::cached_ref), and a node that is built once is hashed once.
//
// Capacity is accounted in *bytes* (encoding length plus a fixed per-entry
// overhead), not entry counts, so a cache full of fat branch nodes and one
// full of slim leaves bound the same memory.  Eviction is CLOCK
// (second-chance): a hit sets the entry's reference bit; a put into a full
// shard steps the hand, evicting clear entries, and stops at the first set
// bit it meets, clearing it and leaving the new entry out.  With no re-use
// this is FIFO; when loads outrun the budget, re-used entries stay
// resident instead of being cycled out by one-shot loads.  Sharded by the
// hash bytes to keep concurrent loads from serializing on one mutex.
// Hit/miss/eviction/byte counters are exposed for benches and tests.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "types/address.hpp"

namespace blockpilot::trie {

class NodeCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;    // get() calls served from the cache
    std::uint64_t misses = 0;  // get() calls that found nothing
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;     // resident, per entry_bytes()
    std::size_t capacity = 0;  // byte budget across all shards
  };

  /// Default byte budget (~2^16 entries at typical node sizes).
  static constexpr std::size_t kDefaultCapacity = std::size_t{16} << 20;

  /// Fixed accounting overhead charged per entry on top of the encoding
  /// length: digest (32B) plus map/ring bookkeeping.
  static constexpr std::size_t kEntryOverhead = 96;

  /// Bytes one cached entry of the given encoding length is charged.
  static constexpr std::size_t entry_bytes(std::size_t encoding_size) noexcept {
    return encoding_size + kEntryOverhead;
  }

  explicit NodeCache(std::size_t capacity_bytes = kDefaultCapacity);

  /// The encoding of the node with hash `h`, if resident.  Every call counts
  /// one hit or one miss; a hit sets the entry's CLOCK reference bit.
  std::optional<std::vector<std::uint8_t>> get(const Hash256& h);

  /// Caches `encoding` under `h`, unless making room meets an entry used
  /// since the hand last passed it (see above).  The caller has verified
  /// that `encoding` hashes to `h`.  A capacity of 0 caches nothing; an
  /// encoding whose entry_bytes() alone exceeds a shard's budget is never
  /// cached.
  void put(const Hash256& h, std::span<const std::uint8_t> encoding);

  /// Aggregate statistics over all shards.
  Stats stats() const;

  /// Drops every entry (counters survive; see reset_stats).
  void clear();
  void reset_stats();

  /// Rebounds the byte budget; shrinking evicts by CLOCK sweep.  Capacity 0
  /// caches nothing.
  void set_capacity(std::size_t capacity_bytes);
  std::size_t capacity() const;

  /// The process-wide cache the trie layer's stub loads read through.
  static NodeCache& global();

 private:
  struct Entry {
    std::vector<std::uint8_t> encoding;
    bool referenced = false;  // CLOCK second-chance bit, set on hit
  };
  // Map nodes are pointer-stable across rehash, so the ring addresses
  // entries by node pointer.
  using MapNode = std::pair<const Hash256, Entry>;

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Hash256, Entry> entries;
    std::list<MapNode*> ring;            // CLOCK order; new entries join
    std::list<MapNode*>::iterator hand;  // behind the hand
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    Shard() : hand(ring.end()) {}
  };

  static constexpr std::size_t kShards = 8;

  /// Keccak output is uniform, so the first hash byte picks the shard.
  Shard& shard_for(const Hash256& h) { return shards_[h.bytes[0] % kShards]; }
  /// One CLOCK step at the hand: clears a set reference bit (returns
  /// false) or evicts an unreferenced entry (returns true).  Precondition:
  /// the ring is non-empty.
  static bool step_hand(Shard& s);

  std::array<Shard, kShards> shards_;
  std::atomic<std::size_t> shard_capacity_;  // byte budget per shard
};

}  // namespace blockpilot::trie

#include "trie/node_cache.hpp"

namespace blockpilot::trie {

NodeCache::NodeCache(std::size_t capacity_bytes)
    : shard_capacity_((capacity_bytes + kShards - 1) / kShards) {}

// One CLOCK step: a referenced entry under the hand gets its second chance
// (bit cleared, hand advances); an unreferenced one is evicted.
bool NodeCache::step_hand(Shard& s) {
  if (s.hand == s.ring.end()) s.hand = s.ring.begin();
  MapNode* node = *s.hand;
  if (node->second.referenced) {
    node->second.referenced = false;
    ++s.hand;
    return false;
  }
  s.bytes -= entry_bytes(node->second.encoding.size());
  s.hand = s.ring.erase(s.hand);
  s.entries.erase(s.entries.find(node->first));
  ++s.evictions;
  return true;
}

std::optional<std::vector<std::uint8_t>> NodeCache::get(const Hash256& h) {
  Shard& s = shard_for(h);
  std::scoped_lock lk(s.mu);
  const auto it = s.entries.find(h);
  if (it == s.entries.end()) {
    ++s.misses;
    return std::nullopt;
  }
  ++s.hits;
  it->second.referenced = true;  // second chance on the next sweep
  return it->second.encoding;
}

void NodeCache::put(const Hash256& h, std::span<const std::uint8_t> encoding) {
  const std::size_t cap = shard_capacity_.load(std::memory_order_relaxed);
  const std::size_t need = entry_bytes(encoding.size());
  if (need > cap) return;  // capacity 0, or a jumbo entry: never worth a shard
  Shard& s = shard_for(h);
  std::scoped_lock lk(s.mu);
  if (s.entries.contains(h)) return;
  // Stop at the first referenced entry rather than sweeping past it: loads
  // that outrun the budget (a cold traversal, a scan) must not cycle the
  // re-used entries out.
  while (s.bytes + need > cap && !s.ring.empty())
    if (!step_hand(s)) return;
  const auto slot =
      s.entries.emplace(h, Entry{{encoding.begin(), encoding.end()}, false})
          .first;
  // Insert just behind the hand: the new entry is the last the current
  // sweep cycle examines, so with no intervening hits the eviction order is
  // exactly insertion order (FIFO with second chances).
  s.ring.insert(s.hand, &*slot);
  s.bytes += need;
}

NodeCache::Stats NodeCache::stats() const {
  Stats out;
  out.capacity = capacity();
  for (const Shard& s : shards_) {
    std::scoped_lock lk(s.mu);
    out.hits += s.hits;
    out.misses += s.misses;
    out.evictions += s.evictions;
    out.entries += s.entries.size();
    out.bytes += s.bytes;
  }
  return out;
}

void NodeCache::clear() {
  for (Shard& s : shards_) {
    std::scoped_lock lk(s.mu);
    s.entries.clear();
    s.ring.clear();
    s.hand = s.ring.end();
    s.bytes = 0;
  }
}

void NodeCache::reset_stats() {
  for (Shard& s : shards_) {
    std::scoped_lock lk(s.mu);
    s.hits = s.misses = s.evictions = 0;
  }
}

void NodeCache::set_capacity(std::size_t capacity_bytes) {
  const std::size_t per_shard = (capacity_bytes + kShards - 1) / kShards;
  shard_capacity_.store(per_shard, std::memory_order_relaxed);
  for (Shard& s : shards_) {
    std::scoped_lock lk(s.mu);
    while (s.bytes > per_shard && !s.ring.empty()) step_hand(s);
  }
}

std::size_t NodeCache::capacity() const {
  return shard_capacity_.load(std::memory_order_relaxed) * kShards;
}

NodeCache& NodeCache::global() {
  static NodeCache cache;
  return cache;
}

}  // namespace blockpilot::trie

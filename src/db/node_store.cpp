#include "db/node_store.hpp"

#include "support/assert.hpp"

namespace blockpilot::db {

std::uint64_t NodeStore::contains_mask(std::span<const Hash256> hashes) const {
  BP_ASSERT(hashes.size() <= 64);
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < hashes.size(); ++i)
    if (contains(hashes[i])) mask |= std::uint64_t{1} << i;
  return mask;
}

Status NodeStore::put_batch(std::span<const NodeRecord> nodes) {
  for (const NodeRecord& n : nodes) {
    const Status st = put(n.hash, std::span(n.encoding));
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

void InMemoryNodeStore::put_locked(const Hash256& hash,
                                   std::span<const std::uint8_t> encoding) {
  const auto [it, inserted] = nodes_.try_emplace(
      hash, std::vector<std::uint8_t>(encoding.begin(), encoding.end()));
  if (!inserted) {
    ++stats_.dup_puts;
    return;
  }
  ++stats_.puts;
  ++stats_.nodes;
  stats_.node_bytes += encoding.size();
}

Status InMemoryNodeStore::put(const Hash256& hash,
                              std::span<const std::uint8_t> encoding) {
  std::scoped_lock lk(mu_);
  put_locked(hash, encoding);
  return Status::Ok();
}

Status InMemoryNodeStore::put_batch(std::span<const NodeRecord> nodes) {
  std::scoped_lock lk(mu_);
  for (const NodeRecord& n : nodes) put_locked(n.hash, std::span(n.encoding));
  return Status::Ok();
}

Status InMemoryNodeStore::get(const Hash256& hash,
                              std::vector<std::uint8_t>& out) const {
  std::scoped_lock lk(mu_);
  const auto it = nodes_.find(hash);
  if (it == nodes_.end()) {
    ++stats_.get_misses;
    return Status::error(ErrorCode::kNotFound, "node not in store");
  }
  ++stats_.gets;
  out = it->second;
  return Status::Ok();
}

bool InMemoryNodeStore::contains(const Hash256& hash) const {
  std::scoped_lock lk(mu_);
  return nodes_.contains(hash);
}

std::uint64_t InMemoryNodeStore::contains_mask(
    std::span<const Hash256> hashes) const {
  BP_ASSERT(hashes.size() <= 64);
  std::scoped_lock lk(mu_);
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < hashes.size(); ++i)
    if (nodes_.contains(hashes[i])) mask |= std::uint64_t{1} << i;
  return mask;
}

Status InMemoryNodeStore::commit_root(const Hash256& root,
                                      std::uint64_t height) {
  std::scoped_lock lk(mu_);
  durable_root_ = root;
  durable_height_ = height;
  ++stats_.roots_committed;
  return Status::Ok();
}

Hash256 InMemoryNodeStore::durable_root() const {
  std::scoped_lock lk(mu_);
  return durable_root_;
}

std::uint64_t InMemoryNodeStore::durable_height() const {
  std::scoped_lock lk(mu_);
  return durable_height_;
}

NodeStore::Stats InMemoryNodeStore::stats() const {
  std::scoped_lock lk(mu_);
  return stats_;
}

}  // namespace blockpilot::db

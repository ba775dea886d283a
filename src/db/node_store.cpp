#include "db/node_store.hpp"

namespace blockpilot::db {

Status InMemoryNodeStore::put(const Hash256& hash,
                              std::span<const std::uint8_t> encoding) {
  std::scoped_lock lk(mu_);
  const auto [it, inserted] = nodes_.try_emplace(
      hash, std::vector<std::uint8_t>(encoding.begin(), encoding.end()));
  if (!inserted) {
    ++stats_.dup_puts;
    return Status::Ok();
  }
  ++stats_.puts;
  ++stats_.nodes;
  stats_.node_bytes += encoding.size();
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

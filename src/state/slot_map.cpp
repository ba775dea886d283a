#include "state/slot_map.hpp"

#include <atomic>

namespace blockpilot::state {

U256 SlotMap::get(const U256& slot) const {
  if (shards_.empty()) return U256{};
  const Shard* shard = shards_[shard_of(slot)].get();
  if (shard == nullptr) return U256{};
  const auto it = shard->slots.find(slot);
  return it == shard->slots.end() ? U256{} : it->second;
}

std::size_t SlotMap::shard_of(const U256& slot) noexcept {
  // Fibonacci hashing: the top bits of the product depend on every bit of
  // the slot hash, so sequential slots and address-keyed slots both spread.
  static_assert(kShards == 64);
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(slot.hash()) * 0x9E3779B97F4A7C15ULL) >> 58);
}

std::uint64_t SlotMap::fresh_epoch() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

SlotMap::Shard& SlotMap::owned(std::shared_ptr<Shard>& shard,
                               std::uint64_t epoch) {
  if (shard == nullptr) {
    shard = std::make_shared<Shard>();
  } else if (shard->owner != epoch) {
    shard = std::make_shared<Shard>(*shard);
  } else {
    return *shard;
  }
  shard->owner = epoch;
  return *shard;
}

void SlotMap::set(const U256& slot, const U256& value, std::uint64_t epoch) {
  const std::size_t index = shard_of(slot);
  const Shard* current = shards_.empty() ? nullptr : shards_[index].get();
  const U256* stored = nullptr;
  if (current != nullptr) {
    const auto it = current->slots.find(slot);
    if (it != current->slots.end()) stored = &it->second;
  }
  const bool present = stored != nullptr;
  // No-op writes (erase an absent slot, rewrite the same value) clone
  // nothing and keep sharing the shard.
  if (value.is_zero()) {
    if (!present) return;
    if (current->slots.size() == 1) {
      shards_[index].reset();  // the shard's last slot: drop, don't clone
    } else {
      owned(shards_[index], epoch).slots.erase(slot);
    }
    if (--size_ == 0) shards_.clear();
    return;
  }
  if (present && *stored == value) return;
  if (shards_.empty()) shards_.resize(kShards);
  owned(shards_[index], epoch).slots.insert_or_assign(slot, value);
  if (!present) ++size_;
}

}  // namespace blockpilot::state

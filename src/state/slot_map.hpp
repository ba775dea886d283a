// CowMap: a hash map shared copy-on-write by shard, and SlotMap, the one
// instance that holds a contract's storage.
//
// Entries are spread over a fixed number of shards by key hash, each shard
// behind a shared_ptr.  Copying a CowMap shares every shard; a write clones
// only the shard it touches, and only the first time the writing state
// touches that shard after a copy.  WorldState keeps three of them: its
// account map, every contract's storage (SlotMap), and its commitment memo.
// A block that touches k accounts and s slots therefore pays for at most k
// account shards, k memo shards and s slot shards, not for whole maps.
// Shard counts are constants sized to the traffic they carry (see
// world_state.hpp): enough shards that a block's writes rarely share one,
// few enough that the shard table a copy duplicates stays small.
//
// Ownership is an epoch token, not shared_ptr::use_count(): that load is
// relaxed, so it would not order a sharer's reads (on another thread,
// before it dropped its reference) before our in-place write.  Each shard
// is stamped with the epoch of the state that created or cloned it, and a
// write goes in place only when the stamp equals the writing state's
// epoch.  One WorldState uses one epoch for all three maps, and draws a
// fresh one on both sides of every copy and on the source of every move,
// so after a copy no live state owns a shared shard.
//
// An empty map holds no shard table, so copying one costs nothing.  The
// write functions are private to WorldState; everything else reads.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "types/u256.hpp"

namespace blockpilot::state {

/// A process-unique copy-on-write ownership epoch (never zero).
inline std::uint64_t fresh_cow_epoch() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

template <class K, class V, std::size_t Shards>
class CowMap {
  static_assert(std::has_single_bit(Shards) && Shards >= 2);

 public:
  static constexpr std::size_t kShards = Shards;

  /// The stored value of `key`, or nullptr when absent.
  const V* find(const K& key) const {
    if (shards_.empty()) return nullptr;
    const Shard* shard = shards_[shard_of(key)].get();
    if (shard == nullptr) return nullptr;
    const auto it = shard->entries.find(key);
    return it == shard->entries.end() ? nullptr : &it->second;
  }

  bool contains(const K& key) const { return find(key) != nullptr; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Calls f(key, value) for every entry, in unspecified order.
  template <class F>
  void for_each(F&& f) const {
    for (const auto& shard : shards_)
      if (shard != nullptr)
        for (const auto& [key, value] : shard->entries) f(key, value);
  }

  /// Shard index of a key (exposed so tests can aim writes at one shard).
  /// Fibonacci hashing: the top bits of the product depend on every bit of
  /// the key hash, so sequential and address-derived keys both spread.
  static std::size_t shard_of(const K& key) noexcept {
    constexpr int kShift = 64 - std::countr_zero(Shards);
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(std::hash<K>{}(key)) *
         0x9E3779B97F4A7C15ULL) >>
        kShift);
  }

 private:
  friend class WorldState;

  struct Shard {
    std::uint64_t owner = 0;  // epoch of the state allowed to write in place
    std::unordered_map<K, V> entries;
  };

  /// The shard a write may mutate: `shard` itself when `epoch` owns it,
  /// else a fresh (empty or cloned) shard stamped with `epoch` replacing it.
  static Shard& owned(std::shared_ptr<Shard>& shard, std::uint64_t epoch) {
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

  /// The writable value of `key`, default-inserted when absent.
  V& mutate(const K& key, std::uint64_t epoch) {
    if (shards_.empty()) shards_.resize(kShards);
    auto [it, inserted] =
        owned(shards_[shard_of(key)], epoch).entries.try_emplace(key);
    if (inserted) ++size_;
    return it->second;
  }

  /// Stores `value` under `key`.  A write that changes nothing clones
  /// nothing and keeps sharing the shard.
  void set(const K& key, const V& value, std::uint64_t epoch) {
    if (const V* stored = find(key); stored != nullptr && *stored == value)
      return;
    mutate(key, epoch) = value;
  }

  /// Removes `key`; erasing an absent key clones nothing, and erasing a
  /// shard's last entry drops the shard instead of cloning it.
  void erase(const K& key, std::uint64_t epoch) {
    if (!contains(key)) return;
    std::shared_ptr<Shard>& shard = shards_[shard_of(key)];
    if (shard->entries.size() == 1) {
      shard.reset();
    } else {
      owned(shard, epoch).entries.erase(key);
    }
    if (--size_ == 0) shards_.clear();
  }

  // Empty until the first store, then kShards entries (null = no entries).
  std::vector<std::shared_ptr<Shard>> shards_;
  std::size_t size_ = 0;
};

/// One contract account's storage.  Zero values are never stored (an
/// absent slot reads zero, as in the EVM), so empty() is the O(1) "all
/// storage is zero" test.  256 shards: a token holds about 2 000 slots, so
/// a shard holds about 8 and a block's handful of writes to one token
/// clones a handful of small shards.
using SlotMap = CowMap<U256, U256, 256>;

/// Stored value of `slot`; zero when absent.
inline U256 slot_value(const SlotMap& storage, const U256& slot) {
  const U256* value = storage.find(slot);
  return value == nullptr ? U256{} : *value;
}

}  // namespace blockpilot::state

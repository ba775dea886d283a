// SlotMap: one contract account's storage, copy-on-write by shard.
//
// Slots are spread over kShards shards by slot hash, each shard behind a
// shared_ptr.  Copying a SlotMap (and so a WorldState) shares every shard;
// a write clones only the shard it touches, and only the first time the
// writing state touches that shard after a copy.  A block that writes k
// slots of a 2000-slot token therefore pays for at most k shards, not for
// the whole map.
//
// Ownership is an epoch token, not shared_ptr::use_count(): that load is
// relaxed, so it would not order a sharer's reads (on another thread,
// before it dropped its reference) before our in-place write.  Each shard
// is stamped with the epoch of the state that created or cloned it, and a
// write goes in place only when the stamp equals the writing state's
// epoch.  WorldState draws a fresh epoch on both sides of every copy and on
// the source of every move, so after a copy no live state owns a shared
// shard.
//
// Zero values are never stored (an absent slot reads zero, as in the EVM),
// so empty() is the O(1) "all storage is zero" test.  The one write
// function is private to WorldState; everything else reads.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "types/u256.hpp"

namespace blockpilot::state {

class SlotMap {
 public:
  static constexpr std::size_t kShards = 64;

  /// Stored value of `slot`; zero when absent.
  U256 get(const U256& slot) const;

  /// Number of (nonzero) slots stored.
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Calls f(slot, value) for every stored slot, in unspecified order.
  template <class F>
  void for_each(F&& f) const {
    for (const auto& shard : shards_)
      if (shard != nullptr)
        for (const auto& [slot, value] : shard->slots) f(slot, value);
  }

  /// Shard index of a slot (exposed so tests can aim writes at one shard).
  static std::size_t shard_of(const U256& slot) noexcept;

  /// A process-unique ownership epoch (never zero).
  static std::uint64_t fresh_epoch() noexcept;

 private:
  friend class WorldState;

  struct Shard {
    std::uint64_t owner = 0;  // epoch of the state allowed to write in place
    std::unordered_map<U256, U256> slots;
  };

  /// The shard a write may mutate: `shard` itself when `epoch` owns it,
  /// else a fresh (empty or cloned) shard stamped with `epoch` replacing it.
  static Shard& owned(std::shared_ptr<Shard>& shard, std::uint64_t epoch);

  /// The one write: stores `value` under `slot`, erasing it when `value` is
  /// zero.  Clones the slot's shard first unless `epoch` owns it; a write
  /// that changes nothing clones nothing.
  void set(const U256& slot, const U256& value, std::uint64_t epoch);

  // Empty until the first store, then kShards entries (null = no slots).
  std::vector<std::shared_ptr<Shard>> shards_;
  std::size_t size_ = 0;
};

}  // namespace blockpilot::state

#include "state/versioned_state.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <mutex>
#include <thread>

#include "support/assert.hpp"

namespace blockpilot::state {

VersionedState::VersionedState(const WorldState& base)
    : base_(base),
      stamps_(std::make_unique<std::atomic<std::uint64_t>[]>(kStampSlots)),
      packed_(std::make_unique<PackedSlot[]>(kPackedSlots)) {
  // value-initialized by make_unique: every stamp starts at 0 (= base only)
  // and every packed slot starts with seq 0 / version 0 — version 0 never
  // matches a published write (writes start at version 1), so an untouched
  // slot can never satisfy packed_read.
}

// -- packed single-version slots (layer 3) ----------------------------------

namespace {

inline std::array<std::uint64_t, 3> pack_address(const Address& a) noexcept {
  std::array<std::uint64_t, 3> w{};
  std::memcpy(w.data(), a.bytes.data(), a.bytes.size());  // 20 bytes
  return w;
}

}  // namespace

bool VersionedState::packed_read(const StateKey& key,
                                 std::uint64_t snapshot_version,
                                 U256& out) const {
  const PackedSlot& p = packed_for(key.hash);
  const std::uint64_t s1 = p.seq.load(std::memory_order_acquire);
  if (s1 == 0 || (s1 & 1)) return false;  // never published / mid-write
  const std::uint64_t a0 = p.addr[0].load(std::memory_order_relaxed);
  const std::uint64_t a1 = p.addr[1].load(std::memory_order_relaxed);
  const std::uint64_t a2 = p.addr[2].load(std::memory_order_relaxed);
  const std::uint64_t meta = p.meta.load(std::memory_order_relaxed);
  const std::uint64_t sl0 = p.slot[0].load(std::memory_order_relaxed);
  const std::uint64_t sl1 = p.slot[1].load(std::memory_order_relaxed);
  const std::uint64_t sl2 = p.slot[2].load(std::memory_order_relaxed);
  const std::uint64_t sl3 = p.slot[3].load(std::memory_order_relaxed);
  const std::uint64_t v0 = p.value[0].load(std::memory_order_relaxed);
  const std::uint64_t v1 = p.value[1].load(std::memory_order_relaxed);
  const std::uint64_t v2 = p.value[2].load(std::memory_order_relaxed);
  const std::uint64_t v3 = p.value[3].load(std::memory_order_relaxed);
  const std::uint64_t ver = p.version.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (p.seq.load(std::memory_order_relaxed) != s1) return false;  // torn
  // Exact key match (full key, never hash): field + address (+ slot for
  // storage keys, mirroring StateKey::operator==).
  if (meta != static_cast<std::uint64_t>(key.field)) return false;
  const std::array<std::uint64_t, 3> ka = pack_address(key.addr);
  if (a0 != ka[0] || a1 != ka[1] || a2 != ka[2]) return false;
  if (key.field == Field::kStorage &&
      (sl0 != key.slot.limb(0) || sl1 != key.slot.limb(1) ||
       sl2 != key.slot.limb(2) || sl3 != key.slot.limb(3)))
    return false;
  if (ver == 0 || ver > snapshot_version) return false;
  out = U256{v3, v2, v1, v0};  // ctor takes big-endian limb order
  return true;
}

void VersionedState::packed_publish(const StateKey& key, const U256& value,
                                    std::uint64_t version) {
  PackedSlot& p = packed_[(key.hash >> 6) & (kPackedSlots - 1)];
  // Odd before the payload, whatever the slot held: an invalidated slot is
  // already odd, and bumping it to even here would let readers accept the
  // dead key's payload mid-write.  Writers are serialized.
  const std::uint64_t s = p.seq.load(std::memory_order_relaxed) | 1;
  p.seq.store(s, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  const std::array<std::uint64_t, 3> ka = pack_address(key.addr);
  p.addr[0].store(ka[0], std::memory_order_relaxed);
  p.addr[1].store(ka[1], std::memory_order_relaxed);
  p.addr[2].store(ka[2], std::memory_order_relaxed);
  p.meta.store(static_cast<std::uint64_t>(key.field),
               std::memory_order_relaxed);
  for (std::size_t i = 0; i < 4; ++i) {
    p.slot[i].store(key.slot.limb(i), std::memory_order_relaxed);
    p.value[i].store(value.limb(i), std::memory_order_relaxed);
  }
  p.version.store(version, std::memory_order_relaxed);
  p.seq.store(s + 1, std::memory_order_release);  // even: readable
}

void VersionedState::packed_invalidate(const StateKey& key) {
  PackedSlot& p = packed_[(key.hash >> 6) & (kPackedSlots - 1)];
  const std::uint64_t s = p.seq.load(std::memory_order_relaxed);
  if (s == 0 || (s & 1)) return;  // nothing published
  // Writers are serialized, so reading the payload non-torn is safe; only
  // wipe if the slot actually holds this key (it may hold a slot sibling).
  const std::array<std::uint64_t, 3> ka = pack_address(key.addr);
  const bool holds =
      p.meta.load(std::memory_order_relaxed) ==
          static_cast<std::uint64_t>(key.field) &&
      p.addr[0].load(std::memory_order_relaxed) == ka[0] &&
      p.addr[1].load(std::memory_order_relaxed) == ka[1] &&
      p.addr[2].load(std::memory_order_relaxed) == ka[2] &&
      (key.field != Field::kStorage ||
       (p.slot[0].load(std::memory_order_relaxed) == key.slot.limb(0) &&
        p.slot[1].load(std::memory_order_relaxed) == key.slot.limb(1) &&
        p.slot[2].load(std::memory_order_relaxed) == key.slot.limb(2) &&
        p.slot[3].load(std::memory_order_relaxed) == key.slot.limb(3)));
  if (holds) p.seq.store(s + 1, std::memory_order_release);  // odd: dead
}

// -- reads ------------------------------------------------------------------

U256 VersionedState::read_at(const StateKey& key,
                             std::uint64_t snapshot_version) const {
  // Fast path 1: stamp 0 proves no version of this key (or any stamp-slot
  // sibling) has been published, and versions <= snapshot_version are always
  // fully published before the snapshot version became visible — so the
  // base value is exact.  Snapshot 0 never sees versions (they start at 1).
  if (snapshot_version == 0 ||
      stamp_for(key.hash).load(std::memory_order_acquire) == 0)
    return base_.get(key);

  // Fast path 2: single-version keys served straight from the packed slot.
  {
    U256 packed;
    if (packed_read(key, snapshot_version, packed)) return packed;
  }

  {
    const Stripe& s = stripe_for(key.hash);
    std::shared_lock lk(s.mu);
    const auto it = s.map.find(key);
    if (it != s.map.end()) {
      const Chain& chain = it->second;
      // Last entry with version <= snapshot_version.  Chains are short
      // (bounded by block size), so a reverse scan beats binary search
      // here.  Pending-queue entries are always above every extant
      // snapshot (see file comment), so the chain alone is exact.
      for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit) {
        if (rit->first <= snapshot_version) return rit->second;
      }
    }
  }
  return base_.get(key);
}

U256 VersionedState::read_at(const StateKey& key,
                             std::uint64_t snapshot_version,
                             ReadCache& cache) const {
  const auto [it, inserted] = cache.map_.try_emplace(key);
  if (!inserted && it->second.as_of <= snapshot_version &&
      stamp_for(key.hash).load(std::memory_order_acquire) <=
          it->second.as_of) {
    // No version in (as_of, snapshot_version] can exist: everything <=
    // snapshot_version is published, and the published upper bound says
    // nothing landed after as_of.  The cached value is the snapshot value.
    ++cache.hits;
    return it->second.value;
  }
  ++cache.misses;
  const U256 value = read_at(key, snapshot_version);
  it->second.value = value;
  it->second.as_of = snapshot_version;
  return value;
}

std::uint64_t VersionedState::latest_version_locked(
    const StateKey& key) const {
  const Stripe& s = stripe_for(key.hash);
  std::shared_lock lk(s.mu);
  std::uint64_t latest = 0;
  const auto it = s.map.find(key);
  if (it != s.map.end() && !it->second.empty())
    latest = it->second.back().first;
  // Enqueued-not-yet-applied writes are committed decisions: validation
  // must see them (the host-threads proposer validates under its commit
  // lock while earlier versions may still be draining).
  for (const PendingWrite& pw : s.pending) {
    if (pw.version > latest && pw.key == key) latest = pw.version;
  }
  return latest;
}

std::uint64_t VersionedState::latest_version(const StateKey& key) const {
  if (stamp_for(key.hash).load(std::memory_order_acquire) == 0) return 0;
  return latest_version_locked(key);
}

bool VersionedState::newer_than(const StateKey& key,
                                std::uint64_t snapshot_version) const {
  // The stamp upper-bounds the key's published latest version: a bound
  // <= snapshot rules staleness out without a lock.  Above the bound,
  // confirm against the exact chain — stamp slots are shared by hash, so a
  // hot sibling key must not abort this one.
  if (stamp_for(key.hash).load(std::memory_order_acquire) <= snapshot_version)
    return false;
  return latest_version_locked(key) > snapshot_version;
}

// -- commits ----------------------------------------------------------------

std::uint64_t VersionedState::enqueue_commit(
    const std::vector<std::pair<StateKey, U256>>& write_set,
    std::uint64_t version) {
  BP_ASSERT_MSG(version > enqueued_version_,
                "commit versions must be strictly increasing");
  enqueued_version_ = version;
  static_assert(kStripeCount <= 64);
  std::uint64_t stripes = 0;  // bitmask of touched stripes
  for (const auto& [key, value] : write_set) {
    stripes |= 1ull << (key.hash & (kStripeCount - 1));
    Stripe& s = stripe_for(key.hash);
    std::size_t prior_versions = 0;
    {
      std::unique_lock lk(s.mu);
      const auto it = s.map.find(key);
      if (it != s.map.end()) prior_versions = it->second.size();
      for (const PendingWrite& pw : s.pending) {
        if (pw.key == key) ++prior_versions;
      }
      s.pending.push_back(PendingWrite{key, value, version});
    }
    // Maintain the packed slot (enqueuers are serialized, so these are
    // single-writer): first version of a key -> publish it; second ->
    // the key is no longer single-version, kill the slot.
    if (prior_versions == 0) {
      packed_publish(key, value, version);
    } else if (prior_versions == 1) {
      packed_invalidate(key);
    }
    // Publish the pending entry before the stamp: a validator that
    // observes the raised stamp and takes the slow path must find it.
    stamp_for(key.hash).store(version, std::memory_order_release);
  }
  return stripes;
}

void VersionedState::apply_commit(std::uint64_t stripes,
                                  std::uint64_t version) {
  // Drain every touched stripe up to `version`.  Entries of EARLIER
  // versions still pending there are drained too (work stealing): pending
  // queues are version-ordered, so a forward scan preserves per-key chain
  // order, and a stripe is never drained past the version in hand.
  for (; stripes != 0; stripes &= stripes - 1) {
    Stripe& s = stripes_[std::countr_zero(stripes)];
    std::unique_lock lk(s.mu);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < s.pending.size(); ++i) {
      PendingWrite& pw = s.pending[i];
      if (pw.version <= version) {
        Chain& chain = s.map[pw.key];
        BP_ASSERT(chain.empty() || chain.back().first < pw.version);
        chain.emplace_back(pw.version, pw.value);
      } else {
        s.pending[kept++] = std::move(pw);
      }
    }
    s.pending.resize(kept);
  }
  // Ticket publication: versions become visible in order, so a snapshot
  // version acquired by a reader always covers fully-applied chains.
  std::uint64_t expected = version - 1;
  while (committed_version_.load(std::memory_order_acquire) != expected) {
    std::this_thread::yield();
  }
  committed_version_.store(version, std::memory_order_release);
}

void VersionedState::commit(
    const std::vector<std::pair<StateKey, U256>>& write_set,
    std::uint64_t version) {
  apply_commit(enqueue_commit(write_set, version), version);
}

void VersionedState::flatten_into(WorldState& out) const {
  for (const Stripe& s : stripes_) {
    std::shared_lock lk(s.mu);
    BP_ASSERT_MSG(s.pending.empty(),
                  "flatten_into with an unapplied commit in flight");
    for (const auto& [key, chain] : s.map) {
      BP_ASSERT(!chain.empty());
      out.set(key, chain.back().second);
    }
  }
}

// ---------------------------------------------------------------------------
// MvMemory

MvMemory::MvMemory(const WorldState& base, std::size_t num_txns)
    : base_(base), writes_(std::make_unique<TxnWrites[]>(num_txns)) {}

MvMemory::ReadResult MvMemory::read(const StateKey& key,
                                    std::uint32_t txn) const {
  const Stripe& s = stripe_for(key.hash);
  std::shared_lock lk(s.mu);
  const auto it = s.map.find(key);
  if (it != s.map.end()) {
    const WriterMap& writers = it->second;
    // Highest writer strictly below `txn` (preset-order semantics).
    auto wit = writers.lower_bound(txn);
    if (wit != writers.begin()) {
      --wit;
      ReadResult r;
      r.kind = wit->second.estimate ? ReadKind::kEstimate : ReadKind::kOk;
      r.value = wit->second.value;
      r.version = Version{wit->first, wit->second.incarnation};
      return r;
    }
  }
  ReadResult r;
  r.kind = ReadKind::kBase;
  r.value = base_.get(key);
  return r;
}

void MvMemory::seed_estimates(
    std::uint32_t txn, const std::vector<std::pair<StateKey, U256>>& writes) {
  TxnWrites& tw = writes_[txn];
  std::scoped_lock tlk(tw.mu);
  BP_ASSERT_MSG(tw.keys.empty(), "seed_estimates after execution started");
  for (const auto& [key, value] : writes) {
    Stripe& s = stripe_for(key.hash);
    std::unique_lock lk(s.mu);
    Entry& e = s.map[key][txn];
    e.incarnation = 0;
    e.estimate = true;
    e.value = value;
  }
  // Registering the seeds as incarnation 0's write set is what makes the
  // first real record() clean them up (see header comment).
  tw.keys.reserve(writes.size());
  for (const auto& [key, value] : writes) tw.keys.push_back(key);
}

bool MvMemory::record(std::uint32_t txn, std::uint32_t incarnation,
                      const std::vector<std::pair<StateKey, U256>>& writes) {
  TxnWrites& tw = writes_[txn];
  std::scoped_lock tlk(tw.mu);
  bool wrote_new = false;
  // Install / overwrite this incarnation's entries.
  for (const auto& [key, value] : writes) {
    Stripe& s = stripe_for(key.hash);
    std::unique_lock lk(s.mu);
    Entry& e = s.map[key][txn];
    e.incarnation = incarnation;
    e.estimate = false;
    e.value = value;
  }
  // Remove keys the previous incarnation wrote but this one did not
  // (write-set shrink: leaving them would feed higher transactions values
  // from a dead incarnation).
  for (const StateKey& old_key : tw.keys) {
    const bool still_written =
        std::any_of(writes.begin(), writes.end(),
                    [&](const auto& kv) { return kv.first == old_key; });
    if (still_written) continue;
    Stripe& s = stripe_for(old_key.hash);
    std::unique_lock lk(s.mu);
    const auto it = s.map.find(old_key);
    if (it != s.map.end()) {
      it->second.erase(txn);
      if (it->second.empty()) s.map.erase(it);
    }
  }
  // Diff against the previous incarnation's write set for the validation
  // wave trigger.
  for (const auto& [key, value] : writes) {
    const bool previously_written =
        std::any_of(tw.keys.begin(), tw.keys.end(),
                    [&](const StateKey& k) { return k == key; });
    if (!previously_written) {
      wrote_new = true;
      break;
    }
  }
  tw.keys.clear();
  tw.keys.reserve(writes.size());
  for (const auto& [key, value] : writes) tw.keys.push_back(key);
  return wrote_new;
}

void MvMemory::convert_to_estimates(std::uint32_t txn) {
  TxnWrites& tw = writes_[txn];
  std::scoped_lock tlk(tw.mu);
  for (const StateKey& key : tw.keys) {
    Stripe& s = stripe_for(key.hash);
    std::unique_lock lk(s.mu);
    const auto it = s.map.find(key);
    if (it == s.map.end()) continue;
    const auto wit = it->second.find(txn);
    if (wit != it->second.end()) wit->second.estimate = true;
  }
}

void MvMemory::flatten_into(WorldState& out) const {
  for (const Stripe& s : stripes_) {
    std::shared_lock lk(s.mu);
    for (const auto& [key, writers] : s.map) {
      BP_ASSERT(!writers.empty());
      const Entry& last = writers.rbegin()->second;
      BP_ASSERT_MSG(!last.estimate, "flatten_into with surviving ESTIMATE");
      out.set(key, last.value);
    }
  }
}

// ---------------------------------------------------------------------------
// MvView

U256 MvView::read(const StateKey& key) const {
  const auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;  // repeatable reads
  const MvMemory::ReadResult r = mv_.read(key, txn_);
  if (r.kind == MvMemory::ReadKind::kEstimate && !blocked_) {
    blocked_ = true;
    blocking_ = r.version.txn;
  }
  log_.push_back(LogEntry{key, r.kind == MvMemory::ReadKind::kBase
                                   ? MvMemory::Version{}
                                   : r.version});
  memo_.emplace(key, r.value);
  return r.value;
}

}  // namespace blockpilot::state

// VersionedState: the multi-version store at the heart of OCC-WSI
// (paper Algorithm 1) — and, below it, MvMemory: the Block-STM
// multi-version memory the second proposer engine speculates through.
//
// Committed state is the genesis/base WorldState (version 0) plus an
// append-only list of per-key versions.  Each transaction the proposer
// commits is assigned version = its block position + 1 and its write set is
// applied at that version.  A snapshot view at version v observes, for each
// key, the value of the largest committed version <= v.
//
// The paper's "reserve table" (Table[key] -> version) is exactly the
// latest-version index of this store, so no separate table is kept — one
// source of truth for both snapshot reads and conflict validation.
//
// Concurrency (the Fig. 6 hot path): many executor threads read snapshots
// while the (serialized) commit section appends versions.  Four layers keep
// readers off shared cache lines:
//
//  1. the version chains are sharded by StateKey hash into kStripeCount
//     stripes, each with its own shared_mutex, so concurrent readers of
//     unrelated keys never contend on one lock word;
//  2. a fixed-size table of atomic version stamps (the materialized reserve
//     table) upper-bounds each key's latest committed version.  Stamp slots
//     are shared by hash, which only ever *raises* the bound — so a stamp of
//     0 proves the key was never written (read base state, no lock), and a
//     stamp <= snapshot proves a read set entry cannot be stale (validate,
//     no lock).  Both fast paths are exact, never heuristic: a too-high
//     bound just falls back to the locked stripe lookup;
//  3. value-in-slot packing: a key whose entire committed history is ONE
//     version also has that (key, version, value) seqlocked into a packed
//     slot table, so snapshot reads of single-version keys — most written
//     keys in a typical block — are served lock-free without touching the
//     stripe.  The slot stores the full key (exact match, never by hash)
//     and is invalidated the moment the key gains a second version.
//     Seqlock parity invariant: seq is odd whenever the payload is not a
//     live single-version key — mid-write or invalidated ("dead") — and
//     even only after a complete publish.  A publish into a dead slot
//     therefore keeps seq odd while it rewrites the payload;
//  4. ReadCache memoizes snapshot reads per executor thread, revalidated
//     against the stamps, so re-executions of aborted transactions skip the
//     stripe locks for every key whose stamp did not advance.
//
// Commit is split into two halves so real-thread proposer lanes can
// overlap the heavy part (paper §4.2's serialized commit section shrinks to
// the decision).  The OCC-WSI engine uses the split on both clocks:
//
//  * enqueue_commit(ws, v) — called under the proposer's commit lock —
//    appends the writes to their stripes' pending queues, maintains the
//    packed slots, and raises the stamps; it returns the touched stripes;
//  * apply_commit(stripes, v) — called OUTSIDE the lock — drains those
//    stripes' pending queues up to v into the version chains (stealing
//    earlier versions' stragglers, which preserves per-key version order),
//    then ticket-waits for version v-1 and release-publishes v.  Disjoint
//    write sets drain disjoint stripes concurrently.
//
// commit(ws, v) = enqueue + apply inline, for single-threaded callers.
//
// Publication order makes the lock-free fast paths sound: a write is
// appended to its stripe (pending queue, later chain) under the stripe
// lock, then its packed slot is updated, then its stamp release-stored; all
// of a version's writes are chain-resident before committed_version_
// release-stores that version.  A reader's snapshot version comes from an
// acquire-load of committed_version_, so every chain entry, packed slot and
// stamp covering a version <= its snapshot is already visible to it — and
// entries still in a pending queue are, by construction, for versions
// above every extant snapshot, so read_at never needs to look there.
// Validation (newer_than / latest_version) DOES scan the pending queue:
// an enqueued-not-yet-applied conflict is a real conflict.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "state/read_view.hpp"
#include "state/state_key.hpp"
#include "state/world_state.hpp"

namespace blockpilot::state {

/// Per-executor-thread memo of snapshot reads (value + the snapshot version
/// it was read at), revalidated against the store's version stamps.  Not
/// thread-safe: one cache per executor thread.
class ReadCache {
 public:
  void clear() { map_.clear(); }
  std::size_t size() const noexcept { return map_.size(); }

  std::uint64_t hits = 0;    // reads served without touching a stripe lock
  std::uint64_t misses = 0;  // reads that fell through to the store

 private:
  friend class VersionedState;
  struct Entry {
    U256 value;
    std::uint64_t as_of = 0;  // snapshot version the value was read at
  };
  std::unordered_map<StateKey, Entry> map_;
};

class VersionedState {
 public:
  /// Wraps a base state as version 0.  The base must outlive this object
  /// and is not mutated.
  explicit VersionedState(const WorldState& base);

  /// Value of `key` visible to a snapshot taken at `snapshot_version`.
  U256 read_at(const StateKey& key, std::uint64_t snapshot_version) const;

  /// As read_at, memoizing through `cache`: a cached value whose stamp has
  /// not advanced past its fill version is returned without touching any
  /// stripe lock.  Exact — cached hits equal what read_at would return.
  U256 read_at(const StateKey& key, std::uint64_t snapshot_version,
               ReadCache& cache) const;

  /// Version of the latest committed write to `key` (0 = base only).
  /// This is Algorithm 1's Table[rec].  Counts enqueued-not-yet-applied
  /// writes (they are committed decisions).
  std::uint64_t latest_version(const StateKey& key) const;

  /// True iff `key` has a committed version > snapshot_version — the WSI
  /// staleness test.  Lock-free whenever the key's stamp rules it out
  /// (the common case: most read sets validate clean).  Exact under the
  /// proposer's contract that validation runs inside the serialized commit
  /// section (no commit concurrently in flight); a racing commit may be
  /// missed until its stamp publishes.
  bool newer_than(const StateKey& key, std::uint64_t snapshot_version) const;

  /// Applies a transaction's write set at `version`: enqueue + apply
  /// inline.  Versions must be committed in strictly increasing order; the
  /// proposer's commit section serializes callers.
  void commit(const std::vector<std::pair<StateKey, U256>>& write_set,
              std::uint64_t version);

  /// First half of a split commit (see file comment).  Callers must be
  /// serialized (the proposer's commit lock) and versions strictly
  /// increasing.  After it returns, the version is decided: newer_than and
  /// latest_version observe it.  Returns the touched stripes (a bitmask)
  /// for apply_commit, so the caller may hand the write set on.
  std::uint64_t enqueue_commit(
      const std::vector<std::pair<StateKey, U256>>& write_set,
      std::uint64_t version);

  /// Second half: drains `stripes` and publishes `version`.  Safe to run
  /// concurrently with other versions' apply_commit calls and with
  /// snapshot readers; blocks until version-1 is published.  Must be
  /// called exactly once per enqueue_commit, with its result.
  void apply_commit(std::uint64_t stripes, std::uint64_t version);

  /// Highest committed version (0 before the first commit).  Lock-free.
  std::uint64_t committed_version() const noexcept {
    return committed_version_.load(std::memory_order_acquire);
  }

  /// Materializes base + all committed versions into `out` (used to derive
  /// the post-block world state whose root goes into the block header).
  /// Every enqueued commit must have been applied.
  void flatten_into(WorldState& out) const;

  const WorldState& base() const noexcept { return base_; }

  static constexpr std::size_t kStripeCount = 64;       // power of two
  static constexpr std::size_t kStampSlots = 1 << 14;   // power of two
  static constexpr std::size_t kPackedSlots = 1 << 12;  // power of two

 private:
  // Per-key version chain, ascending by version (append-only).
  using Chain = std::vector<std::pair<std::uint64_t, U256>>;

  struct PendingWrite {
    StateKey key;
    U256 value;
    std::uint64_t version;
  };

  /// One shard of the version-chain map.  Cache-line aligned so reader
  /// threads spinning on neighbouring stripes don't false-share lock words.
  struct alignas(64) Stripe {
    mutable std::shared_mutex mu;
    std::unordered_map<StateKey, Chain> map;
    /// Enqueued-not-yet-applied writes, in version order (enqueuers are
    /// serialized).  Always empty outside a split commit window.
    std::vector<PendingWrite> pending;
  };

  /// Seqlocked single-version-key slot (packing layer 3).  All payload
  /// words are relaxed atomics so the torn-read window is race-free under
  /// TSan; the seq acquire/release pair orders them.  A slot is readable
  /// when seq is even and unchanged across the payload copy (the parity
  /// invariant in the file comment).
  struct alignas(64) PackedSlot {
    std::atomic<std::uint64_t> seq{0};
    // addr[0..2]: 20 address bytes little-packed; meta: Field tag;
    // slot[0..3]: storage slot limbs; value[0..3]; version.
    std::atomic<std::uint64_t> addr[3];
    std::atomic<std::uint64_t> meta;
    std::atomic<std::uint64_t> slot[4];
    std::atomic<std::uint64_t> value[4];
    std::atomic<std::uint64_t> version;
  };

  Stripe& stripe_for(std::size_t hash) const noexcept {
    return stripes_[hash & (kStripeCount - 1)];
  }
  std::atomic<std::uint64_t>& stamp_for(std::size_t hash) const noexcept {
    // Distinct bit range from the stripe index so stripe siblings don't
    // also collide on one stamp slot.
    return stamps_[(hash >> 6) & (kStampSlots - 1)];
  }
  PackedSlot& packed_for(std::size_t hash) const noexcept {
    return packed_[(hash >> 6) & (kPackedSlots - 1)];
  }

  /// Packed-slot fast read: true (and fills `out`) iff the slot coherently
  /// holds `key` at a version <= snapshot_version.
  bool packed_read(const StateKey& key, std::uint64_t snapshot_version,
                   U256& out) const;
  /// Publishes (key, value, version) into the key's packed slot: seq goes
  /// odd (s | 1) before the payload and to the next even value after it.
  /// Caller = the serialized enqueue path (single writer).
  void packed_publish(const StateKey& key, const U256& value,
                      std::uint64_t version);
  /// Invalidates the key's packed slot if it currently holds `key` (the
  /// key just gained a second version).  Serialized like packed_publish.
  void packed_invalidate(const StateKey& key);

  /// Exact latest version of `key` under the stripe lock (chain + pending).
  std::uint64_t latest_version_locked(const StateKey& key) const;

  const WorldState& base_;
  mutable std::array<Stripe, kStripeCount> stripes_;
  // The materialized reserve table: per-slot upper bound on the latest
  // committed version of every key hashing there.  Heap-allocated (128 KiB)
  // to keep VersionedState movable-sized; zero-initialized.
  std::unique_ptr<std::atomic<std::uint64_t>[]> stamps_;
  std::unique_ptr<PackedSlot[]> packed_;
  std::atomic<std::uint64_t> committed_version_{0};
  std::uint64_t enqueued_version_ = 0;  // guarded by enqueue serialization
};

/// ReadView of a VersionedState frozen at one snapshot version; what an
/// OCC-WSI executor thread hands to the EVM.  With a per-thread ReadCache
/// attached, repeated reads (and re-executions after aborts) bypass the
/// stripe locks whenever the version stamps prove the cached value current.
class SnapshotView final : public ReadView {
 public:
  SnapshotView(const VersionedState& vs, std::uint64_t version,
               ReadCache* cache = nullptr) noexcept
      : vs_(vs), version_(version), cache_(cache) {}

  U256 read(const StateKey& key) const override {
    return cache_ ? vs_.read_at(key, version_, *cache_)
                  : vs_.read_at(key, version_);
  }
  std::shared_ptr<const Bytes> code(const Address& addr) const override {
    return vs_.base().code(addr);
  }
  Hash256 code_hash(const Address& addr) const override {
    return vs_.base().code_hash(addr);
  }

  std::uint64_t version() const noexcept { return version_; }

 private:
  const VersionedState& vs_;
  std::uint64_t version_;
  ReadCache* cache_;
};

// ---------------------------------------------------------------------------
// MvMemory: Block-STM's multi-version memory (docs/blockstm.md).
//
// Where VersionedState versions keys by *commit order decided at runtime*,
// MvMemory versions them by the block's PRESET transaction order: an entry
// is (txn index, incarnation, value), and a read by transaction i returns
// the entry of the highest transaction index BELOW i — the value i would
// observe if the block ran serially in preset order, assuming the writer's
// current incarnation survives.
//
// When an incarnation is aborted, its writes are not removed (a removal
// would let higher transactions silently read older data and thrash);
// they are marked ESTIMATE — "transaction t will probably write this key
// again".  A reader that hits an ESTIMATE reports the blocking transaction
// so the scheduler can suspend it instead of speculating on data known to
// be dirty; the (stale) value is still returned so execution can complete
// structurally — the result is discarded.
//
// record() installs an incarnation's write set and removes the keys its
// previous incarnation wrote but this one did not (the write-set-shrink
// case), reporting whether any NEW location was written — the trigger for
// the scheduler's validation wave.

class MvMemory {
 public:
  struct Version {
    static constexpr std::uint32_t kBase = 0xFFFFFFFFu;  // pre-block state
    std::uint32_t txn = kBase;
    std::uint32_t incarnation = 0;

    friend bool operator==(const Version&, const Version&) = default;
  };

  enum class ReadKind : std::uint8_t {
    kOk = 0,    // value written by version
    kBase,      // no lower writer: pre-block state
    kEstimate,  // aborted lower writer's footprint: suspend on version.txn
  };

  struct ReadResult {
    ReadKind kind = ReadKind::kBase;
    U256 value;
    Version version;  // writer (kOk/kEstimate); kBase otherwise
  };

  /// `num_txns` = block size (preset order indices 0..num_txns-1).  The
  /// base must outlive this object and is not mutated.
  MvMemory(const WorldState& base, std::size_t num_txns);

  /// Value `txn` observes for `key`: highest writer with index < txn.
  ReadResult read(const StateKey& key, std::uint32_t txn) const;

  /// Pre-populates `txn`'s footprint with ESTIMATE markers before any
  /// incarnation runs — the validator-replay fast path: the block profile
  /// broadcasts each transaction's write set, so seeding it makes higher
  /// transactions SUSPEND on their true dependencies from the first
  /// incarnation instead of speculating, aborting, and re-executing.  The
  /// seeds register as incarnation 0's write set, so the first real
  /// record() replaces them exactly like a re-incarnation would: keys the
  /// replay actually writes flip to real entries, stale seeded keys are
  /// erased via the write-set-shrink path, and an unseeded actual write
  /// reports wrote_new (triggering the validation wave).  A stale seed can
  /// therefore only cost extra suspensions/waves, never corrupt a result.
  /// Must be called before `txn` executes (asserts no prior write set).
  void seed_estimates(std::uint32_t txn,
                      const std::vector<std::pair<StateKey, U256>>& writes);

  /// Installs incarnation `incarnation` of `txn`'s write set, replacing the
  /// previous incarnation's entries (and deleting the ones no longer
  /// written).  Returns true iff a key not written by the previous
  /// incarnation was written now.
  bool record(std::uint32_t txn, std::uint32_t incarnation,
              const std::vector<std::pair<StateKey, U256>>& writes);

  /// Marks every entry of `txn`'s latest incarnation ESTIMATE (abort path).
  void convert_to_estimates(std::uint32_t txn);

  /// Materializes base + every surviving write into `out`.  Must not run
  /// while writers are active; asserts no ESTIMATE survives (all
  /// transactions executed + validated).
  void flatten_into(WorldState& out) const;

  const WorldState& base() const noexcept { return base_; }

  static constexpr std::size_t kStripeCount = 64;  // power of two

 private:
  struct Entry {
    std::uint32_t incarnation = 0;
    bool estimate = false;
    U256 value;
  };
  // Per-key: writers ordered by transaction index (std::map: read needs
  // "highest index < txn" = upper_bound - 1).
  using WriterMap = std::map<std::uint32_t, Entry>;

  struct alignas(64) Stripe {
    mutable std::shared_mutex mu;
    std::unordered_map<StateKey, WriterMap> map;
  };

  /// Per-transaction bookkeeping for write-set diffing across incarnations.
  struct alignas(64) TxnWrites {
    std::mutex mu;
    std::vector<StateKey> keys;  // keys written by the latest incarnation
  };

  Stripe& stripe_for(std::size_t hash) const noexcept {
    return stripes_[hash & (kStripeCount - 1)];
  }

  const WorldState& base_;
  mutable std::array<Stripe, kStripeCount> stripes_;
  std::unique_ptr<TxnWrites[]> writes_;
};

/// ReadView a Block-STM incarnation executes through: reads resolve via
/// MvMemory at the view's transaction index, every base-level read is
/// logged with the exact version observed (the validation read set), and
/// the first ESTIMATE hit records the blocking transaction.  Reads are
/// memoized per incarnation — repeatable reads, so one incarnation's
/// execution is internally consistent even while lower transactions
/// re-execute underneath it.  Not thread-safe: one view per worker.
class MvView final : public ReadView {
 public:
  struct LogEntry {
    StateKey key;
    MvMemory::Version version;  // kBase txn == base-state read
  };

  explicit MvView(const MvMemory& mv) noexcept : mv_(mv) {}

  /// Re-arms the view for (txn, next incarnation): clears the memo, the
  /// read log and the blocked marker.
  void begin(std::uint32_t txn) {
    txn_ = txn;
    memo_.clear();
    log_.clear();
    blocked_ = false;
    blocking_ = 0;
  }

  U256 read(const StateKey& key) const override;

  std::shared_ptr<const Bytes> code(const Address& addr) const override {
    return mv_.base().code(addr);
  }
  Hash256 code_hash(const Address& addr) const override {
    return mv_.base().code_hash(addr);
  }

  /// Ordered log of (key, version observed) — one entry per first read.
  const std::vector<LogEntry>& read_log() const noexcept { return log_; }

  /// True iff any read hit an ESTIMATE (execution result must be
  /// discarded; suspend on blocking_txn()).
  bool blocked() const noexcept { return blocked_; }
  std::uint32_t blocking_txn() const noexcept { return blocking_; }

 private:
  const MvMemory& mv_;
  std::uint32_t txn_ = 0;
  mutable std::unordered_map<StateKey, U256> memo_;
  mutable std::vector<LogEntry> log_;
  mutable bool blocked_ = false;
  mutable std::uint32_t blocking_ = 0;
};

}  // namespace blockpilot::state

// MvMemory: the multi-version memory both proposer engines execute
// through (and the Block-STM validator replays through).
//
// Entries are keyed by block position: an entry is (txn index,
// incarnation, value), and a read by transaction i returns the entry of the
// highest transaction index BELOW i.  The two engine families decide those
// positions differently:
//
//  * Block-STM (docs/blockstm.md) pins the block's PRESET transaction
//    order: a read by transaction i is the value i would observe if the
//    block ran serially in preset order, assuming the writer's current
//    incarnation survives.
//  * OCC-WSI (paper Algorithm 1, docs/ALGORITHMS.md) assigns positions at
//    commit time, in commit order: the transaction committed as version v
//    records its write set at position v - 1, so a snapshot at version s
//    ("the largest committed version <= s" per key) is a read at index s,
//    and the reserve-table check Table[key] > s is written_from(key, s).
//
// When a Block-STM incarnation is aborted, its writes are not removed (a
// removal would let higher transactions silently read older data and
// thrash); they are marked ESTIMATE — "transaction t will probably write
// this key again".  A reader that hits an ESTIMATE reports the blocking
// transaction so the scheduler can suspend it instead of speculating on
// data known to be dirty; the (stale) value is still returned so execution
// can complete structurally — the result is discarded.  OCC-WSI records
// each position once and never marks estimates.
//
// record() installs an incarnation's write set and removes the keys its
// previous incarnation wrote but this one did not (the write-set-shrink
// case), reporting whether any NEW location was written — the trigger for
// the scheduler's validation wave.
//
// Entries live in kStripeCount stripes sharded by StateKey hash, each with
// its own shared_mutex, so concurrent readers of unrelated keys never
// contend on one lock word.
#pragma once

#include <array>
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

  /// True iff some writer of `key` has index >= txn: the OCC-WSI
  /// staleness test for a read made at index `txn` (Algorithm 1's
  /// Table[key] > snapshot).  Exact when no record() runs concurrently
  /// (the proposer calls it under its commit lock).
  bool written_from(const StateKey& key, std::uint32_t txn) const;

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
  std::size_t num_txns_;
  std::unique_ptr<TxnWrites[]> writes_;
};

/// ReadView a Block-STM incarnation (or an OCC-WSI attempt, begun at its
/// snapshot) executes through: reads resolve via MvMemory at the view's
/// transaction index, every base-level read is logged with the exact
/// version observed (the validation read set), and the first ESTIMATE hit
/// records the blocking transaction.  Reads are memoized per incarnation —
/// repeatable reads, so one incarnation's execution is internally
/// consistent even while lower transactions re-execute underneath it.  Not
/// thread-safe: one view per worker.
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

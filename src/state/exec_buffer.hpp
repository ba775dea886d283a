// ExecBuffer: a transaction's private write buffer over a ReadView, with
// read/write-set tracking and nested checkpoints.
//
// Both execution contexts use it:
//  * the OCC-WSI proposer executes each transaction into an ExecBuffer over
//    an MvView at its snapshot; the recorded read set drives WSI validation
//    and the write set is what the commit records (paper Algorithm 1's
//    rs & ws);
//  * the validator executes each transaction into an ExecBuffer over the
//    pending block overlay; the recorded sets are checked against the
//    proposer's block profile (paper Algorithm 2 / §4.4).
//
// Checkpoints implement EVM call-frame semantics: a reverting inner call
// undoes its writes but the gas it consumed stands.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "state/read_view.hpp"
#include "state/state_key.hpp"

namespace blockpilot::state {

class ExecBuffer final : public ReadView {
 public:
  /// A default-constructed buffer has no base view: rebase() before use.
  ExecBuffer() noexcept = default;
  explicit ExecBuffer(const ReadView& base) noexcept : base_(&base) {}

  /// Discards all buffered state and reseats the base view.  The backing
  /// allocations (read/write tables, journal) are retained, so one buffer
  /// can be recycled across transactions — and across re-executions of
  /// aborted transactions — without reallocating per attempt.
  void rebase(const ReadView& base) noexcept {
    reset();
    base_ = &base;
  }

  /// Read-through: buffered write if present, else base; every base read is
  /// recorded in the read set (reads of own writes are not conflicts —
  /// WSI validates only values observed from the snapshot).
  U256 read(const StateKey& key) const override;

  std::shared_ptr<const Bytes> code(const Address& addr) const override {
    return base_->code(addr);
  }

  Hash256 code_hash(const Address& addr) const override {
    return base_->code_hash(addr);
  }

  /// Buffers a write (journaled for checkpoint rollback).
  void write(const StateKey& key, const U256& value);

  // -- call-frame checkpoints --
  /// Opens a checkpoint; returns a token for revert_to().
  std::size_t checkpoint() const noexcept { return journal_.size(); }
  /// Rolls the buffer back to a checkpoint (reverting inner-frame writes).
  /// Read sets are NOT rolled back: a reverted frame still observed those
  /// values, so they remain conflict-relevant.
  void revert_to(std::size_t token);

  // -- recorded effects --
  /// Keys read from the base view (not satisfied by own writes), with the
  /// value first observed.  WSI validation needs only the keys; the
  /// two-phase OCC baseline validates by value.
  const std::unordered_map<StateKey, U256>& read_set() const noexcept {
    return reads_;
  }

  /// Read keys in deterministic (state_key_less) order.
  std::vector<StateKey> sorted_read_keys() const;
  /// As sorted_read_keys, reusing `out`'s capacity (hot-path variant).
  void sorted_read_keys_into(std::vector<StateKey>& out) const;
  /// Final buffered writes, in deterministic (key-sorted) order so that
  /// profiles and commits are bit-stable across runs.
  std::vector<std::pair<StateKey, U256>> write_set() const;
  /// As write_set, reusing `out`'s capacity (hot-path variant).
  void write_set_into(std::vector<std::pair<StateKey, U256>>& out) const;

  /// Discards all buffered state (abort path: transaction returns to pool).
  void reset();

 private:
  struct JournalEntry {
    StateKey key;
    bool had_prior;
    U256 prior;
  };

  const ReadView* base_ = nullptr;
  mutable std::unordered_map<StateKey, U256> reads_;
  std::unordered_map<StateKey, U256> writes_;
  std::vector<JournalEntry> journal_;
};

}  // namespace blockpilot::state

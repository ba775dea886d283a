#include "state/versioned_state.hpp"

#include <algorithm>
#include <mutex>

#include "support/assert.hpp"

namespace blockpilot::state {

// ---------------------------------------------------------------------------
// MvMemory

MvMemory::MvMemory(const WorldState& base, std::size_t num_txns)
    : base_(base),
      num_txns_(num_txns),
      writes_(std::make_unique<TxnWrites[]>(num_txns)) {}

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

bool MvMemory::written_from(const StateKey& key, std::uint32_t txn) const {
  const Stripe& s = stripe_for(key.hash);
  std::shared_lock lk(s.mu);
  const auto it = s.map.find(key);
  return it != s.map.end() && it->second.lower_bound(txn) != it->second.end();
}

void MvMemory::seed_estimates(
    std::uint32_t txn, const std::vector<std::pair<StateKey, U256>>& writes) {
  BP_ASSERT(txn < num_txns_);
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
  BP_ASSERT(txn < num_txns_);
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
  BP_ASSERT(txn < num_txns_);
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

#include "state/world_state.hpp"

#include <algorithm>

#include "crypto/keccak.hpp"
#include "db/node_store.hpp"
#include "rlp/rlp.hpp"
#include "support/assert.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace blockpilot::state {

std::string StateKey::to_string() const {
  switch (field) {
    case Field::kBalance:
      return addr.to_hex() + "/balance";
    case Field::kNonce:
      return addr.to_hex() + "/nonce";
    case Field::kStorage:
      return addr.to_hex() + "/slot:" + slot.to_hex();
  }
  return "?";
}

// The commitment handoff cell; see the state_root() protocol below.
struct WorldState::Handoff {
  std::uint64_t source_writes = 0;  // the source's write count at the copy
  std::mutex mu;                    // source fills, copies adopt
  bool filled = false;
  trie::SecureTrie account_trie;
  CommitMemo commit;
};

// Copying shares the persistent tries (O(1) per trie) and every shard of
// the account map, the storage maps and the commitment memo (copy-on-write;
// O(shards)), and carries the root memo over, so a copied state answers
// state_root() without re-hashing anything the source had already
// committed.  Everything is shared under the source's commit mutex, whose
// holds are short (a commit in flight holds it only for its structural
// folds, never for hashing).  Both sides leave with fresh epochs, so
// neither writes in place to a shard the other now shares.
WorldState::WorldState(const WorldState& other) {
  std::scoped_lock lk(other.commit_mu_);
  accounts_ = other.accounts_;
  other.share_commitment_locked(*this);
}

WorldState& WorldState::operator=(const WorldState& other) {
  if (this == &other) return *this;
  std::scoped_lock lk(commit_mu_, other.commit_mu_);
  accounts_ = other.accounts_;
  epoch_ = fresh_cow_epoch();
  other.share_commitment_locked(*this);
  return *this;
}

// A source with unfolded writes (its own, or ones it inherited and has not
// folded yet) hands them to the copy twice over: as `inherited_`, which the
// copy folds itself if it must, and as the handoff cell, which lets it skip
// that fold.  Copies taken while the source's write count is unchanged
// share one cell (siblings); a copy after further writes gets a new one.
void WorldState::share_commitment_locked(WorldState& copy) const {
  epoch_ = fresh_cow_epoch();
  copy.account_trie_ = account_trie_;
  copy.commit_ = commit_;
  copy.dirty_.clear();
  copy.handoff_out_.reset();
  copy.root_memo_ = root_memo_;
  copy.root_valid_ = root_valid_;
  copy.stats_ = stats_;
  if (dirty_.empty() && inherited_.empty()) {
    copy.inherited_.clear();
    copy.handoff_in_.reset();
    return;
  }
  copy.inherited_ = inherited_;
  for (const auto& [addr, slots] : dirty_)
    copy.inherited_[addr].insert(slots.begin(), slots.end());
  if (handoff_out_ == nullptr || handoff_out_->source_writes != writes_) {
    handoff_out_ = std::make_shared<Handoff>();
    handoff_out_->source_writes = writes_;
  }
  copy.handoff_in_ = handoff_out_;
  copy.root_valid_ = false;
}

// Moving is a mutation of the source, which by contract cannot race with
// any other access — no locking needed.  The target takes the source's
// shards, its epoch, its write count and its handoff cells; the source is
// left an empty state with a fresh epoch, ready for reuse.
WorldState::WorldState(WorldState&& other) noexcept
    : accounts_(std::move(other.accounts_)),
      epoch_(other.epoch_),
      writes_(other.writes_),
      account_trie_(std::move(other.account_trie_)),
      commit_(std::move(other.commit_)),
      dirty_(std::move(other.dirty_)),
      inherited_(std::move(other.inherited_)),
      handoff_in_(std::move(other.handoff_in_)),
      handoff_out_(std::move(other.handoff_out_)),
      root_memo_(other.root_memo_),
      root_valid_(other.root_valid_),
      stats_(other.stats_) {
  other.reset_moved_from();
}

WorldState& WorldState::operator=(WorldState&& other) noexcept {
  if (this == &other) return *this;
  accounts_ = std::move(other.accounts_);
  epoch_ = other.epoch_;
  writes_ = other.writes_;
  account_trie_ = std::move(other.account_trie_);
  commit_ = std::move(other.commit_);
  dirty_ = std::move(other.dirty_);
  inherited_ = std::move(other.inherited_);
  handoff_in_ = std::move(other.handoff_in_);
  handoff_out_ = std::move(other.handoff_out_);
  root_memo_ = other.root_memo_;
  root_valid_ = other.root_valid_;
  stats_ = other.stats_;
  other.reset_moved_from();
  return *this;
}

void WorldState::reset_moved_from() noexcept {
  accounts_ = AccountMap{};
  epoch_ = fresh_cow_epoch();
  account_trie_ = trie::SecureTrie{};
  commit_ = CommitMemo{};
  dirty_.clear();
  inherited_.clear();
  handoff_in_.reset();
  handoff_out_.reset();
  root_valid_ = false;
}

U256 WorldState::get(const StateKey& key) const {
  const AccountData* acct = accounts_.find(key.addr);
  if (acct == nullptr) return U256{};
  switch (key.field) {
    case Field::kBalance:
      return acct->balance;
    case Field::kNonce:
      return U256{acct->nonce};
    case Field::kStorage:
      return slot_value(acct->storage, key.slot);
  }
  return U256{};
}

void WorldState::set(const StateKey& key, const U256& value) {
  AccountData& acct = account(key.addr);
  switch (key.field) {
    case Field::kBalance:
      acct.balance = value;
      mark_dirty_account(key.addr);
      break;
    case Field::kNonce:
      BP_ASSERT_MSG(value.fits64(), "nonce overflow");
      acct.nonce = value.low64();
      mark_dirty_account(key.addr);
      break;
    case Field::kStorage:
      if (value.is_zero()) {
        acct.storage.erase(key.slot, epoch_);
      } else {
        acct.storage.set(key.slot, value, epoch_);
      }
      mark_dirty_slot(key.addr, key.slot);
      break;
  }
}

std::shared_ptr<const Bytes> WorldState::code(const Address& addr) const {
  const AccountData* acct = accounts_.find(addr);
  return acct == nullptr ? nullptr : acct->code;
}

void WorldState::set_code(const Address& addr, Bytes code) {
  AccountData& acct = account(addr);
  acct.code_hash =
      code.empty() ? Hash256{} : Hash256::of(std::span(code));
  acct.code = std::make_shared<const Bytes>(std::move(code));
  mark_dirty_account(addr);
}

Hash256 WorldState::code_hash(const Address& addr) const {
  const AccountData* acct = accounts_.find(addr);
  return acct == nullptr ? Hash256{} : acct->code_hash;
}

namespace {

void put_slot(trie::SecureTrie& trie, const U256& slot, const U256& value) {
  const auto key = slot.to_be_bytes();
  const auto encoded = rlp::encode(value);
  trie.put(std::span(key), std::span(encoded));
}

const Hash256& empty_code_hash() {
  static const Hash256 kEmpty{
      crypto::keccak256(std::span<const std::uint8_t>{})};
  return kEmpty;
}

// codeHash for the incremental path: the memo set_code keeps, keccak("")
// for code-less accounts (and empty code, whose memo is zero).
const Hash256& memoized_code_hash(const AccountData& acct) {
  return acct.code_hash.is_zero() ? empty_code_hash() : acct.code_hash;
}

}  // namespace

Hash256 storage_root_of(const SlotMap& storage) {
  trie::SecureTrie st;
  storage.for_each([&st](const U256& slot, const U256& value) {
    BP_ASSERT_MSG(!value.is_zero(), "slot map stored a zero value");
    put_slot(st, slot, value);
  });
  return st.root_hash();
}

Bytes encode_account(const AccountData& acct, const Hash256& storage_root,
                     const Hash256& code_hash) {
  rlp::Encoder enc;
  enc.begin_list()
      .add(U256{acct.nonce})
      .add(acct.balance)
      .add(storage_root)
      .add(code_hash)
      .end_list();
  return enc.take();
}

// state_root() protocol — every keccak runs outside commit_mu_:
//
//   collect (commit_mu_)   adopt the handoff cell if the source filled it
//                          (else fold the inherited writes too), then
//                          snapshot the dirty set into per-account folds:
//                          persistent copies of the storage tries to apply
//                          slots to, memoized roots for body-only changes.
//                          No hashing.
//   hash    (unlocked)     build/apply storage tries, hash their roots,
//                          RLP-encode the accounts.  Reads accounts_
//                          without the lock — writes never race with root
//                          queries by contract, so the maps are stable.
//   install (commit_mu_)   fold results back into commit_ and the account
//                          trie (puts/erases only — the leaf hashes were
//                          already memoized in the hash phase), clear the
//                          dirty set, fill the handoff cell for copies taken
//                          meanwhile, take a persistent account-trie
//                          snapshot.  No hashing beyond keccak(address).
//   root    (unlocked)     hash the snapshot's root.
//   memo    (commit_mu_)   publish the memo if nothing re-dirtied.
//
// The fold is idempotent — rebuilding a fresh account or re-applying dirty
// slots from the current accounts_ values reproduces the same tries — so a
// copy taken between any two phases (which still sees the dirty set)
// could simply re-fold it on its own first state_root() and land on the
// same root.  That is the fallback.  The handoff saves the re-fold: the
// copy's inherited writes are exactly what the source's next install folds
// (writes never race root queries, and the cell is filled only if the
// source's write count did not move since the copy), so the source's
// account trie and memo map after that install are the copy's commitment
// minus its own writes.  The cell holds both as persistent / copy-on-write
// snapshots — every memo entry the source changed, including entries it
// adopted from its own source, at O(shards) — and the copy adopts them
// wholesale and folds only its own dirty set.  root_mu_ serializes whole
// computations so two rooters on the same object cannot interleave their
// unlocked phases.
//
// With lanes, the hash phase runs each fold as one lane (folds touch
// disjoint tries; the persistent copies path-copy away from every node
// they share), heaviest first, and the root phase hashes the account
// root's subtries as lanes too.  Collect, install and memo stay serial.
struct WorldState::StorageFold {
  enum class Kind { kPrune, kBuild, kApplySlots, kBodyOnly };

  Address addr;
  Kind kind = Kind::kBodyOnly;
  const AccountData* acct = nullptr;  // stable: no writes during root calls
  trie::SecureTrie trie;              // working persistent copy
  std::vector<U256> slots;            // kApplySlots: touched slots
  Hash256 storage_root;
  Bytes encoded;                      // account RLP, produced off-lock

  // Slots this fold puts or erases: its lane's weight.
  std::size_t weight() const {
    switch (kind) {
      case Kind::kBuild:
        return acct->storage.size();
      case Kind::kApplySlots:
        return slots.size();
      default:
        return 0;
    }
  }

  // Applies the fold and encodes the account.  With `lanes`, the storage
  // trie's subtries hash as nested lanes, which workers done with the
  // other folds join: the heaviest fold is not left to one thread.
  void hash(ThreadPool* lanes);
};

std::vector<WorldState::StorageFold> WorldState::collect_folds_locked() const {
  if (handoff_in_ != nullptr) {
    bool adopted = false;
    {
      std::scoped_lock hl(handoff_in_->mu);
      if (handoff_in_->filled) {
        account_trie_ = handoff_in_->account_trie;
        commit_ = handoff_in_->commit;
        adopted = true;
      }
    }
    if (adopted) {
      ++stats_.handoffs_adopted;
    } else {
      for (const auto& [addr, slots] : inherited_)
        dirty_[addr].insert(slots.begin(), slots.end());
    }
    inherited_.clear();
    handoff_in_.reset();
  }

  std::vector<StorageFold> folds;
  folds.reserve(dirty_.size());
  stats_.dirty_accounts += dirty_.size();
  for (const auto& [addr, slots] : dirty_) {
    StorageFold f;
    f.addr = addr;
    const AccountData* acct = accounts_.find(addr);
    if (acct == nullptr || acct->empty_account()) {
      // Pruned like post-EIP-161: drop from the commitment (and the memo,
      // so a later resurrection rebuilds its storage trie).
      f.kind = StorageFold::Kind::kPrune;
      folds.push_back(std::move(f));
      continue;
    }
    f.acct = acct;
    const AccountCommit* cc = commit_.find(addr);
    if (cc == nullptr) {
      f.kind = StorageFold::Kind::kBuild;
    } else if (!slots.empty()) {
      f.kind = StorageFold::Kind::kApplySlots;
      f.trie = cc->storage_trie;  // persistent: puts off-lock path-copy
      f.slots.assign(slots.begin(), slots.end());
    } else {
      f.kind = StorageFold::Kind::kBodyOnly;
      f.storage_root = cc->storage_root;
    }
    folds.push_back(std::move(f));
  }
  return folds;
}

void WorldState::StorageFold::hash(ThreadPool* lanes) {
  switch (kind) {
    case Kind::kPrune:
      return;
    case Kind::kBuild:
      acct->storage.for_each([this](const U256& slot, const U256& value) {
        put_slot(trie, slot, value);
      });
      storage_root = trie.root_hash(lanes);
      break;
    case Kind::kApplySlots:
      // Only the touched slots; untouched subtrees keep their memoized
      // hashes inside the persistent trie.
      for (const U256& slot : slots) {
        const U256 value = slot_value(acct->storage, slot);
        if (value.is_zero()) {
          const auto key = slot.to_be_bytes();
          trie.erase(std::span(key));
        } else {
          put_slot(trie, slot, value);
        }
      }
      storage_root = trie.root_hash(lanes);
      break;
    case Kind::kBodyOnly:
      break;
  }
  encoded = encode_account(*acct, storage_root, memoized_code_hash(*acct));
}

void WorldState::hash_folds_unlocked(std::vector<StorageFold>& folds,
                                     ThreadPool* lanes) const {
  std::vector<StorageFold*> order(folds.size());
  for (std::size_t i = 0; i < folds.size(); ++i) order[i] = &folds[i];
  if (lanes != nullptr) {
    std::stable_sort(order.begin(), order.end(),
                     [](const StorageFold* a, const StorageFold* b) {
                       return a->weight() > b->weight();
                     });
  }
  for_each_lane(lanes, order.size(),
                [&order, lanes](std::size_t i) { order[i]->hash(lanes); });
}

trie::SecureTrie WorldState::install_folds_locked(
    std::vector<StorageFold>& folds) const {
  for (StorageFold& f : folds) {
    switch (f.kind) {
      case StorageFold::Kind::kPrune:
        account_trie_.erase(std::span(f.addr.bytes));
        commit_.erase(f.addr, epoch_);
        continue;
      case StorageFold::Kind::kBuild:
      case StorageFold::Kind::kApplySlots: {
        AccountCommit& cc = commit_.mutate(f.addr, epoch_);
        cc.storage_trie = std::move(f.trie);
        cc.storage_root = f.storage_root;
        if (f.kind == StorageFold::Kind::kBuild) {
          ++stats_.accounts_resynced;
        } else {
          stats_.slots_resynced += f.slots.size();
        }
        break;
      }
      case StorageFold::Kind::kBodyOnly:
        break;
    }
    account_trie_.put(std::span(f.addr.bytes), std::span(f.encoded));
  }
  dirty_.clear();
  root_valid_ = false;
  if (handoff_out_ != nullptr) {
    if (handoff_out_->source_writes == writes_) {
      std::scoped_lock hl(handoff_out_->mu);
      handoff_out_->account_trie = account_trie_;
      handoff_out_->commit = commit_;
      handoff_out_->filled = true;
      epoch_ = fresh_cow_epoch();  // the cell now shares our memo shards
    }
    handoff_out_.reset();
  }
  return account_trie_;  // persistent snapshot: shares nodes, O(1)
}

Hash256 WorldState::storage_root(const Address& addr) const {
  const AccountData* acct = accounts_.find(addr);
  if (acct == nullptr) return trie::MerklePatriciaTrie::empty_root();
  {
    std::scoped_lock lk(commit_mu_);
    const auto storage_clean = [&addr](const DirtySet& set) {
      const auto it = set.find(addr);
      return it == set.end() || it->second.empty();
    };
    const AccountCommit* cc = commit_.find(addr);
    if (cc != nullptr && storage_clean(dirty_) && storage_clean(inherited_))
      return cc->storage_root;
  }
  return storage_root_of(acct->storage);
}

Hash256 WorldState::state_root(ThreadPool* lanes) const {
  {
    std::scoped_lock lk(commit_mu_);
    if (memo_valid_locked()) {
      ++stats_.root_memo_hits;
      return root_memo_;
    }
  }
  // Serialize whole computations; copies contend only on commit_mu_ below.
  std::scoped_lock rl(root_mu_);
  std::vector<StorageFold> folds;
  {
    std::scoped_lock lk(commit_mu_);
    if (memo_valid_locked()) {
      ++stats_.root_memo_hits;
      return root_memo_;
    }
    folds = collect_folds_locked();
  }
  const Stopwatch fold_clock;
  hash_folds_unlocked(folds, lanes);
  const double fold_ms = fold_clock.elapsed_ms();
  const Stopwatch account_clock;
  trie::SecureTrie snapshot;
  {
    std::scoped_lock lk(commit_mu_);
    snapshot = install_folds_locked(folds);
  }
  const Hash256 root = snapshot.root_hash(lanes);
  const double account_ms = account_clock.elapsed_ms();
  {
    std::scoped_lock lk(commit_mu_);
    ++stats_.root_recomputes;
    stats_.storage_fold_ms += fold_ms;
    stats_.account_hash_ms += account_ms;
    if (dirty_.empty() && inherited_.empty()) {
      root_memo_ = root;
      root_valid_ = true;
    }
  }
  return root;
}

Hash256 WorldState::state_root_full_rebuild() const {
  trie::SecureTrie accounts_trie;
  accounts_.for_each([&accounts_trie](const Address& addr,
                                      const AccountData& acct) {
    if (acct.empty_account()) return;
    // Hashes the code itself rather than trusting the code_hash memo, so a
    // stale memo on the incremental path shows up as a root mismatch.
    const Hash256 code_hash =
        acct.code != nullptr ? Hash256{crypto::keccak256(std::span(*acct.code))}
                             : empty_code_hash();
    const Bytes encoded =
        encode_account(acct, storage_root_of(acct.storage), code_hash);
    accounts_trie.put(std::span(addr.bytes), std::span(encoded));
  });
  return accounts_trie.root_hash();
}

CommitStats WorldState::commit_stats() const {
  std::scoped_lock lk(commit_mu_);
  return stats_;
}

std::size_t WorldState::persist_commitment(db::NodeStore& store,
                                           ThreadPool* lanes) const {
  const Hash256 root = state_root(lanes);  // folds dirty writes; memos current
  // Fast path: a stored root implies its whole closure is stored (persists
  // append post-order, so nothing can reference a missing descendant — see
  // persist_new).  Re-commits of an already-persisted state — the chain
  // layer persisting after the pipeline already did, sibling blocks sharing
  // a parent — skip the snapshot and the storage-trie walk entirely.
  if (store.contains(root)) return 0;
  // Snapshot the persistent tries under the short structural lock (O(1)
  // copies sharing the node graphs) and persist outside it, so concurrent
  // root computations never wait on store I/O.
  trie::SecureTrie account_snapshot;
  std::vector<trie::SecureTrie> storage_snapshots;
  {
    std::scoped_lock lk(commit_mu_);
    account_snapshot = account_trie_;
    storage_snapshots.reserve(commit_.size());
    commit_.for_each([&storage_snapshots](const Address&,
                                          const AccountCommit& memo) {
      if (!memo.storage_trie.empty())
        storage_snapshots.push_back(memo.storage_trie);
    });
  }
  // Storage tries first: account leaves embed storageRoot references, so
  // the post-order invariant extends across tries — by the time an account
  // node lands in the file, every storage node it commits to is already
  // there.  With lanes, each storage trie walks as one lane into its own
  // deferred batch; the batches append after the join, before the account
  // trie's walk starts.
  db::WriteSession session(store);
  db::PutBatch out(session);
  std::size_t total = 0;
  if (lanes == nullptr) {
    for (const trie::SecureTrie& storage : storage_snapshots)
      total += storage.persist_nodes(out);
  } else {
    std::vector<db::PutBatch> tries(storage_snapshots.size(), out.deferred());
    std::vector<std::size_t> appended(storage_snapshots.size());
    for_each_lane(lanes, storage_snapshots.size(), [&](std::size_t i) {
      appended[i] = storage_snapshots[i].persist_nodes(tries[i], lanes);
    });
    for (std::size_t i = 0; i < tries.size(); ++i) {
      total += appended[i];
      const db::Status st = out.append(std::move(tries[i]));
      BP_ASSERT_MSG(st.ok(), "node store put failed");
    }
  }
  total += account_snapshot.persist_nodes(out, lanes);
  const db::Status st = out.flush();
  BP_ASSERT_MSG(st.ok(), "node store put failed");
  return total;
}

}  // namespace blockpilot::state

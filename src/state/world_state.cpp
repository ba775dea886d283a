#include "state/world_state.hpp"

#include "crypto/keccak.hpp"
#include "db/node_store.hpp"
#include "rlp/rlp.hpp"
#include "support/assert.hpp"

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

// Copying shares the persistent tries (O(1) per trie) and every storage
// shard (copy-on-write; O(1) per contract account), and carries the memos
// over, so a copied state answers state_root() without re-hashing anything
// the source had already committed.  What is still copied entry by entry
// is the account map and the commitment memo: O(accounts), not O(slots).
// accounts_ is copied outside the commit mutex — it is never mutated
// concurrently (writes don't race by contract) — and the lock-guarded
// commitment structures are pure memory copies, so a copy taken while a
// commit is in flight waits only for that commit's short structural fold,
// never for its hashing.  Both sides leave with fresh epochs, so neither
// writes in place to a shard the other now shares.
WorldState::WorldState(const WorldState& other) {
  accounts_ = other.accounts_;
  std::scoped_lock lk(other.commit_mu_);
  other.epoch_ = SlotMap::fresh_epoch();
  account_trie_ = other.account_trie_;
  commit_ = other.commit_;
  dirty_ = other.dirty_;
  root_memo_ = other.root_memo_;
  root_valid_ = other.root_valid_;
  stats_ = other.stats_;
}

WorldState& WorldState::operator=(const WorldState& other) {
  if (this == &other) return *this;
  accounts_ = other.accounts_;
  std::scoped_lock lk(commit_mu_, other.commit_mu_);
  epoch_ = SlotMap::fresh_epoch();
  other.epoch_ = SlotMap::fresh_epoch();
  account_trie_ = other.account_trie_;
  commit_ = other.commit_;
  dirty_ = other.dirty_;
  root_memo_ = other.root_memo_;
  root_valid_ = other.root_valid_;
  stats_ = other.stats_;
  return *this;
}

// Moving is a mutation of the source, which by contract cannot race with
// any other access — no locking needed.  The target takes the source's
// shards and its epoch; the source is left an empty state with a fresh
// epoch, ready for reuse.
WorldState::WorldState(WorldState&& other) noexcept
    : accounts_(std::move(other.accounts_)),
      epoch_(other.epoch_),
      account_trie_(std::move(other.account_trie_)),
      commit_(std::move(other.commit_)),
      dirty_(std::move(other.dirty_)),
      root_memo_(other.root_memo_),
      root_valid_(other.root_valid_),
      stats_(other.stats_) {
  other.reset_moved_from();
}

WorldState& WorldState::operator=(WorldState&& other) noexcept {
  if (this == &other) return *this;
  accounts_ = std::move(other.accounts_);
  epoch_ = other.epoch_;
  account_trie_ = std::move(other.account_trie_);
  commit_ = std::move(other.commit_);
  dirty_ = std::move(other.dirty_);
  root_memo_ = other.root_memo_;
  root_valid_ = other.root_valid_;
  stats_ = other.stats_;
  other.reset_moved_from();
  return *this;
}

void WorldState::reset_moved_from() noexcept {
  accounts_.clear();
  epoch_ = SlotMap::fresh_epoch();
  account_trie_ = trie::SecureTrie{};
  commit_.clear();
  dirty_.clear();
  root_valid_ = false;
}

U256 WorldState::get(const StateKey& key) const {
  const auto it = accounts_.find(key.addr);
  if (it == accounts_.end()) return U256{};
  const AccountData& acct = it->second;
  switch (key.field) {
    case Field::kBalance:
      return acct.balance;
    case Field::kNonce:
      return U256{acct.nonce};
    case Field::kStorage:
      return acct.storage.get(key.slot);
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
      acct.storage.set(key.slot, value, epoch_);
      mark_dirty_slot(key.addr, key.slot);
      break;
  }
}

std::shared_ptr<const Bytes> WorldState::code(const Address& addr) const {
  const auto it = accounts_.find(addr);
  if (it == accounts_.end()) return nullptr;
  return it->second.code;
}

void WorldState::set_code(const Address& addr, Bytes code) {
  AccountData& acct = account(addr);
  acct.code_hash =
      code.empty() ? Hash256{} : Hash256::of(std::span(code));
  acct.code = std::make_shared<const Bytes>(std::move(code));
  mark_dirty_account(addr);
}

Hash256 WorldState::code_hash(const Address& addr) const {
  const auto it = accounts_.find(addr);
  if (it == accounts_.end()) return Hash256{};
  return it->second.code_hash;
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
//   collect (commit_mu_)   snapshot the dirty set into per-account folds:
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
//                          dirty set, take a persistent account-trie
//                          snapshot.  No hashing beyond keccak(address).
//   root    (unlocked)     hash the snapshot's root.
//   memo    (commit_mu_)   publish the memo if nothing re-dirtied.
//
// The fold is idempotent — rebuilding a fresh account or re-applying dirty
// slots from the current accounts_ values reproduces the same tries — so a
// copy taken between any two phases (which still sees the dirty set) simply
// re-folds on its own first state_root() and lands on the same root.
// root_mu_ serializes whole computations so two rooters on the same object
// cannot interleave their unlocked phases.
struct WorldState::StorageFold {
  enum class Kind { kPrune, kBuild, kApplySlots, kBodyOnly };

  Address addr;
  Kind kind = Kind::kBodyOnly;
  const AccountData* acct = nullptr;  // stable: no writes during root calls
  trie::SecureTrie trie;              // working persistent copy
  std::vector<U256> slots;            // kApplySlots: touched slots
  Hash256 storage_root;
  Bytes encoded;                      // account RLP, produced off-lock
};

std::vector<WorldState::StorageFold> WorldState::collect_folds_locked() const {
  std::vector<StorageFold> folds;
  folds.reserve(dirty_.size());
  stats_.dirty_accounts += dirty_.size();
  for (const auto& [addr, slots] : dirty_) {
    StorageFold f;
    f.addr = addr;
    const auto ait = accounts_.find(addr);
    if (ait == accounts_.end() || ait->second.empty_account()) {
      // Pruned like post-EIP-161: drop from the commitment (and the memo,
      // so a later resurrection rebuilds its storage trie).
      f.kind = StorageFold::Kind::kPrune;
      folds.push_back(std::move(f));
      continue;
    }
    f.acct = &ait->second;
    AccountCommit& cc = commit_[addr];
    if (cc.fresh) {
      f.kind = StorageFold::Kind::kBuild;
    } else if (!slots.empty()) {
      f.kind = StorageFold::Kind::kApplySlots;
      f.trie = cc.storage_trie;  // persistent: puts off-lock path-copy
      f.slots.assign(slots.begin(), slots.end());
    } else {
      f.kind = StorageFold::Kind::kBodyOnly;
      f.storage_root = cc.storage_root;
    }
    folds.push_back(std::move(f));
  }
  return folds;
}

void WorldState::hash_folds_unlocked(std::vector<StorageFold>& folds) const {
  for (StorageFold& f : folds) {
    switch (f.kind) {
      case StorageFold::Kind::kPrune:
        continue;
      case StorageFold::Kind::kBuild:
        f.acct->storage.for_each([&f](const U256& slot, const U256& value) {
          put_slot(f.trie, slot, value);
        });
        f.storage_root = f.trie.root_hash();
        break;
      case StorageFold::Kind::kApplySlots:
        // Only the touched slots; untouched subtrees keep their memoized
        // hashes inside the persistent trie.
        for (const U256& slot : f.slots) {
          const U256 value = f.acct->storage.get(slot);
          if (value.is_zero()) {
            const auto key = slot.to_be_bytes();
            f.trie.erase(std::span(key));
          } else {
            put_slot(f.trie, slot, value);
          }
        }
        f.storage_root = f.trie.root_hash();
        break;
      case StorageFold::Kind::kBodyOnly:
        break;
    }
    f.encoded =
        encode_account(*f.acct, f.storage_root, memoized_code_hash(*f.acct));
  }
}

trie::SecureTrie WorldState::install_folds_locked(
    std::vector<StorageFold>& folds) const {
  for (StorageFold& f : folds) {
    if (f.kind == StorageFold::Kind::kPrune) {
      account_trie_.erase(std::span(f.addr.bytes));
      commit_.erase(f.addr);
      continue;
    }
    AccountCommit& cc = commit_[f.addr];
    switch (f.kind) {
      case StorageFold::Kind::kBuild:
        cc.storage_trie = std::move(f.trie);
        cc.storage_root = f.storage_root;
        cc.fresh = false;
        ++stats_.accounts_resynced;
        break;
      case StorageFold::Kind::kApplySlots:
        cc.storage_trie = std::move(f.trie);
        cc.storage_root = f.storage_root;
        stats_.slots_resynced += f.slots.size();
        break;
      case StorageFold::Kind::kBodyOnly:
      case StorageFold::Kind::kPrune:
        break;
    }
    account_trie_.put(std::span(f.addr.bytes), std::span(f.encoded));
  }
  dirty_.clear();
  root_valid_ = false;
  return account_trie_;  // persistent snapshot: shares nodes, O(1)
}

Hash256 WorldState::storage_root(const Address& addr) const {
  const auto it = accounts_.find(addr);
  if (it == accounts_.end()) return trie::MerklePatriciaTrie::empty_root();
  {
    std::scoped_lock lk(commit_mu_);
    const auto cit = commit_.find(addr);
    const auto dit = dirty_.find(addr);
    const bool storage_clean = dit == dirty_.end() || dit->second.empty();
    if (cit != commit_.end() && !cit->second.fresh && storage_clean)
      return cit->second.storage_root;
  }
  return storage_root_of(it->second.storage);
}

Hash256 WorldState::state_root() const {
  {
    std::scoped_lock lk(commit_mu_);
    if (root_valid_ && dirty_.empty()) {
      ++stats_.root_memo_hits;
      return root_memo_;
    }
  }
  // Serialize whole computations; copies contend only on commit_mu_ below.
  std::scoped_lock rl(root_mu_);
  std::vector<StorageFold> folds;
  {
    std::scoped_lock lk(commit_mu_);
    if (root_valid_ && dirty_.empty()) {
      ++stats_.root_memo_hits;
      return root_memo_;
    }
    folds = collect_folds_locked();
  }
  hash_folds_unlocked(folds);
  trie::SecureTrie snapshot;
  {
    std::scoped_lock lk(commit_mu_);
    snapshot = install_folds_locked(folds);
  }
  const Hash256 root = snapshot.root_hash();
  {
    std::scoped_lock lk(commit_mu_);
    ++stats_.root_recomputes;
    if (dirty_.empty()) {
      root_memo_ = root;
      root_valid_ = true;
    }
  }
  return root;
}

Hash256 WorldState::state_root_full_rebuild() const {
  trie::SecureTrie accounts_trie;
  for (const auto& [addr, acct] : accounts_) {
    if (acct.empty_account()) continue;
    // Hashes the code itself rather than trusting the code_hash memo, so a
    // stale memo on the incremental path shows up as a root mismatch.
    const Hash256 code_hash =
        acct.code != nullptr ? Hash256{crypto::keccak256(std::span(*acct.code))}
                             : empty_code_hash();
    const Bytes encoded =
        encode_account(acct, storage_root_of(acct.storage), code_hash);
    accounts_trie.put(std::span(addr.bytes), std::span(encoded));
  }
  return accounts_trie.root_hash();
}

CommitStats WorldState::commit_stats() const {
  std::scoped_lock lk(commit_mu_);
  return stats_;
}

std::size_t WorldState::persist_commitment(db::NodeStore& store) const {
  const Hash256 root = state_root();  // folds dirty writes; memos current
  // Fast path: a stored root implies its whole closure is stored (persists
  // append post-order, so nothing can reference a missing descendant — see
  // persist_subtree).  Re-commits of an already-persisted state — the chain
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
    for (const auto& [addr, memo] : commit_)
      if (!memo.fresh && !memo.storage_trie.empty())
        storage_snapshots.push_back(memo.storage_trie);
  }
  // Storage tries first: account leaves embed storageRoot references, so
  // the post-order invariant extends across tries — by the time an account
  // node lands in the file, every storage node it commits to is already
  // there.
  std::size_t appended = 0;
  for (const auto& storage : storage_snapshots)
    appended += storage.persist_nodes(store);
  appended += account_snapshot.persist_nodes(store);
  return appended;
}

}  // namespace blockpilot::state

// WorldState: the committed account-model state with MPT commitment.
//
// Mirrors geth's StateDB surface at the granularity BlockPilot needs:
// balance / nonce / storage / code access by StateKey, plus state_root()
// which assembles the secure account trie exactly per the yellow paper —
// each account RLP-encoded as [nonce, balance, storageRoot, codeHash] under
// the keccak of its address.  Root equality is the correctness criterion of
// the whole framework (§5.2).
//
// Commitment is *incremental*: every write records the touched account (and
// storage slot) in a dirty set, and state_root() re-encodes only dirty
// accounts into a persistent account trie that is kept alive across calls.
// Per-account storage tries and their roots are memoized the same way, so a
// block touching k accounts re-hashes O(k * depth) trie nodes instead of
// rebuilding the whole trie.  state_root_full_rebuild() preserves the
// original from-scratch computation as a differential oracle.
//
// Copies are cheap: a copy shares the persistent tries (O(1) per trie) and,
// copy-on-write by shard, the account map, every contract's storage and the
// commitment memo (see slot_map.hpp).  A write later clones only the shard
// it touches, so a retained state pays only for its own writes.  Shard
// counts follow the traffic: about 2 000 accounts of which about 250 are
// touched per block, so 1024 account and memo shards keep a block's
// writes mostly in distinct shards of about two entries each.  A copy of a
// committed state answers state_root() from the memo without hashing.
//
// A copy of a state whose writes are not yet folded (the proposer builds
// block N+1 on N's post state while N is still hashing) takes a *handoff*
// cell shared with its source: the source's next fold fills the cell with
// its account-trie snapshot and memo map, and the copy adopts them and
// folds only its own writes — neither re-hashing the source's writes nor
// keeping a second set of trie nodes for them.  The cell is valid only if
// the source was not written after the copy; a copy that roots first, or
// whose source changed, folds the inherited writes itself as before.
//
// commit_mu_ is a short-hold structural lock: state_root() folds dirty
// entries under it but performs every hash on persistent-trie snapshots
// *outside* it, so a finalize-time copy taken while a commit is in flight
// never waits for hashing (root_mu_ serializes whole root computations
// instead).
//
// Thread-safety matches the trie layer: concurrent const reads (including
// state_root() and copying) are safe; writes must not race with any other
// access to the same object.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "state/slot_map.hpp"
#include "state/state_key.hpp"
#include "trie/mpt.hpp"
#include "types/address.hpp"
#include "types/u256.hpp"

namespace blockpilot::state {

using Bytes = std::vector<std::uint8_t>;

/// Mutable per-account record.  An account is part of the state commitment
/// iff it is non-empty (nonzero nonce, balance, code, or storage) — empty
/// accounts are pruned from the trie like post-EIP-161 Ethereum.
struct AccountData {
  U256 balance;
  std::uint64_t nonce = 0;
  std::shared_ptr<const Bytes> code;  // nullptr for externally-owned accounts
  /// keccak(code), zero for code-less/empty accounts; computed once by
  /// set_code so executors can key the CodeAnalysis cache and the
  /// incremental commitment can encode the account without hashing.
  Hash256 code_hash;
  SlotMap storage;  // never holds a zero value

  bool empty_account() const noexcept {
    return balance.is_zero() && nonce == 0 &&
           (code == nullptr || code->empty()) && storage.empty();
  }
};

/// Counters for the incremental-commitment machinery (bench/test hooks).
struct CommitStats {
  std::uint64_t root_recomputes = 0;    // state_root() calls that re-hashed
  std::uint64_t root_memo_hits = 0;     // state_root() calls answered by memo
  std::uint64_t accounts_resynced = 0;  // full storage-trie (re)builds
  std::uint64_t slots_resynced = 0;     // individual dirty-slot updates
  std::uint64_t dirty_accounts = 0;     // dirty accounts folded in, cumulative
  std::uint64_t handoffs_adopted = 0;   // source folds adopted, not redone
  // Wall time of state_root()'s phases, cumulative: the storage folds (and
  // account encodings), and the account trie (install plus root hash).
  double storage_fold_ms = 0.0;
  double account_hash_ms = 0.0;
};

class WorldState {
 public:
  WorldState() = default;
  WorldState(const WorldState& other);
  WorldState& operator=(const WorldState& other);
  WorldState(WorldState&& other) noexcept;
  WorldState& operator=(WorldState&& other) noexcept;

  /// Reads a balance/nonce/storage cell; absent keys read as zero (EVM
  /// semantics for untouched accounts and slots).
  U256 get(const StateKey& key) const;

  /// Writes a balance/nonce/storage cell.
  void set(const StateKey& key, const U256& value);

  /// Deployed bytecode for an address (nullptr when none).
  std::shared_ptr<const Bytes> code(const Address& addr) const;

  /// Installs contract bytecode (workload genesis / deployment) and
  /// memoizes its keccak hash.
  void set_code(const Address& addr, Bytes code);

  /// keccak of the deployed bytecode (memoized at set_code time); the zero
  /// hash when the address has no or empty code.
  Hash256 code_hash(const Address& addr) const;

  bool account_exists(const Address& addr) const {
    return accounts_.contains(addr);
  }

  /// The account record of `addr`, or nullptr when the state never saw it.
  const AccountData* find_account(const Address& addr) const {
    return accounts_.find(addr);
  }

  /// Calls f(addr, account) for every account, in unspecified order.
  template <class F>
  void for_each_account(F&& f) const {
    accounts_.for_each(std::forward<F>(f));
  }

  std::size_t account_count() const noexcept { return accounts_.size(); }

  /// Yellow-paper world-state commitment: secure MPT over
  /// rlp([nonce, balance, storageRoot, codeHash]) per non-empty account.
  /// Incremental: folds the dirty set into the persistent account trie and
  /// re-hashes only touched paths; answered from a memo when nothing is
  /// dirty.  Bit-identical to state_root_full_rebuild() at all times.
  /// All hashing runs outside commit_mu_ (see the protocol in the .cpp), so
  /// concurrent copies only wait for the short structural folds.  With
  /// `lanes`, the storage folds hash as lanes of lanes->fork_join, heaviest
  /// first, and so do the account root's subtries (see
  /// MerklePatriciaTrie::root_hash); the root is the same either way.
  Hash256 state_root(ThreadPool* lanes = nullptr) const;

  /// From-scratch commitment rebuilding every trie — the original (seed)
  /// implementation, kept as the differential oracle for tests and benches.
  Hash256 state_root_full_rebuild() const;

  /// Storage-trie root for one account (used in account RLP and tests).
  /// Served from the per-account memo when that account's storage is clean.
  Hash256 storage_root(const Address& addr) const;

  /// Incremental-commitment counters (cumulative for this object's life;
  /// copies start from the source's counters).
  CommitStats commit_stats() const;

  /// Persists the current commitment into `store`: computes state_root()
  /// (folding any dirty writes), then writes every new node of the account
  /// trie and of each memoized storage trie.  Trie snapshots are taken
  /// under the short structural lock and persisted outside it, mirroring
  /// the state_root() hashing protocol.  Returns the number of nodes
  /// appended.  After store.commit_root(state_root(), h), a restarted
  /// process reconstructs this state's tries with trie::from_root.
  /// With `lanes` the walk runs in three steps inside one db::WriteSession:
  /// the storage tries as lanes, then the account root's subtries as lanes,
  /// then the account root.  Each lane appends post-order and each step
  /// joins before the next, so every node, across tries too, still lands
  /// after everything it references.
  std::size_t persist_commitment(db::NodeStore& store,
                                 ThreadPool* lanes = nullptr) const;

 private:
  /// Memoized commitment pieces for one account; an account without one
  /// has its storage trie built from the whole map on its next fold.
  struct AccountCommit {
    trie::SecureTrie storage_trie;
    Hash256 storage_root = trie::MerklePatriciaTrie::empty_root();
  };

  /// Per-account unit of work carried between state_root()'s locked
  /// structural phases and its unlocked hashing phase.
  struct StorageFold;

  /// Commitment handoff from a source to the copies taken of it while its
  /// writes were unfolded; see the protocol in the .cpp.
  struct Handoff;

  /// Dirty-set shape: touched accounts, each with its touched slots (empty
  /// when only the body — balance/nonce/code — changed).
  using DirtySet = std::unordered_map<Address, std::unordered_set<U256>>;

  AccountData& account(const Address& addr) {
    ++writes_;
    return accounts_.mutate(addr, epoch_);
  }

  /// Shares this state's commitment with a copy being made of it: fills the
  /// copy's handoff fields and redraws this state's epoch.  Called under
  /// commit_mu_.
  void share_commitment_locked(WorldState& copy) const;

  /// Leaves a moved-from state empty, with a fresh epoch.
  void reset_moved_from() noexcept;

  /// Records a write for the incremental commitment.
  void mark_dirty_account(const Address& addr) { dirty_[addr]; }
  void mark_dirty_slot(const Address& addr, const U256& slot) {
    dirty_[addr].insert(slot);
  }

  /// Memo answer available: nothing dirty, nothing inherited unfolded.
  bool memo_valid_locked() const {
    return root_valid_ && dirty_.empty() && inherited_.empty();
  }

  // state_root() phases; see the protocol comment in the .cpp.
  std::vector<StorageFold> collect_folds_locked() const;
  void hash_folds_unlocked(std::vector<StorageFold>& folds,
                           ThreadPool* lanes) const;
  trie::SecureTrie install_folds_locked(std::vector<StorageFold>& folds) const;

  using AccountMap = CowMap<Address, AccountData, 1024>;
  using CommitMemo = CowMap<Address, AccountCommit, 1024>;

  AccountMap accounts_;

  // Copy-on-write ownership token for this state's account, storage and
  // memo shards (see slot_map.hpp).  Redrawn on both sides of every copy,
  // on the source of every move, and whenever a handoff shares the memo.
  // Mutable because sharing from a const source redraws the source's token
  // too; that happens under commit_mu_, and writes (the only other users)
  // never race with copies or root queries by contract.
  mutable std::uint64_t epoch_ = fresh_cow_epoch();

  // Number of writes this object took (never copied): a handoff cell is
  // valid only if its source's count did not move after the copy.
  std::uint64_t writes_ = 0;

  // Incremental commitment state.  Mutable so const root queries may run
  // concurrently (e.g. on the commit pool) while still updating the memos.
  // commit_mu_ guards the structures below with *short* structural holds;
  // root_mu_ serializes whole state_root() computations so their unlocked
  // hashing phases cannot interleave.  The dirty set is only ever grown by
  // non-const writes, which by contract never race with other access.
  mutable std::mutex root_mu_;
  mutable std::mutex commit_mu_;
  mutable trie::SecureTrie account_trie_;
  mutable CommitMemo commit_;
  mutable DirtySet dirty_;
  // The source's unfolded writes at copy time; dropped when handoff_in_ is
  // adopted, folded like dirty_ when it cannot be.
  mutable DirtySet inherited_;
  mutable std::shared_ptr<Handoff> handoff_in_;   // the cell this adopts
  mutable std::shared_ptr<Handoff> handoff_out_;  // the cell this fills
  mutable Hash256 root_memo_;
  mutable bool root_valid_ = false;
  mutable CommitStats stats_;
};

/// Computes the storage-trie root of a slot map from scratch (the oracle's
/// storage path).  Asserts the map holds no zero value.
Hash256 storage_root_of(const SlotMap& storage);

/// RLP account encoding [nonce, balance, storageRoot, codeHash].
Bytes encode_account(const AccountData& acct, const Hash256& storage_root,
                     const Hash256& code_hash);

}  // namespace blockpilot::state

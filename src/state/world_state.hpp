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
// Copies are cheap: a copy shares the persistent tries (O(1) per trie),
// shares every contract's storage shards copy-on-write (see slot_map.hpp;
// a write later clones only the shard it touches), and carries the root and
// storage-root memos, so a copy of a committed state answers state_root()
// from the memo without hashing anything.  What a copy still duplicates is
// O(accounts): the account map and the commitment memo, not O(slots).
// Commit a state once *before* copying it (e.g. genesis) and every copy
// inherits that work.  commit_mu_ is a short-hold structural lock:
// state_root() folds dirty entries under it but performs every hash on
// persistent-trie snapshots *outside* it, so a finalize-time copy taken
// while a commit is in flight never waits for hashing (root_mu_ serializes
// whole root computations instead).
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

  std::size_t account_count() const noexcept { return accounts_.size(); }

  /// Yellow-paper world-state commitment: secure MPT over
  /// rlp([nonce, balance, storageRoot, codeHash]) per non-empty account.
  /// Incremental: folds the dirty set into the persistent account trie and
  /// re-hashes only touched paths; answered from a memo when nothing is
  /// dirty.  Bit-identical to state_root_full_rebuild() at all times.
  /// All hashing runs outside commit_mu_ (see the protocol in the .cpp), so
  /// concurrent copies only wait for the short structural folds.
  Hash256 state_root() const;

  /// From-scratch commitment rebuilding every trie — the original (seed)
  /// implementation, kept as the differential oracle for tests and benches.
  Hash256 state_root_full_rebuild() const;

  /// Storage-trie root for one account (used in account RLP and tests).
  /// Served from the per-account memo when that account's storage is clean.
  Hash256 storage_root(const Address& addr) const;

  /// Incremental-commitment counters (cumulative for this object's life;
  /// copies start from the source's counters).
  CommitStats commit_stats() const;

  const std::unordered_map<Address, AccountData>& accounts() const noexcept {
    return accounts_;
  }

  /// Persists the current commitment into `store`: computes state_root()
  /// (folding any dirty writes), then writes every new node of the account
  /// trie and of each memoized storage trie.  Trie snapshots are taken
  /// under the short structural lock and persisted outside it, mirroring
  /// the state_root() hashing protocol.  Returns the number of nodes
  /// appended.  After store.commit_root(state_root(), h), a restarted
  /// process reconstructs this state's tries with trie::from_root.
  std::size_t persist_commitment(db::NodeStore& store) const;

 private:
  /// Memoized commitment pieces for one account.  `fresh` marks a memo that
  /// has never been built (storage trie must be built from the whole map).
  struct AccountCommit {
    trie::SecureTrie storage_trie;
    Hash256 storage_root = trie::MerklePatriciaTrie::empty_root();
    bool fresh = true;
  };

  /// Per-account unit of work carried between state_root()'s locked
  /// structural phases and its unlocked hashing phase.
  struct StorageFold;

  AccountData& account(const Address& addr) { return accounts_[addr]; }

  /// Leaves a moved-from state empty, with a fresh epoch.
  void reset_moved_from() noexcept;

  /// Records a write for the incremental commitment.  An entry with an empty
  /// slot set means the account body (balance/nonce/code) changed but its
  /// storage did not.
  void mark_dirty_account(const Address& addr) { dirty_[addr]; }
  void mark_dirty_slot(const Address& addr, const U256& slot) {
    dirty_[addr].insert(slot);
  }

  // state_root() phases; see the protocol comment in the .cpp.
  std::vector<StorageFold> collect_folds_locked() const;
  void hash_folds_unlocked(std::vector<StorageFold>& folds) const;
  trie::SecureTrie install_folds_locked(std::vector<StorageFold>& folds) const;

  std::unordered_map<Address, AccountData> accounts_;

  // Copy-on-write ownership token for this state's storage shards (see
  // slot_map.hpp).  Redrawn on both sides of every copy and on the source
  // of every move.  Mutable because copying a const source redraws the
  // source's token too; copies do that under commit_mu_, and writes (the
  // only readers) never race with copies by contract.
  mutable std::uint64_t epoch_ = SlotMap::fresh_epoch();

  // Incremental commitment state.  Mutable so const root queries may run
  // concurrently (e.g. on the commit pool) while still updating the memos.
  // commit_mu_ guards the structures below with *short* structural holds;
  // root_mu_ serializes whole state_root() computations so their unlocked
  // hashing phases cannot interleave.  The dirty set is only ever grown by
  // non-const writes, which by contract never race with other access.
  mutable std::mutex root_mu_;
  mutable std::mutex commit_mu_;
  mutable trie::SecureTrie account_trie_;
  mutable std::unordered_map<Address, AccountCommit> commit_;
  mutable std::unordered_map<Address, std::unordered_set<U256>> dirty_;
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

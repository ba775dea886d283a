// StateKey: the unit of conflict detection.
//
// The paper's OCC-WSI reserve table and block profiles are keyed by
// "<key, version>" pairs where a key is an account-level counter (balance,
// nonce) or an EVM storage cell (paper §2.3: "most data conflicts arise from
// counters (e.g., balances) and storage").  We model exactly those three
// key kinds.  The validator's dependency-graph builder can coarsen storage
// keys to their owning account (paper §4.3 detects conflicts "from the
// account level"); see sched/depgraph.hpp.
//
// The hash is computed once at construction and cached in the key: the
// sharded MvMemory derives its stripe index from it, and every
// unordered_map probe (ExecBuffer read/write sets, validator overlays,
// dependency graphs) reuses it instead of re-walking 20 address bytes + 4
// slot limbs per probe.  A splitmix64 finalizer gives the avalanche quality
// the stripe bit-slicing needs (sequential account ids and storage slots
// must not cluster into one stripe; see StateKeyHash tests).
#pragma once

#include <cstdint>
#include <string>

#include "types/address.hpp"
#include "types/u256.hpp"

namespace blockpilot::state {

enum class Field : std::uint8_t {
  kBalance = 0,
  kNonce = 1,
  kStorage = 2,
};

namespace detail {
/// FNV-1a over (addr, field[, slot]) finished with a splitmix64 avalanche.
/// The slot contributes only for storage keys so that balance/nonce keys
/// hash identically regardless of their (ignored) slot field — mirroring
/// StateKey::operator==.
constexpr std::size_t state_key_hash(const Address& a, Field f,
                                     const U256& s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : a.bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  h ^= static_cast<std::uint64_t>(f);
  h *= 0x100000001b3ULL;
  if (f == Field::kStorage) {
    for (std::size_t i = 0; i < 4; ++i) {
      h ^= s.limb(i);
      h *= 0x100000001b3ULL;
    }
  }
  // splitmix64 finalizer: every input bit avalanches into every output
  // bit, so stripe (low bits) and stamp-slot (next bits) indices stay
  // uniform even for sequential ids/slots.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<std::size_t>(h);
}
}  // namespace detail

struct StateKey {
  Address addr;
  Field field = Field::kBalance;
  U256 slot;  // meaningful only when field == kStorage
  /// Cached hash; kept in sync by the constructors.  Code that mutates
  /// addr/field/slot in place (codecs, tests) must call rehash() before the
  /// key is used in any hashed container or stripe lookup.
  std::size_t hash = kEmptyHash;

  constexpr StateKey() noexcept = default;
  StateKey(const Address& a, Field f, const U256& s) noexcept
      : addr(a), field(f), slot(s), hash(compute_hash(a, f, s)) {}

  static StateKey balance(const Address& a) noexcept {
    return StateKey{a, Field::kBalance, U256{}};
  }
  static StateKey nonce(const Address& a) noexcept {
    return StateKey{a, Field::kNonce, U256{}};
  }
  static StateKey storage(const Address& a, const U256& s) noexcept {
    return StateKey{a, Field::kStorage, s};
  }

  /// Recomputes the cached hash after direct field mutation.
  void rehash() noexcept { hash = compute_hash(addr, field, slot); }

  /// See detail::state_key_hash.
  static constexpr std::size_t compute_hash(const Address& a, Field f,
                                            const U256& s) noexcept {
    return detail::state_key_hash(a, f, s);
  }

  /// Hash of the default-constructed (zero-address balance) key.
  static constexpr std::size_t kEmptyHash =
      detail::state_key_hash(Address{}, Field::kBalance, U256{});

  friend bool operator==(const StateKey& a, const StateKey& b) noexcept {
    return a.field == b.field && a.addr == b.addr &&
           (a.field != Field::kStorage || a.slot == b.slot);
  }

  std::string to_string() const;
};

/// Deterministic total order (address, field, slot) used wherever key sets
/// must serialize bit-stably (profiles, write sets).
inline bool state_key_less(const StateKey& a, const StateKey& b) noexcept {
  if (a.addr != b.addr) return a.addr < b.addr;
  if (a.field != b.field) return a.field < b.field;
  return a.slot < b.slot;
}

}  // namespace blockpilot::state

template <>
struct std::hash<blockpilot::state::StateKey> {
  std::size_t operator()(const blockpilot::state::StateKey& k) const noexcept {
    return k.hash;  // precomputed at construction
  }
};

#include "trie/proof.hpp"

#include <cstring>

#include "support/assert.hpp"
#include "trie/mpt_node.hpp"

namespace blockpilot::trie {
namespace {

using detail::MptNode;

std::size_t common_prefix(std::span<const std::uint8_t> a,
                          std::span<const std::uint8_t> b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

}  // namespace

Proof prove(const MerklePatriciaTrie& trie,
            std::span<const std::uint8_t> key) {
  Proof proof;
  const Nibbles nibbles = to_nibbles(key);
  std::span<const std::uint8_t> remaining(nibbles);
  const MptNode* node = trie.root_node();

  while (node != nullptr) {
    detail::resolved(node);
    proof.nodes.push_back(detail::encode_node(node));
    switch (node->kind) {
      case MptNode::Kind::kLeaf:
        return proof;  // match or divergence — either way, the path ends
      case MptNode::Kind::kExtension: {
        const std::size_t cp = common_prefix(node->path, remaining);
        if (cp < node->path.size()) return proof;  // diverged: absence
        remaining = remaining.subspan(node->path.size());
        node = node->child.get();
        break;
      }
      case MptNode::Kind::kBranch: {
        if (remaining.empty()) return proof;  // value (or absence) here
        const std::uint8_t nib = remaining[0];
        remaining = remaining.subspan(1);
        node = node->children()[nib].get();
        break;
      }
    }
  }
  return proof;
}

namespace {

/// Reference to the next node: either a 32-byte hash or an expected inline
/// encoding (for nodes shorter than 32 bytes).
struct ChildRef {
  bool is_hash = false;
  crypto::Digest hash{};
  rlp::Bytes inline_encoding;
  bool empty = true;
};

// Reads a child reference off a node's item list.  Anything that is neither
// an inline node, a nil string nor a 32-byte hash leaves `ref.empty` set.
ChildRef read_ref(rlp::Reader& items) {
  ChildRef ref;
  if (items.next_is_list()) {
    // Inline (< 32 byte) node embedded in the parent.
    const auto raw = items.raw();
    ref.empty = false;
    ref.inline_encoding.assign(raw.begin(), raw.end());
    return ref;
  }
  const auto str = items.bytes();
  if (str.size() == 32) {
    ref.empty = false;
    ref.is_hash = true;
    std::memcpy(ref.hash.data(), str.data(), 32);
  }
  return ref;
}

}  // namespace

ProofVerdict verify_proof(const Hash256& root,
                          std::span<const std::uint8_t> key,
                          const Proof& proof) {
  ProofVerdict verdict;

  // Empty trie: absence is proven by the canonical empty root alone.
  if (root == MerklePatriciaTrie::empty_root()) {
    verdict.ok = proof.nodes.empty();
    return verdict;
  }
  if (proof.nodes.empty()) return verdict;  // non-empty trie needs nodes

  const Nibbles nibbles = to_nibbles(key);
  std::span<const std::uint8_t> remaining(nibbles);

  ChildRef expected;
  expected.empty = false;
  expected.is_hash = true;
  expected.hash = root.bytes;

  for (std::size_t i = 0; i < proof.nodes.size(); ++i) {
    const rlp::Bytes& encoded = proof.nodes[i];
    // Link check against the parent's reference.
    if (expected.empty) return verdict;
    if (expected.is_hash) {
      const crypto::Digest digest = crypto::keccak256(std::span(encoded));
      if (digest != expected.hash) return verdict;
    } else if (encoded != expected.inline_encoding) {
      return verdict;
    }

    // Proof nodes come from outside the process: a malformed one is a
    // failed verification, never an abort.
    rlp::Reader in{std::span(encoded)};
    rlp::Reader items = in.list();
    in.finish();
    const std::size_t n = items.count();
    const bool last = i + 1 == proof.nodes.size();

    if (n == 17) {  // branch
      if (remaining.empty()) {
        for (int skip = 0; skip < 16; ++skip) items.raw();
        const auto value = items.bytes();
        if (!items.ok()) return verdict;
        verdict.ok = true;
        if (!value.empty()) verdict.value = Bytes(value.begin(), value.end());
        return verdict;
      }
      const std::uint8_t nib = remaining[0];
      remaining = remaining.subspan(1);
      for (std::uint8_t skip = 0; skip < nib; ++skip) items.raw();
      expected = read_ref(items);
      if (!items.ok()) return verdict;
      if (expected.empty) {
        // Nil child on the key's path: valid absence proof iff this is the
        // final proof node.
        verdict.ok = last;
        return verdict;
      }
      continue;
    }

    if (n != 2) return verdict;  // malformed node
    const auto hp = items.bytes();
    if (hp.empty()) return verdict;  // no hex-prefix flag nibble
    const auto [path, is_leaf] = hex_prefix_decode(hp);
    if (is_leaf) {  // leaf
      const auto value = items.bytes();
      if (!items.ok()) return verdict;
      verdict.ok = last;
      if (verdict.ok && path.size() == remaining.size() &&
          std::equal(path.begin(), path.end(), remaining.begin())) {
        verdict.value = Bytes(value.begin(), value.end());
      }
      return verdict;
    }
    // Extension.
    const std::size_t cp = common_prefix(path, remaining);
    if (cp < path.size()) {
      verdict.ok = last;  // divergence: absence
      return verdict;
    }
    remaining = remaining.subspan(path.size());
    expected = read_ref(items);
    if (!items.ok() || expected.empty) return verdict;  // needs a child
  }

  // Ran out of proof nodes while a child reference was still pending.
  return verdict;
}

}  // namespace blockpilot::trie

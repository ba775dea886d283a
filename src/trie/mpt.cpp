#include "trie/mpt.hpp"

#include <cstring>

#include "db/node_store.hpp"
#include "rlp/rlp.hpp"
#include "support/assert.hpp"
#include "support/thread_pool.hpp"
#include "trie/mpt_node.hpp"
#include "trie/node_cache.hpp"

namespace blockpilot::trie {

Nibbles to_nibbles(std::span<const std::uint8_t> key) {
  Nibbles out;
  out.reserve(key.size() * 2);
  for (auto b : key) {
    out.push_back(static_cast<std::uint8_t>(b >> 4));
    out.push_back(static_cast<std::uint8_t>(b & 0xf));
  }
  return out;
}

Bytes hex_prefix_encode(std::span<const std::uint8_t> nibbles, bool is_leaf) {
  Bytes out;
  const std::uint8_t flag = is_leaf ? 2 : 0;
  if (nibbles.size() % 2 == 0) {
    out.push_back(static_cast<std::uint8_t>(flag << 4));
    for (std::size_t i = 0; i < nibbles.size(); i += 2)
      out.push_back(
          static_cast<std::uint8_t>((nibbles[i] << 4) | nibbles[i + 1]));
  } else {
    out.push_back(static_cast<std::uint8_t>(((flag | 1) << 4) | nibbles[0]));
    for (std::size_t i = 1; i < nibbles.size(); i += 2)
      out.push_back(
          static_cast<std::uint8_t>((nibbles[i] << 4) | nibbles[i + 1]));
  }
  return out;
}

std::pair<Nibbles, bool> hex_prefix_decode(std::span<const std::uint8_t> hp) {
  BP_ASSERT(!hp.empty());
  const std::uint8_t flag = hp[0] >> 4;
  const bool is_leaf = (flag & 2) != 0;
  const bool odd = (flag & 1) != 0;
  Nibbles out;
  if (odd) out.push_back(hp[0] & 0xf);
  for (std::size_t i = 1; i < hp.size(); ++i) {
    out.push_back(static_cast<std::uint8_t>(hp[i] >> 4));
    out.push_back(static_cast<std::uint8_t>(hp[i] & 0xf));
  }
  return {std::move(out), is_leaf};
}

using Node = detail::MptNode;
using NodePtr = std::shared_ptr<Node>;

MerklePatriciaTrie::MerklePatriciaTrie() = default;
MerklePatriciaTrie::~MerklePatriciaTrie() = default;
MerklePatriciaTrie::MerklePatriciaTrie(MerklePatriciaTrie&&) noexcept = default;
MerklePatriciaTrie& MerklePatriciaTrie::operator=(MerklePatriciaTrie&&) noexcept =
    default;

// Persistent copy: shares the node graph; subsequent writes on either side
// path-copy, so the copies diverge without disturbing each other.
MerklePatriciaTrie::MerklePatriciaTrie(const MerklePatriciaTrie& other)
    : root_(other.root_), size_(other.size_) {}

MerklePatriciaTrie& MerklePatriciaTrie::operator=(
    const MerklePatriciaTrie& other) {
  if (this != &other) {
    root_ = other.root_;
    size_ = other.size_;
  }
  return *this;
}

namespace {

std::size_t common_prefix(std::span<const std::uint8_t> a,
                          std::span<const std::uint8_t> b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

// Returns a uniquely-owned, mutation-safe version of `node`: in place when
// this is the only reference (invalidating its hash memo), a shallow clone
// (children still shared) otherwise.  Callers must have moved the pointer
// out of its parent slot so use_count reflects true external sharing, and
// must take ownership top-down — owning a parent bumps its children's
// counts, so a shared ancestor can never leak an in-place child mutation.
NodePtr owned(NodePtr node) {
  if (node == nullptr) return node;
  if (node.use_count() == 1) {
    node->invalidate_ref();
    return node;
  }
  auto copy = std::make_shared<Node>();
  copy->kind = node->kind;
  copy->path = node->path;
  copy->value = node->value;
  copy->child = node->child;
  if (node->kids != nullptr)
    copy->kids = std::make_unique<Node::Children>(*node->kids);
  return copy;
}

// Inserts (key-suffix, value) into the subtree rooted at `node`, returning
// the (possibly replaced) subtree root. `inserted` reports whether a new key
// was added (vs overwritten).
NodePtr insert(NodePtr node, std::span<const std::uint8_t> key, Bytes value,
               bool& inserted) {
  if (node == nullptr) {
    inserted = true;
    return Node::leaf(Nibbles(key.begin(), key.end()), std::move(value));
  }
  detail::resolved(node.get());
  node = owned(std::move(node));

  switch (node->kind) {
    case Node::Kind::kLeaf: {
      const std::size_t cp = common_prefix(node->path, key);
      if (cp == node->path.size() && cp == key.size()) {
        node->value = std::move(value);  // overwrite
        inserted = false;
        return node;
      }
      // Split into a branch under a possible shared-prefix extension.
      auto branch = Node::branch();
      // Existing leaf moves under the branch.
      if (node->path.size() == cp) {
        branch->value = std::move(node->value);
      } else {
        const std::uint8_t idx = node->path[cp];
        Nibbles rest(node->path.begin() + static_cast<std::ptrdiff_t>(cp) + 1,
                     node->path.end());
        branch->children()[idx] =
            Node::leaf(std::move(rest), std::move(node->value));
      }
      // New key goes under the branch too.
      if (key.size() == cp) {
        branch->value = std::move(value);
      } else {
        const std::uint8_t idx = key[cp];
        Nibbles rest(key.begin() + static_cast<std::ptrdiff_t>(cp) + 1,
                     key.end());
        branch->children()[idx] = Node::leaf(std::move(rest), std::move(value));
      }
      inserted = true;
      if (cp == 0) return branch;
      Nibbles shared(key.begin(), key.begin() + static_cast<std::ptrdiff_t>(cp));
      return Node::extension(std::move(shared), std::move(branch));
    }

    case Node::Kind::kExtension: {
      const std::size_t cp = common_prefix(node->path, key);
      if (cp == node->path.size()) {
        node->child =
            insert(std::move(node->child), key.subspan(cp), std::move(value),
                   inserted);
        return node;
      }
      // Split the extension at the divergence point.
      auto branch = Node::branch();
      {
        const std::uint8_t idx = node->path[cp];
        Nibbles rest(node->path.begin() + static_cast<std::ptrdiff_t>(cp) + 1,
                     node->path.end());
        if (rest.empty()) {
          branch->children()[idx] = std::move(node->child);
        } else {
          branch->children()[idx] =
              Node::extension(std::move(rest), std::move(node->child));
        }
      }
      if (key.size() == cp) {
        branch->value = std::move(value);
      } else {
        const std::uint8_t idx = key[cp];
        Nibbles rest(key.begin() + static_cast<std::ptrdiff_t>(cp) + 1,
                     key.end());
        branch->children()[idx] = Node::leaf(std::move(rest), std::move(value));
      }
      inserted = true;
      if (cp == 0) return branch;
      Nibbles shared(key.begin(), key.begin() + static_cast<std::ptrdiff_t>(cp));
      return Node::extension(std::move(shared), std::move(branch));
    }

    case Node::Kind::kBranch: {
      if (key.empty()) {
        inserted = node->value.empty();
        node->value = std::move(value);
        return node;
      }
      const std::uint8_t idx = key[0];
      node->children()[idx] = insert(std::move(node->children()[idx]),
                                   key.subspan(1), std::move(value), inserted);
      return node;
    }
  }
  BP_ASSERT_MSG(false, "unreachable node kind");
}

const Bytes* lookup(const Node* node, std::span<const std::uint8_t> key) {
  while (node != nullptr) {
    detail::resolved(node);
    switch (node->kind) {
      case Node::Kind::kLeaf:
        if (key.size() == node->path.size() &&
            std::equal(key.begin(), key.end(), node->path.begin()))
          return &node->value;
        return nullptr;
      case Node::Kind::kExtension: {
        const std::size_t n = node->path.size();
        if (key.size() < n ||
            !std::equal(node->path.begin(), node->path.end(), key.begin()))
          return nullptr;
        key = key.subspan(n);
        node = node->child.get();
        break;
      }
      case Node::Kind::kBranch:
        if (key.empty()) return node->value.empty() ? nullptr : &node->value;
        node = node->children()[key[0]].get();
        key = key.subspan(1);
        break;
    }
  }
  return nullptr;
}

// Collapses a branch that lost children down to the minimal canonical form.
// `node` must be uniquely owned (the remove path guarantees it).
NodePtr normalize_branch(NodePtr node) {
  int child_count = 0;
  int only_idx = -1;
  for (int i = 0; i < 16; ++i) {
    if (node->children()[static_cast<std::size_t>(i)] != nullptr) {
      ++child_count;
      only_idx = i;
    }
  }
  const bool has_value = !node->value.empty();
  if (child_count == 0) {
    if (!has_value) return nullptr;
    return Node::leaf({}, std::move(node->value));
  }
  if (child_count == 1 && !has_value) {
    NodePtr child =
        std::move(node->children()[static_cast<std::size_t>(only_idx)]);
    const auto idx = static_cast<std::uint8_t>(only_idx);
    detail::resolved(child.get());
    switch (child->kind) {
      case Node::Kind::kLeaf:
      case Node::Kind::kExtension: {
        child = owned(std::move(child));  // its path is about to change
        Nibbles merged;
        merged.reserve(1 + child->path.size());
        merged.push_back(idx);
        merged.insert(merged.end(), child->path.begin(), child->path.end());
        child->path = std::move(merged);
        return child;
      }
      case Node::Kind::kBranch:
        return Node::extension({idx}, std::move(child));
    }
  }
  return node;
}

NodePtr remove(NodePtr node, std::span<const std::uint8_t> key,
               bool& removed) {
  if (node == nullptr) return nullptr;
  detail::resolved(node.get());
  switch (node->kind) {
    case Node::Kind::kLeaf:
      if (key.size() == node->path.size() &&
          std::equal(key.begin(), key.end(), node->path.begin())) {
        removed = true;
        return nullptr;
      }
      return node;

    case Node::Kind::kExtension: {
      const std::size_t n = node->path.size();
      if (key.size() < n ||
          !std::equal(node->path.begin(), node->path.end(), key.begin()))
        return node;
      node = owned(std::move(node));
      node->child = remove(std::move(node->child), key.subspan(n), removed);
      if (!removed) return node;
      if (node->child == nullptr) return nullptr;
      // Merge with the (possibly collapsed) child to stay canonical.
      if (node->child->kind == Node::Kind::kBranch) return node;
      NodePtr child = owned(std::move(node->child));
      Nibbles merged = node->path;
      merged.insert(merged.end(), child->path.begin(), child->path.end());
      child->path = std::move(merged);
      return child;
    }

    case Node::Kind::kBranch: {
      if (key.empty()) {
        if (node->value.empty()) return node;
        node = owned(std::move(node));
        removed = true;
        node->value.clear();
        return normalize_branch(std::move(node));
      }
      const std::uint8_t idx = key[0];
      node = owned(std::move(node));
      node->children()[idx] =
          remove(std::move(node->children()[idx]), key.subspan(1), removed);
      if (!removed) return node;
      return normalize_branch(std::move(node));
    }
  }
  BP_ASSERT_MSG(false, "unreachable node kind");
}

}  // namespace

namespace detail {

std::span<const std::uint8_t> node_ref(const MptNode* node) {
  // Fast path: published memo.
  if (node->ref_ready.load(std::memory_order_acquire))
    return node->cached_ref();
  // Serialize the first computation across tries sharing this node.  Lock
  // order is strictly parent-before-child along an acyclic node graph, so
  // nested acquisition in encode_node below cannot deadlock.
  while (node->ref_lock.test_and_set(std::memory_order_acquire)) {
  }
  if (!node->ref_ready.load(std::memory_order_relaxed)) {
    const Bytes encoded = encode_node(node);
    if (encoded.size() < 32) {
      node->set_ref(encoded);
    } else {
      node->set_ref(crypto::keccak256(std::span(encoded)));
    }
    node->ref_ready.store(true, std::memory_order_release);
  }
  node->ref_lock.clear(std::memory_order_release);
  return node->cached_ref();
}

// A reference to a child node: inline RLP when < 32 bytes, else the keccak
// hash as a 32-byte string.
void append_reference(rlp::Encoder& enc, const Node* node) {
  if (node == nullptr) {
    enc.add(std::span<const std::uint8_t>{});
    return;
  }
  const std::span<const std::uint8_t> ref = node_ref(node);
  if (ref.size() < 32) {
    enc.add_raw(ref);
  } else {
    enc.add(ref);
  }
}

namespace {

std::shared_ptr<MptNode> read_child(rlp::Reader& in,
                                    const db::NodeStore* store);

// Fills `node`'s structural fields from one node encoding read off `in`.
// Child items are either nil (empty string), a 32-byte hash (becomes an
// unloaded stub on the same store), or a nested list (an inline node,
// rebuilt eagerly with its encoding as the inline ref memo, so re-encoding
// is bit-identical).
void read_node(MptNode& node, rlp::Reader& in, const db::NodeStore* store) {
  rlp::Reader items = in.list();
  const std::size_t n = items.count();
  if (n == 17) {
    node.kind = MptNode::Kind::kBranch;
    node.kids = std::make_unique<MptNode::Children>();
    for (std::size_t i = 0; i < 16; ++i)
      node.children()[i] = read_child(items, store);
    const auto value = items.bytes();
    node.value.assign(value.begin(), value.end());
    return;
  }
  const auto hp = items.bytes();
  if (n != 2 || hp.empty()) {  // a node is a branch, a leaf or an extension
    items.fail();
    return;
  }
  auto [path, is_leaf] = hex_prefix_decode(hp);
  node.path = std::move(path);
  if (is_leaf) {
    node.kind = MptNode::Kind::kLeaf;
    const auto value = items.bytes();
    node.value.assign(value.begin(), value.end());
    return;
  }
  node.kind = MptNode::Kind::kExtension;
  node.child = read_child(items, store);
  if (node.child == nullptr) items.fail();  // an extension needs a child
}

std::shared_ptr<MptNode> read_child(rlp::Reader& in,
                                    const db::NodeStore* store) {
  if (in.next_is_list()) {
    // Only an encoding under 32 bytes is inlined; checking that before
    // descending also bounds how deep inline nodes can nest.
    const auto raw = in.raw();
    if (raw.size() >= 32) {
      in.fail();
      return nullptr;
    }
    auto n = std::make_shared<MptNode>();
    rlp::Reader child(raw);
    read_node(*n, child, store);
    if (!child.ok()) in.fail();
    n->set_ref(raw);
    n->ref_ready.store(true, std::memory_order_release);
    return n;
  }
  const auto ref = in.bytes();
  if (ref.empty()) return nullptr;
  if (ref.size() != 32) {  // nil, inline, or a 32-byte hash
    in.fail();
    return nullptr;
  }
  Hash256 h;
  std::memcpy(h.bytes.data(), ref.data(), 32);
  return MptNode::stub(h, store);
}

}  // namespace

void load_stub(const MptNode* node) {
  while (node->ref_lock.test_and_set(std::memory_order_acquire)) {
  }
  if (!node->loaded.load(std::memory_order_relaxed)) {
    BP_ASSERT_MSG(node->store != nullptr, "stub without a backing store");
    BP_ASSERT(node->ref_size == 32);
    Hash256 h;
    std::memcpy(h.bytes.data(), node->ref.data(), 32);
    // Read-through the global NodeCache: a hit skips the store entirely; a
    // miss fetches, verifies the record against its hash, then caches it.
    auto& cache = NodeCache::global();
    Bytes enc;
    if (auto cached = cache.get(h); cached.has_value()) {
      enc = std::move(*cached);
    } else {
      const db::Status st = node->store->get(h, enc);
      BP_ASSERT_MSG(st.ok(), "node store lost a node the trie references");
      BP_ASSERT_MSG(Hash256{crypto::keccak256(std::span(enc))} == h,
                    "stored encoding does not hash to its ref");
      cache.put(h, std::span(enc));
    }
    auto* mut = const_cast<MptNode*>(node);
    rlp::Reader in{std::span(enc)};
    read_node(*mut, in, node->store);
    in.finish();
    BP_ASSERT_MSG(in.ok(), "malformed trie node encoding");
    // A tiny (< 32 byte) encoding can only be a root loaded eagerly by
    // from_root (a child stub implies a hashed parent ref): rewrite the
    // memo to the canonical inline form before anyone else can see it.
    if (enc.size() < 32) mut->set_ref(enc);
    mut->loaded.store(true, std::memory_order_release);
  }
  node->ref_lock.clear(std::memory_order_release);
}

Bytes encode_node(const Node* node) {
  rlp::Encoder enc;
  switch (node->kind) {
    case Node::Kind::kLeaf: {
      const Bytes hp = hex_prefix_encode(node->path, /*is_leaf=*/true);
      enc.begin_list().add(std::span(hp)).add(std::span(node->value)).end_list();
      break;
    }
    case Node::Kind::kExtension: {
      const Bytes hp = hex_prefix_encode(node->path, /*is_leaf=*/false);
      enc.begin_list().add(std::span(hp));
      append_reference(enc, node->child.get());
      enc.end_list();
      break;
    }
    case Node::Kind::kBranch: {
      enc.begin_list();
      for (const auto& child : node->children())
        append_reference(enc, child.get());
      enc.add(std::span(node->value));
      enc.end_list();
      break;
    }
  }
  return enc.take();
}

}  // namespace detail

void MerklePatriciaTrie::put(std::span<const std::uint8_t> key,
                             std::span<const std::uint8_t> value) {
  if (value.empty()) {
    erase(key);
    return;
  }
  const Nibbles nibbles = to_nibbles(key);
  bool inserted = false;
  root_ = insert(std::move(root_), std::span(nibbles),
                 Bytes(value.begin(), value.end()), inserted);
  if (inserted) ++size_;
}

std::optional<Bytes> MerklePatriciaTrie::get(
    std::span<const std::uint8_t> key) const {
  const Nibbles nibbles = to_nibbles(key);
  const Bytes* found = lookup(root_.get(), std::span(nibbles));
  if (found == nullptr) return std::nullopt;
  return *found;
}

void MerklePatriciaTrie::erase(std::span<const std::uint8_t> key) {
  const Nibbles nibbles = to_nibbles(key);
  bool removed = false;
  root_ = remove(std::move(root_), std::span(nibbles), removed);
  // from_root tries report size 0 (unknown), so guard the decrement.
  if (removed && size_ > 0) --size_;
}

namespace {

// The children of `node` that are hash-referenced (persist) or not yet
// hashed (root_hash), in nibble order; nulls and inline children skipped
// per `keep`.  Leaves have none.
template <class Keep>
std::size_t children_where(const Node* node, std::array<const Node*, 16>& out,
                           Keep keep) {
  std::size_t n = 0;
  const auto add = [&](const Node* child) {
    if (child != nullptr && keep(child)) out[n++] = child;
  };
  if (node->kind == Node::Kind::kExtension) {
    add(node->child.get());
  } else if (node->kind == Node::Kind::kBranch) {
    for (const auto& child : node->children()) add(child.get());
  }
  return n;
}

bool unhashed(const Node* node) {
  return !node->ref_ready.load(std::memory_order_acquire);
}

// Hashes the subtries that root_hash() would hash serially across lanes:
// descends while a single child is unhashed, then runs each unhashed
// child as one lane.  Unhashed nodes are never unloaded stubs (a stub's
// ref is ready from birth), so their fields are readable.
void hash_subtries(const Node* node, ThreadPool& lanes) {
  std::array<const Node*, 16> todo;
  std::size_t n = 0;
  while (unhashed(node)) {
    n = children_where(node, todo, unhashed);
    if (n != 1) break;
    node = todo[0];
  }
  if (n < 2) return;
  lanes.fork_join(n,
                  [&todo](std::size_t i) { (void)detail::node_ref(todo[i]); });
}

// A hash-referenced node's reference as a Hash256.
Hash256 ref_hash(const Node* node) {
  const std::span<const std::uint8_t> ref = detail::node_ref(node);
  BP_ASSERT(ref.size() == 32);
  Hash256 h;
  std::memcpy(h.bytes.data(), ref.data(), 32);
  return h;
}

void put_ok(const db::Status& st) {
  BP_ASSERT_MSG(st.ok(), "node store put failed");
}

// Persists `node`, a hash-referenced node the store does not hold, and
// every new node below it.  Prunes at children the store already holds
// (content-addressing: an identical hash is an identical subtree; one
// contains_mask() per node asks for all of its children) and never
// descends into inline children — their whole subtree is embedded in this
// node's encoding.
//
// POST-ORDER on purpose: children append strictly before their parent.
// Crash recovery truncates a *suffix* of the append-only file (everything
// past the last durability barrier), so with post-order appends a node's
// presence implies its whole closure's presence — which is exactly what
// makes the contains() prune sound even against a barrier that races an
// in-flight persist, and what lets persist_commitment() early-out on a
// root the store already holds.  (Compaction preserves the invariant
// differently: the rewritten file is adopted atomically via the manifest,
// never as a partially-trusted prefix.)
//
// With `lanes`, the walk fans out at the first node with two or more new
// children: each child's subtree is one lane, walked serially into a
// deferred batch, and after the join the lanes' batches join `out` in
// order, then this node.  Lanes only probe the store while they walk.  Lanes
// racing on a node that two subtrees share both find it absent, both walk
// it post-order, and the store keeps the first put; either way every
// appended node still follows its children in the file.
std::size_t persist_new(const Node* node, const Hash256& hash,
                        db::PutBatch& out, ThreadPool* lanes) {
  // An unloaded stub only reaches here when persisting into a *different*
  // store than it came from; materialize it first.
  detail::resolved(node);
  std::array<const Node*, 16> kids;
  const std::size_t n = children_where(node, kids, [](const Node* child) {
    return detail::node_ref(child).size() == 32;
  });
  std::array<Hash256, 16> hashes;
  for (std::size_t i = 0; i < n; ++i) hashes[i] = ref_hash(kids[i]);
  const std::uint64_t stored =
      out.store().contains_mask(std::span(hashes.data(), n));
  std::size_t m = 0;  // new children, compacted to the front
  for (std::size_t i = 0; i < n; ++i) {
    if ((stored >> i) & 1) continue;
    kids[m] = kids[i];
    hashes[m++] = hashes[i];
  }
  std::size_t appended = 1;
  if (lanes != nullptr && m > 1) {
    std::vector<db::PutBatch> lane_out(m, out.deferred());
    std::array<std::size_t, 16> lane_appended{};
    lanes->fork_join(m, [&](std::size_t i) {
      lane_appended[i] = persist_new(kids[i], hashes[i], lane_out[i], nullptr);
    });
    for (std::size_t i = 0; i < m; ++i) {
      put_ok(out.append(std::move(lane_out[i])));
      appended += lane_appended[i];
    }
  } else {
    for (std::size_t i = 0; i < m; ++i)
      appended += persist_new(kids[i], hashes[i], out, lanes);
  }
  put_ok(out.put(hash, detail::encode_node(node)));
  return appended;
}

}  // namespace

Hash256 MerklePatriciaTrie::root_hash(ThreadPool* lanes) const {
  if (root_ == nullptr) return empty_root();
  if (lanes != nullptr) hash_subtries(root_.get(), *lanes);
  const std::span<const std::uint8_t> ref = detail::node_ref(root_.get());
  if (ref.size() == 32) {
    Hash256 h;
    std::memcpy(h.bytes.data(), ref.data(), 32);
    return h;
  }
  // Tiny root whose encoding inlines below 32 bytes: the root is always
  // hashed regardless (yellow paper), and the inline ref IS the encoding.
  return Hash256{crypto::keccak256(ref)};
}

MerklePatriciaTrie MerklePatriciaTrie::from_root(const Hash256& root,
                                                 const db::NodeStore& store) {
  MerklePatriciaTrie trie;
  if (root == empty_root()) return trie;
  auto stub = detail::MptNode::stub(root, &store);
  // Eager root load: validates the root exists and, for a tiny root,
  // rewrites the ref memo to the canonical inline form while the node is
  // still private to this call (no concurrent readers yet).
  detail::resolved(stub.get());
  trie.root_ = std::move(stub);
  return trie;
}

std::size_t MerklePatriciaTrie::persist_nodes(db::NodeStore& store) const {
  db::WriteSession session(store);
  db::PutBatch out(session);
  const std::size_t appended = persist_nodes(out);
  put_ok(out.flush());
  return appended;
}

std::size_t MerklePatriciaTrie::persist_nodes(db::PutBatch& out,
                                              ThreadPool* lanes) const {
  if (root_ == nullptr) return 0;
  const std::span<const std::uint8_t> ref = detail::node_ref(root_.get());
  if (ref.size() == 32) {
    const Hash256 h = ref_hash(root_.get());
    if (out.store().contains(h)) return 0;
    return persist_new(root_.get(), h, out, lanes);
  }
  // Tiny root: its inline ref IS the encoding; store it under its keccak so
  // from_root(root_hash()) can find it.
  const Hash256 h{crypto::keccak256(ref)};
  if (out.store().contains(h)) return 0;
  put_ok(out.put(h, Bytes(ref.begin(), ref.end())));
  return 1;
}

Hash256 MerklePatriciaTrie::empty_root() {
  // keccak256(rlp("")) == keccak256(0x80).
  static const Hash256 kEmpty = [] {
    const std::uint8_t empty_rlp = 0x80;
    return Hash256{crypto::keccak256(std::span(&empty_rlp, 1))};
  }();
  return kEmpty;
}

}  // namespace blockpilot::trie

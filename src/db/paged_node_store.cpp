#include "db/paged_node_store.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>
#include <unordered_set>
#include <vector>

#include "support/assert.hpp"
#include "support/stopwatch.hpp"

namespace blockpilot::db {

namespace {

constexpr std::uint32_t kManifestMagic = 0x42506d46;  // "BPmF"
constexpr std::uint32_t kManifestVersion = 1;
constexpr std::size_t kManifestSlotSize = 128;
constexpr std::size_t kManifestChecksumOff = 120;

void store_u32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_u64(std::uint8_t* p, std::uint64_t v) noexcept {
  store_u32(p, static_cast<std::uint32_t>(v));
  store_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  return static_cast<std::uint64_t>(load_u32(p)) |
         (static_cast<std::uint64_t>(load_u32(p + 4)) << 32);
}

std::uint64_t slot_checksum(std::span<const std::uint8_t> slot) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < slot.size(); ++i) {
    const bool in_field =
        i >= kManifestChecksumOff && i < kManifestChecksumOff + 8;
    h ^= in_field ? 0 : slot[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct ManifestSlot {
  std::uint64_t generation = 0;
  std::uint64_t height = 0;
  Hash256 root;
  std::uint64_t sealed_pages = 0;
  std::uint32_t file_seq = 1;
  std::uint32_t page_size = 4096;
  std::uint64_t total_record_bytes = 0;
};

void encode_slot(const ManifestSlot& m, std::uint8_t* out) {
  std::memset(out, 0, kManifestSlotSize);
  store_u32(out, kManifestMagic);
  store_u32(out + 4, kManifestVersion);
  store_u64(out + 8, m.generation);
  store_u64(out + 16, m.height);
  std::memcpy(out + 24, m.root.bytes.data(), 32);
  store_u64(out + 56, m.sealed_pages);
  store_u32(out + 64, m.file_seq);
  store_u32(out + 68, m.page_size);
  store_u64(out + 72, m.total_record_bytes);
  store_u64(out + kManifestChecksumOff,
            slot_checksum(std::span(out, kManifestSlotSize)));
}

bool decode_slot(std::span<const std::uint8_t> in, ManifestSlot& m) {
  if (in.size() < kManifestSlotSize) return false;
  if (load_u32(in.data()) != kManifestMagic) return false;
  if (load_u32(in.data() + 4) != kManifestVersion) return false;
  if (load_u64(in.data() + kManifestChecksumOff) !=
      slot_checksum(in.subspan(0, kManifestSlotSize)))
    return false;
  m.generation = load_u64(in.data() + 8);
  m.height = load_u64(in.data() + 16);
  std::memcpy(m.root.bytes.data(), in.data() + 24, 32);
  m.sealed_pages = load_u64(in.data() + 56);
  m.file_seq = load_u32(in.data() + 64);
  m.page_size = load_u32(in.data() + 68);
  m.total_record_bytes = load_u64(in.data() + 72);
  return m.page_size > PageFile::kPageHeaderSize + PageFile::kRecordHeaderSize;
}

// ---- liveness: candidate child refs of one node encoding -----------------
//
// A tolerant, non-asserting RLP bounds walk.  Every 32-byte string item is
// a candidate child ref (the caller gates on index membership, so a value
// that merely *looks* like a hash only over-approximates liveness), and
// string payloads that themselves parse as complete RLP are walked too —
// that is how the account-leaf value's embedded storageRoot keeps the
// account's storage trie alive across the account -> storage link.

bool parse_header(std::span<const std::uint8_t> d, std::size_t& pos,
                  bool& is_list, std::size_t& off, std::size_t& len) {
  if (pos >= d.size()) return false;
  const std::uint8_t b = d[pos];
  std::size_t lol = 0;
  if (b < 0x80) {
    is_list = false;
    off = pos;
    len = 1;
    pos += 1;
    return true;
  }
  if (b <= 0xb7) {
    is_list = false;
    len = b - 0x80;
    off = pos + 1;
  } else if (b <= 0xbf) {
    is_list = false;
    lol = b - 0xb7;
  } else if (b <= 0xf7) {
    is_list = true;
    len = b - 0xc0;
    off = pos + 1;
  } else {
    is_list = true;
    lol = b - 0xf7;
  }
  if (lol > 0) {
    if (lol > 8 || pos + 1 + lol > d.size()) return false;
    len = 0;
    for (std::size_t i = 0; i < lol; ++i)
      len = (len << 8) | d[pos + 1 + i];
    off = pos + 1 + lol;
  }
  if (off + len > d.size()) return false;
  pos = off + len;
  return true;
}

bool collect_candidates(std::span<const std::uint8_t> d, int depth,
                        std::vector<Hash256>& out) {
  if (depth > 32) return false;
  std::size_t pos = 0;
  while (pos < d.size()) {
    bool is_list;
    std::size_t off, len;
    if (!parse_header(d, pos, is_list, off, len)) return false;
    const auto payload = d.subspan(off, len);
    if (is_list) {
      if (!collect_candidates(payload, depth + 1, out)) return false;
    } else {
      if (len == 32) {
        Hash256 h;
        std::memcpy(h.bytes.data(), payload.data(), 32);
        out.push_back(h);
      }
      if (len > 1) {
        // Speculatively walk the string's content as nested RLP; discard
        // its candidates unless the whole payload parses.
        std::vector<Hash256> nested;
        if (collect_candidates(payload, depth + 1, nested))
          out.insert(out.end(), nested.begin(), nested.end());
      }
    }
  }
  return true;
}

// Records are {32-byte hash, encoding}.
Hash256 record_hash(std::span<const std::uint8_t> rec) {
  Hash256 h;
  std::memcpy(h.bytes.data(), rec.data(), 32);
  return h;
}

Status check_records(const PageFile::Image& image) {
  for (const auto& [ref, rec] : image.records)
    if (rec.size() < 32)
      return Status::error(ErrorCode::kCorruptPage,
                           "record shorter than a node hash");
  return Status::Ok();
}

Status io_error(const char* what, const std::string& path) {
  return Status::error(ErrorCode::kIo, std::string(what) + " failed for " +
                                           path + ": " + std::strerror(errno));
}

}  // namespace

std::string PagedNodeStore::data_file_name(std::uint64_t seq) {
  return "nodes." + std::to_string(seq) + ".bpdb";
}

PagedNodeStore::PagedNodeStore(std::string dir, const Options& opts)
    : dir_(std::move(dir)), opts_(opts) {}

PagedNodeStore::~PagedNodeStore() {
  // Rendezvous with a background sweep still running on the pool.
  while (sweep_inflight_.load(std::memory_order_acquire))
    std::this_thread::yield();
  if (manifest_fd_ >= 0) ::close(manifest_fd_);
}

Status PagedNodeStore::open(const std::string& dir, const Options& opts,
                            std::unique_ptr<PagedNodeStore>& out) {
  std::unique_ptr<PagedNodeStore> store(new PagedNodeStore(dir, opts));

  const std::string manifest_path = dir + "/MANIFEST.bpdb";
  store->manifest_fd_ =
      ::open(manifest_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (store->manifest_fd_ < 0) return io_error("open", manifest_path);

  bool fresh = false;
  Status st = store->load_or_init_manifest(fresh);
  if (!st.ok()) return st;

  // Drop data files the manifest does not own: everything on a fresh
  // store (nothing was ever durable), and stale generations left behind
  // by a crashed compaction otherwise.
  if (DIR* d = ::opendir(dir.c_str()); d != nullptr) {
    const std::string keep = fresh ? "" : data_file_name(store->file_seq_);
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name.rfind("nodes.", 0) == 0 && name != keep)
        (void)PageFile::unlink(dir + "/" + name);
    }
    ::closedir(d);
  }

  PageFile::Options fopts;
  fopts.page_size = store->opts_.page_size;
  std::unique_ptr<PageFile> file;
  st = PageFile::open(dir + "/" + data_file_name(store->file_seq_), fopts,
                      fresh ? UINT64_MAX : store->durable_pages_hint_, file);
  if (!st.ok()) return st;
  store->file_ = std::move(file);

  if (!fresh) {
    st = store->rebuild_index_locked();
    if (!st.ok()) return st;
  }
  out = std::move(store);
  return Status::Ok();
}

Status PagedNodeStore::load_or_init_manifest(bool& fresh) {
  std::uint8_t buf[2 * kManifestSlotSize] = {};
  const ssize_t n = ::pread(manifest_fd_, buf, sizeof(buf), 0);
  if (n < 0) return io_error("pread", dir_ + "/MANIFEST.bpdb");
  if (n == 0) {
    fresh = true;
    return Status::Ok();
  }
  ManifestSlot a, b;
  const bool a_ok = decode_slot(std::span(buf, kManifestSlotSize), a);
  const bool b_ok = static_cast<std::size_t>(n) >= 2 * kManifestSlotSize &&
                    decode_slot(std::span(buf + kManifestSlotSize,
                                          kManifestSlotSize),
                                b);
  if (!a_ok && !b_ok)
    return Status::error(ErrorCode::kBadManifest,
                         "no decodable manifest slot in " + dir_);
  const ManifestSlot& best =
      (a_ok && b_ok) ? (a.generation >= b.generation ? a : b)
                     : (a_ok ? a : b);
  manifest_gen_ = best.generation;
  durable_root_ = best.root;
  durable_height_ = best.height;
  file_seq_ = best.file_seq;
  opts_.page_size = best.page_size;  // the file's geometry wins
  durable_pages_hint_ = best.sealed_pages;
  recent_roots_.emplace_back(durable_root_, commit_gen_);
  fresh = false;
  return Status::Ok();
}

Status PagedNodeStore::write_manifest_locked(const Hash256& root,
                                             std::uint64_t height) {
  ManifestSlot m;
  m.generation = manifest_gen_ + 1;
  m.height = height;
  m.root = root;
  m.sealed_pages = file_->sealed_pages();
  m.file_seq = static_cast<std::uint32_t>(file_seq_);
  m.page_size = static_cast<std::uint32_t>(file_->page_size());
  m.total_record_bytes = total_record_bytes_;
  std::uint8_t slot[kManifestSlotSize];
  encode_slot(m, slot);
  const off_t at =
      static_cast<off_t>((m.generation % 2) * kManifestSlotSize);
  std::size_t done = 0;
  while (done < sizeof(slot)) {
    const ssize_t n = ::pwrite(manifest_fd_, slot + done,
                               sizeof(slot) - done, at + done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return io_error("pwrite", dir_ + "/MANIFEST.bpdb");
    }
    done += static_cast<std::size_t>(n);
  }
  if (::fsync(manifest_fd_) != 0)
    return io_error("fsync", dir_ + "/MANIFEST.bpdb");
  manifest_gen_ = m.generation;
  return Status::Ok();
}

Status PagedNodeStore::rebuild_index_locked() {
  PageFile::Image image;
  Status st = file_->scan(0, file_->sealed_pages(), image);
  if (st.ok()) st = check_records(image);
  if (!st.ok()) return st;
  for (const auto& [ref, rec] : image.records) {
    if (index_.emplace(record_hash(rec), ref).second) {
      total_record_bytes_ += rec.size();
      ++stats_.nodes;
      stats_.node_bytes += rec.size() - 32;
    }
  }
  stats_.recovered_nodes = index_.size();
  return Status::Ok();
}

namespace {

// A record is {32-byte hash, encoding}; built off the store lock.
void append_record(std::vector<std::uint8_t>& out, const Hash256& hash,
                   std::span<const std::uint8_t> encoding) {
  out.insert(out.end(), hash.bytes.begin(), hash.bytes.end());
  out.insert(out.end(), encoding.begin(), encoding.end());
}

}  // namespace

Status PagedNodeStore::put_locked(const Hash256& hash,
                                  std::span<const std::uint8_t> rec) {
  if (index_.contains(hash)) {
    ++stats_.dup_puts;
    return Status::Ok();
  }
  PageRef ref;
  const Status st = file_->append(rec, ref);
  if (!st.ok()) return st;
  index_.emplace(hash, ref);
  total_record_bytes_ += rec.size();
  recent_puts_[hash] = commit_gen_;
  if (compacting_) puts_during_compaction_.push_back(hash);
  ++stats_.puts;
  ++stats_.nodes;
  stats_.node_bytes += rec.size() - 32;
  return Status::Ok();
}

Status PagedNodeStore::put(const Hash256& hash,
                           std::span<const std::uint8_t> encoding) {
  std::vector<std::uint8_t> rec;
  rec.reserve(32 + encoding.size());
  append_record(rec, hash, encoding);
  std::scoped_lock lk(mu_);
  return put_locked(hash, std::span(rec));
}

// Every record is laid out in one buffer before the lock is taken, so the
// lock covers only the index and the page appends.
Status PagedNodeStore::put_batch(std::span<const NodeRecord> nodes) {
  std::size_t bytes = 0;
  for (const NodeRecord& n : nodes) bytes += 32 + n.encoding.size();
  std::vector<std::uint8_t> recs;
  recs.reserve(bytes);
  for (const NodeRecord& n : nodes)
    append_record(recs, n.hash, std::span(n.encoding));
  std::scoped_lock lk(mu_);
  std::size_t at = 0;
  for (const NodeRecord& n : nodes) {
    const std::size_t len = 32 + n.encoding.size();
    const Status st = put_locked(n.hash, std::span(recs).subspan(at, len));
    if (!st.ok()) return st;
    at += len;
  }
  return Status::Ok();
}

Status PagedNodeStore::get_impl(const Hash256& hash,
                                std::vector<std::uint8_t>& out) const {
  const auto it = index_.find(hash);
  if (it == index_.end()) {
    ++stats_.get_misses;
    return Status::error(ErrorCode::kNotFound, "node not in store");
  }
  std::vector<std::uint8_t> rec;
  const Status st = file_->read(it->second, rec);
  if (!st.ok()) return st;
  if (rec.size() < 32 ||
      std::memcmp(rec.data(), hash.bytes.data(), 32) != 0)
    return Status::error(ErrorCode::kCorruptPage,
                         "stored record does not match its hash");
  out.assign(rec.begin() + 32, rec.end());
  ++stats_.gets;
  return Status::Ok();
}

Status PagedNodeStore::get(const Hash256& hash,
                           std::vector<std::uint8_t>& out) const {
  std::scoped_lock lk(mu_);
  return get_impl(hash, out);
}

bool PagedNodeStore::contains(const Hash256& hash) const {
  std::shared_lock lk(mu_);  // persist lanes probe side by side
  return index_.contains(hash);
}

std::uint64_t PagedNodeStore::contains_mask(
    std::span<const Hash256> hashes) const {
  BP_ASSERT(hashes.size() <= 64);
  std::shared_lock lk(mu_);
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < hashes.size(); ++i)
    if (index_.contains(hashes[i])) mask |= std::uint64_t{1} << i;
  return mask;
}

Status PagedNodeStore::commit_root(const Hash256& root,
                                   std::uint64_t height) {
  ThreadPool* sweep_pool = nullptr;
  {
    std::scoped_lock lk(mu_);
    Status st = file_->sync();
    if (!st.ok()) return st;
    st = write_manifest_locked(root, height);
    if (!st.ok()) return st;
    durable_root_ = root;
    durable_height_ = height;
    ++commit_gen_;
    ++stats_.roots_committed;
    recent_roots_.emplace_back(root, commit_gen_);
    while (recent_roots_.size() > opts_.retained_roots)
      recent_roots_.pop_front();
    // Age out the young-append horizon so the put map stays bounded.
    if (commit_gen_ % opts_.retained_roots == 0) {
      std::erase_if(recent_puts_, [&](const auto& kv) {
        return kv.second + opts_.retained_roots < commit_gen_;
      });
    }
    if (opts_.pool != nullptr && opts_.sweep_check_interval > 0 &&
        ++commits_since_sweep_ >= opts_.sweep_check_interval) {
      commits_since_sweep_ = 0;
      if (!sweep_inflight_.exchange(true, std::memory_order_acq_rel))
        sweep_pool = opts_.pool;
    }
  }
  if (sweep_pool != nullptr) {
    sweep_pool->submit([this] {
      (void)maybe_compact();
      sweep_inflight_.store(false, std::memory_order_release);
    });
  }
  return Status::Ok();
}

Hash256 PagedNodeStore::durable_root() const {
  std::scoped_lock lk(mu_);
  return durable_root_;
}

std::uint64_t PagedNodeStore::durable_height() const {
  std::scoped_lock lk(mu_);
  return durable_height_;
}

NodeStore::Stats PagedNodeStore::stats() const {
  std::scoped_lock lk(mu_);
  Stats s = stats_;
  s.file_bytes = file_->file_bytes();
  return s;
}

// The sweep's walk, shared by live_ratio().  The sealed prefix is the
// bulk of the file and never changes, so it is read (and checksummed) once
// without the lock; the BFS then runs over those bytes in memory.  Only
// nodes past the snapshot (the partial page) go through the locked get():
// a put racing the walk is reachable from no snapshot root, since trie
// nodes are persisted children first.
struct PagedNodeStore::LiveWalk {
  std::shared_ptr<const PageFile> file;  // pinned across a concurrent swap
  std::uint64_t pages = 0;               // sealed pages at the snapshot
  PageFile::Image image;
  std::deque<Bytes> fetched;  // records read through get(), past the snapshot
  std::vector<std::span<const std::uint8_t>> live;  // hash + encoding
  std::uint64_t live_bytes = 0;
  std::uint64_t total_bytes = 0;  // total_record_bytes_ at the snapshot

  double ratio() const {
    return total_bytes == 0 ? 1.0
                            : static_cast<double>(live_bytes) /
                                  static_cast<double>(total_bytes);
  }
};

Status PagedNodeStore::walk(LiveWalk& w) const {
  std::vector<Hash256> frontier;
  {
    std::scoped_lock lk(mu_);
    for (const auto& [root, gen] : recent_roots_) frontier.push_back(root);
    for (const auto& [hash, gen] : recent_puts_) frontier.push_back(hash);
    w.file = file_;
    w.pages = file_->sealed_pages();
    w.total_bytes = total_record_bytes_;
  }
  Status st = w.file->scan(0, w.pages, w.image);
  if (st.ok()) st = check_records(w.image);
  if (!st.ok()) return st;
  std::unordered_map<Hash256, std::span<const std::uint8_t>> sealed;
  sealed.reserve(w.image.records.size());
  for (const auto& [ref, rec] : w.image.records)
    sealed.emplace(record_hash(rec), rec);

  // Every candidate is looked up once: a foreign 32-byte value (a code
  // hash, a storage word) costs one miss, however often it recurs.
  std::unordered_set<Hash256> seen;
  std::vector<std::uint8_t> enc;
  std::vector<Hash256> kids;
  while (!frontier.empty()) {
    const Hash256 h = frontier.back();
    frontier.pop_back();
    if (!seen.insert(h).second) continue;
    std::span<const std::uint8_t> rec;
    if (const auto it = sealed.find(h); it != sealed.end()) {
      rec = it->second;
    } else {
      st = get(h, enc);
      if (st.code == ErrorCode::kNotFound) continue;  // zero root / foreign
      if (!st.ok()) return st;
      Bytes& owned = w.fetched.emplace_back(h.bytes.begin(), h.bytes.end());
      owned.insert(owned.end(), enc.begin(), enc.end());
      rec = owned;
    }
    w.live.push_back(rec);
    w.live_bytes += rec.size();
    kids.clear();
    (void)collect_candidates(rec.subspan(32), 0, kids);
    for (const Hash256& k : kids)
      if (!seen.contains(k)) frontier.push_back(k);
  }
  return Status::Ok();
}

double PagedNodeStore::live_ratio() const {
  LiveWalk w;
  if (!walk(w).ok()) return 1.0;
  return w.ratio();
}

Status PagedNodeStore::maybe_compact() { return sweep(true); }

Status PagedNodeStore::compact() { return sweep(false); }

// compacting_ is set before the walk's snapshot, so every put racing the
// sweep lands in puts_during_compaction_ whichever way the decision falls.
// Racing puts are kept with whatever of their closure the walk did not
// keep (a racing put may reference an old node no retained root reaches).
Status PagedNodeStore::sweep(bool only_if_sparse) {
  {
    std::scoped_lock lk(mu_);
    if (compacting_)
      return Status::error(ErrorCode::kBusy, "compaction already running");
    if (only_if_sparse && file_->file_bytes() < opts_.min_sweep_bytes)
      return Status::Ok();
    compacting_ = true;
    puts_during_compaction_.clear();
  }
  const std::uint64_t new_seq = file_seq_ + 1;
  const std::string new_path = dir_ + "/" + data_file_name(new_seq);
  auto abort_compaction = [&](Status why) {
    (void)PageFile::unlink(new_path);
    std::scoped_lock lk(mu_);
    compacting_ = false;
    puts_during_compaction_.clear();
    return why;
  };

  const Stopwatch walk_clock;
  LiveWalk w;
  Status st = walk(w);
  if (!st.ok()) return abort_compaction(st);
  if (only_if_sparse && w.ratio() >= opts_.sweep_live_ratio)
    return abort_compaction(Status::Ok());
  const double walk_ms = walk_clock.elapsed_ms();

  // Copy phase (out of lock): the survivors, straight from the walk's
  // bytes, into a fresh file.
  const Stopwatch copy_clock;
  (void)PageFile::unlink(new_path);  // stale leftover from a crashed sweep
  PageFile::Options fopts;
  fopts.page_size = opts_.page_size;
  std::unique_ptr<PageFile> new_file;
  st = PageFile::open(new_path, fopts, 0, new_file);
  if (!st.ok()) return abort_compaction(st);
  std::unordered_map<Hash256, PageRef> new_index;
  new_index.reserve(w.live.size());
  std::uint64_t new_total = 0;
  std::vector<Hash256> closure;  // children of racing puts, checked at swap
  auto append = [&](std::span<const std::uint8_t> rec, bool racing) {
    const Hash256 h = record_hash(rec);
    if (new_index.contains(h)) return Status::Ok();
    PageRef ref;
    const Status ast = new_file->append(rec, ref);
    if (!ast.ok()) return ast;
    new_index.emplace(h, ref);
    new_total += rec.size();
    if (racing) (void)collect_candidates(rec.subspan(32), 0, closure);
    return Status::Ok();
  };
  for (const auto rec : w.live) {
    st = append(rec, false);
    if (!st.ok()) return abort_compaction(st);
  }
  // Catch up off the lock too: every record sealed since the snapshot is a
  // racing put (or a young one the walk already kept).
  std::uint64_t caught_up = 0;
  {
    std::scoped_lock lk(mu_);
    caught_up = file_->sealed_pages();
  }
  PageFile::Image tail;
  st = w.file->scan(w.pages, caught_up, tail);
  if (st.ok()) st = check_records(tail);
  for (std::size_t i = 0; st.ok() && i < tail.records.size(); ++i)
    st = append(tail.records[i].second, true);
  if (st.ok()) st = new_file->sync();
  if (!st.ok()) return abort_compaction(st);
  const double copy_ms = copy_clock.elapsed_ms();

  // Swap phase (locked): the puts that landed after the catch-up and the
  // racing puts' missing children, then a sync of that short tail, the
  // manifest pointing at the new file, and the old file's retirement.  It
  // first waits out the open persist walks: one may have found a node that
  // this sweep drops present, and not yet put the parent that references
  // it; that put must land in puts_during_compaction_, not after the swap.
  std::string old_path;
  {
    std::unique_lock gate(writers_);
    std::scoped_lock lk(mu_);
    std::vector<Hash256> pending = std::move(puts_during_compaction_);
    pending.insert(pending.end(), closure.begin(), closure.end());
    std::vector<std::uint8_t> enc, rec;
    while (st.ok() && !pending.empty()) {
      const Hash256 h = pending.back();
      pending.pop_back();
      if (new_index.contains(h)) continue;
      const Status gst = get_impl(h, enc);
      if (gst.code == ErrorCode::kNotFound) continue;  // foreign candidate
      st = gst;
      if (!st.ok()) break;
      rec.assign(h.bytes.begin(), h.bytes.end());
      rec.insert(rec.end(), enc.begin(), enc.end());
      st = append(rec, true);
      pending.insert(pending.end(), closure.begin(), closure.end());
      closure.clear();
    }
    if (st.ok()) st = new_file->sync();
    if (st.ok()) {
      const std::uint64_t old_total = total_record_bytes_;
      old_path = file_->path();
      file_seq_ = new_seq;
      file_ = std::move(new_file);
      index_ = std::move(new_index);
      total_record_bytes_ = new_total;
      st = write_manifest_locked(durable_root_, durable_height_);
      ++stats_.compactions;
      stats_.compacted_bytes +=
          old_total > new_total ? old_total - new_total : 0;
      stats_.nodes = index_.size();
      stats_.last_sweep_walk_ms = walk_ms;
      stats_.last_sweep_copy_ms = copy_ms;
    }
    compacting_ = false;
    puts_during_compaction_.clear();
  }
  if (old_path.empty()) {
    (void)PageFile::unlink(new_path);
    return st;
  }
  if (!st.ok()) return st;
  return PageFile::unlink(old_path);
}

std::string PagedNodeStore::data_file_path() const {
  std::scoped_lock lk(mu_);
  return file_->path();
}

std::uint64_t PagedNodeStore::file_seq() const {
  std::scoped_lock lk(mu_);
  return file_seq_;
}

std::size_t PagedNodeStore::node_count() const {
  std::scoped_lock lk(mu_);
  return index_.size();
}

Status PagedNodeStore::verify_all_pages() const {
  std::scoped_lock lk(mu_);
  PageFile::Image image;
  return file_->scan(0, file_->sealed_pages(), image);
}

}  // namespace blockpilot::db

// PagedNodeStore: the on-disk NodeStore backend.
//
// Layout on disk (inside one data directory):
//
//   nodes.<seq>.bpdb   append-only PageFile of {32B hash, RLP encoding}
//                      records; <seq> bumps when compaction rewrites the
//                      file (records never move within one file).
//   MANIFEST.bpdb      two fixed 128-byte slots written alternately
//                      (generation % 2), each carrying {generation, durable
//                      root, height, sealed page count, data-file seq, page
//                      size, checksum}.  A slot write is a single sector
//                      pwrite + fsync, so at least one slot always decodes;
//                      the valid slot with the highest generation wins.
//
// Durability protocol (commit_root): seal + fsync the data file, then
// write the next manifest slot and fsync it.  A crash at any point
// recovers to the previous manifest: open() truncates the data file to the
// manifest's sealed-page count (discarding torn pages and appends the
// manifest never acknowledged) and rebuilds the hash -> (page, offset)
// index by scanning the trusted pages, verifying every checksum.  Damage
// inside the trusted range surfaces as ErrorCode::kCorruptPage — never UB.
//
// Liveness and compaction: nodes are content-addressed and append-only, so
// space is reclaimed by a sweep that keeps every node reachable from the
// recently committed roots (plus nodes appended within the last
// `retained_roots` commit generations, which covers speculative states the
// pipeline persisted ahead of finalization) and rewrites the survivors
// into a fresh data file.  The sweep runs on the shared ThreadPool behind
// commit_root when the live ratio falls below the threshold.  It holds the
// store lock only to snapshot (roots, young puts, sealed page count) and to
// swap: the sealed prefix is read once and checksummed once off the lock,
// liveness is walked in memory over those bytes, the survivors are copied
// from them, and the new file is fsynced before the swap.  Puts racing the
// sweep are copied from the pages sealed since the snapshot, off the lock
// too; only the partial page and the last racing puts are read through the
// locked path, the latter during the short swap.  The swap also waits for
// open persist walks (db::WriteSession) to finish, so no walk straddles it.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "db/node_store.hpp"
#include "db/page_file.hpp"
#include "support/thread_pool.hpp"

namespace blockpilot::db {

class PagedNodeStore final : public NodeStore {
 public:
  struct Options {
    std::size_t page_size = 4096;
    /// The background sweeper runs here; nullptr disables the automatic
    /// sweep (compact()/maybe_compact() still work inline).
    ThreadPool* pool = nullptr;
    /// Liveness horizon: roots from the last N commits (and nodes appended
    /// within the last N commit generations) survive compaction.  Must be
    /// at least the consensus speculation depth.
    std::size_t retained_roots = 8;
    /// Compact when live/total record bytes falls below this.
    double sweep_live_ratio = 0.5;
    /// Check the ratio every N commits (0 disables the background sweep).
    std::size_t sweep_check_interval = 16;
    /// Skip sweeps while the file is smaller than this.
    std::size_t min_sweep_bytes = std::size_t{1} << 20;
  };

  /// Opens (or creates) the store in `dir`, running crash recovery when a
  /// manifest exists.  `dir` must already exist.
  static Status open(const std::string& dir, const Options& opts,
                     std::unique_ptr<PagedNodeStore>& out);

  ~PagedNodeStore() override;

  // NodeStore interface.
  Status put(const Hash256& hash,
             std::span<const std::uint8_t> encoding) override;
  Status put_batch(std::span<const NodeRecord> nodes) override;
  Status get(const Hash256& hash,
             std::vector<std::uint8_t>& out) const override;
  bool contains(const Hash256& hash) const override;
  std::uint64_t contains_mask(std::span<const Hash256> hashes) const override;
  Status commit_root(const Hash256& root, std::uint64_t height) override;
  Hash256 durable_root() const override;
  std::uint64_t durable_height() const override;
  Stats stats() const override;
  std::shared_mutex* writer_gate() override { return &writers_; }

  /// Rewrites the live set into a fresh data file and retires the old one.
  Status compact();

  /// compact() iff live ratio < sweep_live_ratio and the file is big
  /// enough to bother.  The background sweeper calls exactly this.  One
  /// live-set walk both decides and feeds the copy.
  Status maybe_compact();

  /// Fraction of stored record bytes reachable from the retained roots
  /// (1.0 for an empty store).  Runs the sweep's walk: one read of the
  /// sealed prefix, then an in-memory traversal.
  double live_ratio() const;

  /// Test/bench hooks.
  std::string data_file_path() const;
  std::uint64_t file_seq() const;
  std::size_t node_count() const;
  /// Scans every trusted page, verifying all checksums.
  Status verify_all_pages() const;

 private:
  PagedNodeStore(std::string dir, const Options& opts);

  Status write_manifest_locked(const Hash256& root, std::uint64_t height);
  Status load_or_init_manifest(bool& fresh);
  Status rebuild_index_locked();
  Status get_impl(const Hash256& hash, std::vector<std::uint8_t>& out) const;
  /// Appends one record ({hash, encoding}) unless the hash is stored.
  Status put_locked(const Hash256& hash, std::span<const std::uint8_t> rec);
  /// The live set reachable from the retained roots + young appends, as
  /// records (hash + encoding) in walk order; see LiveWalk in the .cpp.
  struct LiveWalk;
  Status walk(LiveWalk& out) const;
  /// compact() (only_if_sparse false) or maybe_compact() (true).
  Status sweep(bool only_if_sparse);
  static std::string data_file_name(std::uint64_t seq);

  std::string dir_;
  Options opts_;
  std::uint64_t durable_pages_hint_ = 0;  // manifest sealed_pages at open

  // Exclusive for every access but contains(), which only reads index_.
  mutable std::shared_mutex mu_;
  // Shared so a walk reading the sealed prefix off the lock keeps the file
  // (and its descriptor) open across a concurrent swap.
  std::shared_ptr<PageFile> file_;
  int manifest_fd_ = -1;
  std::uint64_t manifest_gen_ = 0;
  std::uint64_t file_seq_ = 1;
  std::unordered_map<Hash256, PageRef> index_;
  std::uint64_t total_record_bytes_ = 0;  // 32B hash + encoding, per record
  Hash256 durable_root_;
  std::uint64_t durable_height_ = 0;

  // Liveness horizon bookkeeping (see class comment).
  std::uint64_t commit_gen_ = 0;
  std::deque<std::pair<Hash256, std::uint64_t>> recent_roots_;
  std::unordered_map<Hash256, std::uint64_t> recent_puts_;  // hash -> gen

  // Compaction rendezvous.  The swap holds writers_ exclusively, so no
  // persist walk (WriteSession) spans it: a walk that found a node present
  // before the swap puts the parents referencing it before the swap too,
  // where puts_during_compaction_ brings that node along.
  std::shared_mutex writers_;
  bool compacting_ = false;  // guarded by mu_
  std::vector<Hash256> puts_during_compaction_;  // guarded by mu_
  std::size_t commits_since_sweep_ = 0;          // guarded by mu_
  std::atomic<bool> sweep_inflight_{false};

  mutable Stats stats_;  // guarded by mu_
};

}  // namespace blockpilot::db

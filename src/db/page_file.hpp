// PageFile: the append-only paged record file under PagedNodeStore.
//
// The file is a sequence of fixed-size pages, each independently
// checksummed, so damage is detected at page granularity and a torn tail
// (the crash case) never corrupts records behind the last durability
// barrier.  Records are addressed by PageRef = (page, offset) and never
// move once written — the store's index and the trie's on-disk node refs
// stay valid for the file's lifetime (compaction writes a *new* file).
//
// Page layout (kPageHeaderSize bytes, then payload):
//   u32 magic  u32 page_no  u32 used  u32 flags  u64 checksum
// `used` counts payload bytes; `checksum` is FNV-1a64 over the whole page
// with the checksum field zeroed.  Records pack back-to-back in the
// payload as {u32 len, bytes}; a record that does not fit in the current
// page's remaining payload seals the page and starts the next one, so
// ordinary pages contain only whole records.  A record longer than one
// payload becomes a *jumbo span*: it opens a fresh page flagged
// kJumboStart and continues through kJumboCont pages, each with its own
// header and checksum.
//
// Write path: sealed pages are pwritten immediately; the current partial
// page lives in memory until sync() seals it (short page: `used` < payload
// capacity) and fsyncs.  Sealed pages are never rewritten, which is what
// makes the format crash-safe: after a crash, every byte at or before the
// last synced page boundary is exactly what sync() flushed.  It is also
// what lets scan() read a sealed prefix without the owner's lock while
// appends carry on past it.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "db/status.hpp"

namespace blockpilot::db {

using Bytes = std::vector<std::uint8_t>;

/// Stable address of one record: page number and byte offset into that
/// page's payload area.  The on-disk form of a trie node ref.
struct PageRef {
  std::uint32_t page = 0;
  std::uint32_t offset = 0;

  bool operator==(const PageRef&) const = default;
};

class PageFile {
 public:
  static constexpr std::uint32_t kMagic = 0x42506147;  // "BPaG"
  static constexpr std::size_t kPageHeaderSize = 24;
  static constexpr std::uint32_t kFlagJumboStart = 1u << 0;
  static constexpr std::uint32_t kFlagJumboCont = 1u << 1;
  static constexpr std::size_t kRecordHeaderSize = 4;  // u32 length

  struct Options {
    std::size_t page_size = 4096;
  };

  /// Opens (creating when absent) the page file at `path`.  `sealed_pages`
  /// bounds the trusted region: bytes past it are a possibly-torn tail and
  /// are physically truncated away so new appends start clean.  Pass the
  /// manifest's page count on recovery, or SIZE_MAX to trust the whole
  /// file (fresh files only).
  static Status open(const std::string& path, const Options& opts,
                     std::uint64_t sealed_pages,
                     std::unique_ptr<PageFile>& out);

  ~PageFile();
  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Appends one record, returning its stable ref.  The record becomes
  /// durable only after the next sync().
  Status append(std::span<const std::uint8_t> record, PageRef& ref);

  /// Seals the current partial page (if any) and fsyncs.  After sync(),
  /// sealed_pages() pages are durable and immutable.
  Status sync();

  /// Reads the record at `ref` (sealed pages from disk, the partial page
  /// from memory), verifying every page checksum on the way.
  Status read(const PageRef& ref, Bytes& out) const;

  /// A run of sealed pages read into memory: the raw pages and every
  /// record in file order.  Ordinary records are spans into `pages`; jumbo
  /// records are reassembled into `jumbo` (their bytes are split by page
  /// headers).  Refs are absolute.
  struct Image {
    Bytes pages;
    std::deque<Bytes> jumbo;
    std::vector<std::pair<PageRef, std::span<const std::uint8_t>>> records;
  };

  /// Reads pages [first, end) once, in order, verifying each page's header
  /// and checksum once, and lists their records.  Reads only the file: it
  /// touches neither the partial page nor sealed_pages(), so it may run
  /// without the owner's lock while append()/sync() go on, provided `end`
  /// had been sealed when the caller observed it (sealed pages never
  /// change) and `first` is 0 or such an observed boundary (a jumbo span
  /// never straddles one).  kCorruptPage on any damaged page or record.
  Status scan(std::uint64_t first, std::uint64_t end, Image& out) const;

  std::uint64_t sealed_pages() const noexcept { return sealed_pages_; }
  std::size_t page_size() const noexcept { return page_size_; }
  std::size_t payload_capacity() const noexcept {
    return page_size_ - kPageHeaderSize;
  }
  /// Total bytes the file occupies on disk (sealed pages only).
  std::uint64_t file_bytes() const noexcept {
    return sealed_pages_ * page_size_;
  }
  const std::string& path() const noexcept { return path_; }

  /// Removes the file from disk (used when compaction retires it).  The
  /// object must not be used afterwards.
  static Status unlink(const std::string& path);

 private:
  PageFile(std::string path, int fd, const Options& opts);

  Status seal_current_page(std::uint32_t flags_of_next);
  Status write_page(std::uint32_t page_no, std::span<const std::uint8_t> page);
  Status load_page(std::uint32_t page_no, Bytes& page) const;
  /// pread of `len` bytes at `at`; kCorruptPage on a short file.
  Status read_at(std::uint64_t at, std::uint8_t* dst, std::size_t len) const;
  /// Header + checksum check of one page read from disk as `page_no`.
  Status verify_page(std::uint64_t page_no,
                     std::span<const std::uint8_t> page) const;
  static std::uint64_t page_checksum(std::span<const std::uint8_t> page);
  void start_page(std::uint32_t flags);

  std::string path_;
  int fd_ = -1;
  std::size_t page_size_;
  std::uint64_t sealed_pages_ = 0;
  // Current (unsealed) page: header fields are filled at seal time.
  Bytes cur_page_;
  std::uint32_t cur_used_ = 0;   // payload bytes used
  std::uint32_t cur_flags_ = 0;  // jumbo continuation marker
};

}  // namespace blockpilot::db

#include "db/page_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "support/assert.hpp"

namespace blockpilot::db {

namespace {

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

Status io_error(const char* what, const std::string& path) {
  return Status::error(ErrorCode::kIo, std::string(what) + " failed for " +
                                           path + ": " + std::strerror(errno));
}

}  // namespace

std::uint64_t PageFile::page_checksum(std::span<const std::uint8_t> page) {
  // FNV-1a64 over the page with the checksum field treated as zero.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < page.size(); ++i) {
    const bool in_checksum_field = i >= 16 && i < 24;
    h ^= in_checksum_field ? 0 : page[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

PageFile::PageFile(std::string path, int fd, const Options& opts)
    : path_(std::move(path)), fd_(fd), page_size_(opts.page_size) {
  BP_ASSERT_MSG(page_size_ > kPageHeaderSize + kRecordHeaderSize,
                "page size too small");
  cur_page_.assign(page_size_, 0);
}

PageFile::~PageFile() {
  // Deliberately no implicit sync: destruction without sync() models a
  // crash — the in-memory partial page is lost, sealed pages survive.
  if (fd_ >= 0) ::close(fd_);
}

Status PageFile::open(const std::string& path, const Options& opts,
                      std::uint64_t sealed_pages,
                      std::unique_ptr<PageFile>& out) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return io_error("open", path);
  std::unique_ptr<PageFile> file(new PageFile(path, fd, opts));

  const off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) return io_error("lseek", path);
  const std::uint64_t whole_pages =
      static_cast<std::uint64_t>(end) / opts.page_size;
  if (sealed_pages == UINT64_MAX) {
    sealed_pages = whole_pages;  // trust every whole page (fresh file: 0)
  } else if (whole_pages < sealed_pages) {
    return Status::error(ErrorCode::kCorruptPage,
                         "page file shorter than its manifest: " + path);
  }
  // Drop the untrusted tail (torn final page and/or appends the manifest
  // never acknowledged) so new appends start on a clean boundary.
  if (static_cast<std::uint64_t>(end) !=
      sealed_pages * opts.page_size) {
    if (::ftruncate(fd, static_cast<off_t>(sealed_pages * opts.page_size)) !=
        0)
      return io_error("ftruncate", path);
  }
  file->sealed_pages_ = sealed_pages;
  file->start_page(0);
  out = std::move(file);
  return Status::Ok();
}

void PageFile::start_page(std::uint32_t flags) {
  std::memset(cur_page_.data(), 0, cur_page_.size());
  cur_used_ = 0;
  cur_flags_ = flags;
}

Status PageFile::write_page(std::uint32_t page_no,
                            std::span<const std::uint8_t> page) {
  const off_t at = static_cast<off_t>(page_no) * static_cast<off_t>(page_size_);
  std::size_t done = 0;
  while (done < page.size()) {
    const ssize_t n =
        ::pwrite(fd_, page.data() + done, page.size() - done, at + done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return io_error("pwrite", path_);
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status PageFile::seal_current_page(std::uint32_t flags_of_next) {
  BP_ASSERT(cur_used_ > 0);
  std::uint8_t* hdr = cur_page_.data();
  store_u32(hdr, kMagic);
  store_u32(hdr + 4, static_cast<std::uint32_t>(sealed_pages_));
  store_u32(hdr + 8, cur_used_);
  store_u32(hdr + 12, cur_flags_);
  store_u64(hdr + 16, 0);
  store_u64(hdr + 16, page_checksum(cur_page_));
  const Status st =
      write_page(static_cast<std::uint32_t>(sealed_pages_), cur_page_);
  if (!st.ok()) return st;
  ++sealed_pages_;
  start_page(flags_of_next);
  return Status::Ok();
}

Status PageFile::append(std::span<const std::uint8_t> record, PageRef& ref) {
  const std::size_t cap = payload_capacity();
  const std::size_t total = kRecordHeaderSize + record.size();

  if (total <= cap) {  // ordinary record: whole within one page
    if (cur_used_ + total > cap) {
      const Status st = seal_current_page(0);
      if (!st.ok()) return st;
    }
    ref = PageRef{static_cast<std::uint32_t>(sealed_pages_), cur_used_};
    std::uint8_t* payload = cur_page_.data() + kPageHeaderSize;
    store_u32(payload + cur_used_, static_cast<std::uint32_t>(record.size()));
    std::memcpy(payload + cur_used_ + kRecordHeaderSize, record.data(),
                record.size());
    cur_used_ += static_cast<std::uint32_t>(total);
    return Status::Ok();
  }

  // Jumbo span: the record opens a fresh kJumboStart page and continues
  // through kJumboCont pages; every spanned page is sealed immediately so
  // the span is contiguous and the next record starts a clean page.
  if (record.size() > (std::size_t{1} << 30))
    return Status::error(ErrorCode::kTooLarge, "record exceeds 1 GiB");
  if (cur_used_ > 0) {
    const Status st = seal_current_page(0);
    if (!st.ok()) return st;
  }
  cur_flags_ = kFlagJumboStart;
  ref = PageRef{static_cast<std::uint32_t>(sealed_pages_), 0};
  std::uint8_t* payload = cur_page_.data() + kPageHeaderSize;
  store_u32(payload, static_cast<std::uint32_t>(record.size()));
  std::size_t copied = 0;
  cur_used_ = kRecordHeaderSize;
  while (copied < record.size()) {
    const std::size_t room = cap - cur_used_;
    const std::size_t take = std::min(room, record.size() - copied);
    std::memcpy(cur_page_.data() + kPageHeaderSize + cur_used_,
                record.data() + copied, take);
    cur_used_ += static_cast<std::uint32_t>(take);
    copied += take;
    if (copied < record.size()) {
      const Status st = seal_current_page(kFlagJumboCont);
      if (!st.ok()) return st;
    }
  }
  return seal_current_page(0);
}

Status PageFile::sync() {
  if (cur_used_ > 0) {
    const Status st = seal_current_page(0);
    if (!st.ok()) return st;
  }
  if (::fsync(fd_) != 0) return io_error("fsync", path_);
  return Status::Ok();
}

Status PageFile::read_at(std::uint64_t at, std::uint8_t* dst,
                         std::size_t len) const {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd_, dst + done, len - done,
                              static_cast<off_t>(at + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return io_error("pread", path_);
    }
    if (n == 0)
      return Status::error(ErrorCode::kCorruptPage,
                           "short read at page " +
                               std::to_string((at + done) / page_size_));
    done += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status PageFile::verify_page(std::uint64_t page_no,
                             std::span<const std::uint8_t> page) const {
  if (load_u32(page.data()) != kMagic ||
      load_u32(page.data() + 4) != static_cast<std::uint32_t>(page_no) ||
      load_u32(page.data() + 8) > payload_capacity() ||
      load_u64(page.data() + 16) != page_checksum(page))
    return Status::error(
        ErrorCode::kCorruptPage,
        "checksum/header mismatch at page " + std::to_string(page_no));
  return Status::Ok();
}

Status PageFile::load_page(std::uint32_t page_no, Bytes& page) const {
  if (page_no >= sealed_pages_)
    return Status::error(ErrorCode::kNotFound,
                         "page " + std::to_string(page_no) + " not sealed");
  page.resize(page_size_);
  const Status st =
      read_at(static_cast<std::uint64_t>(page_no) * page_size_, page.data(),
              page_size_);
  if (!st.ok()) return st;
  return verify_page(page_no, page);
}

Status PageFile::read(const PageRef& ref, Bytes& out) const {
  // The current partial page is readable too (pre-sync readers).
  Bytes stored;
  std::uint32_t used, flags;
  const std::uint8_t* payload;
  if (ref.page == sealed_pages_ && cur_used_ > 0) {
    payload = cur_page_.data() + kPageHeaderSize;
    used = cur_used_;
    flags = cur_flags_;
  } else {
    const Status st = load_page(ref.page, stored);
    if (!st.ok()) return st;
    payload = stored.data() + kPageHeaderSize;
    used = load_u32(stored.data() + 8);
    flags = load_u32(stored.data() + 12);
  }

  if ((flags & kFlagJumboStart) != 0) {
    if (ref.offset != 0)
      return Status::error(ErrorCode::kCorruptPage,
                           "ref into the middle of a jumbo span");
    const std::uint32_t len = load_u32(payload);
    out.clear();
    out.reserve(len);
    std::size_t have =
        std::min<std::size_t>(len, used - kRecordHeaderSize);
    out.insert(out.end(), payload + kRecordHeaderSize,
               payload + kRecordHeaderSize + have);
    std::uint32_t page_no = ref.page;
    while (out.size() < len) {
      ++page_no;
      Bytes cont;
      const Status st = load_page(page_no, cont);
      if (!st.ok()) return st;
      if ((load_u32(cont.data() + 12) & kFlagJumboCont) == 0)
        return Status::error(ErrorCode::kCorruptPage,
                             "jumbo span not continued at page " +
                                 std::to_string(page_no));
      const std::uint32_t cont_used = load_u32(cont.data() + 8);
      const std::size_t take =
          std::min<std::size_t>(len - out.size(), cont_used);
      out.insert(out.end(), cont.data() + kPageHeaderSize,
                 cont.data() + kPageHeaderSize + take);
    }
    return Status::Ok();
  }

  if (ref.offset + kRecordHeaderSize > used)
    return Status::error(ErrorCode::kNotFound, "ref past page payload");
  const std::uint32_t len = load_u32(payload + ref.offset);
  if (ref.offset + kRecordHeaderSize + len > used)
    return Status::error(ErrorCode::kCorruptPage,
                         "record overruns page payload");
  out.assign(payload + ref.offset + kRecordHeaderSize,
             payload + ref.offset + kRecordHeaderSize + len);
  return Status::Ok();
}

Status PageFile::scan(std::uint64_t first, std::uint64_t end,
                      Image& out) const {
  const std::uint64_t pages = end > first ? end - first : 0;
  out.pages.resize(pages * page_size_);
  out.jumbo.clear();
  out.records.clear();
  // One pass over the range in large sequential reads; each page's
  // checksum is verified exactly once, here.
  constexpr std::uint64_t kPagesPerRead = 256;
  for (std::uint64_t p = 0; p < pages; p += kPagesPerRead) {
    const std::uint64_t n = std::min(kPagesPerRead, pages - p);
    std::uint8_t* dst = out.pages.data() + p * page_size_;
    Status st = read_at((first + p) * page_size_, dst, n * page_size_);
    if (!st.ok()) return st;
    for (std::uint64_t i = 0; i < n; ++i) {
      st = verify_page(first + p + i,
                       std::span(dst + i * page_size_, page_size_));
      if (!st.ok()) return st;
    }
  }

  for (std::uint64_t p = 0; p < pages;) {
    const std::uint8_t* page = out.pages.data() + p * page_size_;
    const std::uint8_t* payload = page + kPageHeaderSize;
    const std::uint32_t used = load_u32(page + 8);
    const std::uint32_t flags = load_u32(page + 12);
    if ((flags & kFlagJumboCont) != 0)
      return Status::error(ErrorCode::kCorruptPage,
                           "dangling jumbo continuation at page " +
                               std::to_string(first + p));
    if ((flags & kFlagJumboStart) != 0) {
      // Reassemble the span from this page and its continuations.
      if (used < kRecordHeaderSize)
        return Status::error(
            ErrorCode::kCorruptPage,
            "short jumbo start at page " + std::to_string(first + p));
      const std::uint32_t len = load_u32(payload);
      Bytes& record = out.jumbo.emplace_back();
      record.reserve(len);
      const std::size_t head =
          std::min<std::size_t>(len, used - kRecordHeaderSize);
      record.insert(record.end(), payload + kRecordHeaderSize,
                    payload + kRecordHeaderSize + head);
      const std::uint64_t start = p++;
      while (record.size() < len) {
        if (p >= pages)
          return Status::error(ErrorCode::kCorruptPage,
                               "jumbo span past the scanned range at page " +
                                   std::to_string(first + p));
        const std::uint8_t* cont = out.pages.data() + p * page_size_;
        if ((load_u32(cont + 12) & kFlagJumboCont) == 0)
          return Status::error(ErrorCode::kCorruptPage,
                               "jumbo span not continued at page " +
                                   std::to_string(first + p));
        const std::size_t take =
            std::min<std::size_t>(len - record.size(), load_u32(cont + 8));
        record.insert(record.end(), cont + kPageHeaderSize,
                      cont + kPageHeaderSize + take);
        ++p;
      }
      out.records.emplace_back(
          PageRef{static_cast<std::uint32_t>(first + start), 0},
          std::span<const std::uint8_t>(record));
      continue;
    }
    std::uint32_t off = 0;
    while (off + kRecordHeaderSize <= used) {
      const std::uint32_t len = load_u32(payload + off);
      if (off + kRecordHeaderSize + len > used)
        return Status::error(ErrorCode::kCorruptPage,
                             "record overruns payload at page " +
                                 std::to_string(first + p));
      out.records.emplace_back(
          PageRef{static_cast<std::uint32_t>(first + p), off},
          std::span<const std::uint8_t>(payload + off + kRecordHeaderSize,
                                        len));
      off += kRecordHeaderSize + len;
    }
    ++p;
  }
  return Status::Ok();
}

Status PageFile::unlink(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT)
    return io_error("unlink", path);
  return Status::Ok();
}

}  // namespace blockpilot::db

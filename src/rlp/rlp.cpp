#include "rlp/rlp.hpp"

#include <cstring>

#include "support/assert.hpp"

namespace blockpilot::rlp {
namespace {

// Writes the length prefix for a payload of `len` bytes into `out`; returns
// the prefix size (1..9).
std::size_t length_prefix(std::uint8_t (&out)[9], std::size_t len,
                          std::uint8_t short_base, std::uint8_t long_base) {
  if (len <= 55) {
    out[0] = static_cast<std::uint8_t>(short_base + len);
    return 1;
  }
  std::size_t n = 0;
  for (std::size_t v = len; v != 0; v >>= 8) ++n;
  out[0] = static_cast<std::uint8_t>(long_base + n);
  for (std::size_t i = 0; i < n; ++i)
    out[n - i] = static_cast<std::uint8_t>(len >> (8 * i));
  return 1 + n;
}


}  // namespace

void Encoder::append_string(std::span<const std::uint8_t> str) {
  if (str.size() == 1 && str[0] < 0x80) {
    buffer_.push_back(str[0]);
    return;
  }
  std::uint8_t prefix[9];
  const std::size_t n = length_prefix(prefix, str.size(), 0x80, 0xb7);
  buffer_.insert(buffer_.end(), prefix, prefix + n);
  buffer_.insert(buffer_.end(), str.begin(), str.end());
}

Encoder& Encoder::add(std::span<const std::uint8_t> str) {
  append_string(str);
  return *this;
}

Encoder& Encoder::add(std::string_view str) {
  append_string(std::span(reinterpret_cast<const std::uint8_t*>(str.data()),
                          str.size()));
  return *this;
}

Encoder& Encoder::add(std::uint64_t value) { return add(U256{value}); }

Encoder& Encoder::add(const U256& value) {
  // Minimal big-endian form: leading zero bytes dropped.
  const auto full = value.to_be_bytes();
  std::size_t first = 0;
  while (first < full.size() && full[first] == 0) ++first;
  append_string(std::span(full).subspan(first));
  return *this;
}

Encoder& Encoder::add(const Address& addr) {
  append_string(std::span(addr.bytes));
  return *this;
}

Encoder& Encoder::add(const Hash256& hash) {
  append_string(std::span(hash.bytes));
  return *this;
}

Encoder& Encoder::add_raw(std::span<const std::uint8_t> encoded) {
  buffer_.insert(buffer_.end(), encoded.begin(), encoded.end());
  return *this;
}

Encoder& Encoder::begin_list() {
  open_lists_.push_back(buffer_.size());
  return *this;
}

Encoder& Encoder::end_list() {
  BP_ASSERT_MSG(!open_lists_.empty(), "end_list without begin_list");
  const std::size_t start = open_lists_.back();
  open_lists_.pop_back();
  std::uint8_t prefix[9];
  const std::size_t n =
      length_prefix(prefix, buffer_.size() - start, 0xc0, 0xf7);
  buffer_.insert(buffer_.begin() + static_cast<std::ptrdiff_t>(start), prefix,
                 prefix + n);
  return *this;
}

Bytes Encoder::take() {
  BP_ASSERT_MSG(open_lists_.empty(), "take() with unclosed list");
  return std::move(buffer_);
}

Bytes encode(std::span<const std::uint8_t> str) {
  Encoder e;
  e.add(str);
  return e.take();
}

Bytes encode(std::uint64_t value) { return encode(U256{value}); }

Bytes encode(const U256& value) {
  Encoder e;
  e.add(value);
  return e.take();
}

// ---- Reader ---------------------------------------------------------------

bool Reader::peek(std::size_t pos, Head& head) const noexcept {
  if (*failed_ || pos == data_.size()) return false;
  const std::size_t remaining = data_.size() - pos;
  const std::uint8_t tag = data_[pos];
  if (tag < 0x80) {  // single byte: the byte is its own payload
    head = {false, 0, 1};
    return true;
  }
  head.is_list = tag >= 0xc0;
  const std::size_t code = tag - (head.is_list ? 0xc0 : 0x80);
  std::size_t len = code;
  head.header = 1;
  if (code > 55) {  // long form: code - 55 big-endian length bytes follow
    const std::size_t len_bytes = code - 55;
    if (len_bytes > remaining - 1) return false;
    if (data_[pos + 1] == 0) return false;  // non-minimal: leading zero
    len = 0;
    for (std::size_t i = 0; i < len_bytes; ++i)
      len = (len << 8) | data_[pos + 1 + i];
    if (len <= 55) return false;  // non-minimal: fits the short form
    head.header += len_bytes;
  }
  if (len > remaining - head.header) return false;
  // Non-minimal: a single byte below 0x80 encodes itself.
  if (!head.is_list && len == 1 && data_[pos + 1] < 0x80) return false;
  head.payload = len;
  return true;
}

bool Reader::next_is_list() const noexcept {
  Head head;
  return peek(pos_, head) && head.is_list;
}

std::size_t Reader::count() {
  std::size_t n = 0;
  Head head;
  for (std::size_t pos = pos_; pos != data_.size(); ++n) {
    if (!peek(pos, head)) {
      fail();
      return 0;
    }
    pos += head.header + head.payload;
  }
  return n;
}

void Reader::fail() noexcept {
  *failed_ = true;
  pos_ = data_.size();
}

void Reader::finish() noexcept {
  if (!at_end()) fail();
}

std::span<const std::uint8_t> Reader::take(bool want_list) noexcept {
  Head head;
  if (!peek(pos_, head) || head.is_list != want_list) {
    fail();
    return {};
  }
  const auto payload = data_.subspan(pos_ + head.header, head.payload);
  pos_ += head.header + head.payload;
  return payload;
}

Reader Reader::list() {
  const auto payload = take(/*want_list=*/true);
  return Reader(payload, failed_);
}

std::span<const std::uint8_t> Reader::bytes() { return take(false); }

std::span<const std::uint8_t> Reader::bytes(std::size_t n) {
  const auto str = take(false);
  if (str.size() == n) return str;
  fail();
  return {};
}

std::span<const std::uint8_t> Reader::raw() {
  Head head;
  if (!peek(pos_, head)) {
    fail();
    return {};
  }
  const auto item = data_.subspan(pos_, head.header + head.payload);
  pos_ += item.size();
  return item;
}

std::uint64_t Reader::u64() {
  const auto str = take(false);
  if (str.size() > 8) {
    fail();
    return 0;
  }
  std::uint64_t v = 0;
  for (const std::uint8_t b : str) v = (v << 8) | b;
  return v;
}

U256 Reader::u256() {
  const auto str = take(false);
  if (str.size() > 32) {
    fail();
    return U256{};
  }
  return U256::from_be_bytes(str);
}

Address Reader::address() {
  Address a;
  const auto str = bytes(20);
  if (!str.empty()) std::memcpy(a.bytes.data(), str.data(), 20);
  return a;
}

Hash256 Reader::hash() {
  Hash256 h;
  const auto str = bytes(32);
  if (!str.empty()) std::memcpy(h.bytes.data(), str.data(), 32);
  return h;
}

}  // namespace blockpilot::rlp

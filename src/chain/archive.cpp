#include "chain/archive.hpp"

#include <array>
#include <cstring>

namespace blockpilot::chain {
namespace {

constexpr char kMagic[8] = {'B', 'P', 'A', 'R', 'C', 'H', '0', '1'};

}  // namespace

BlockArchiveWriter::BlockArchiveWriter(std::ostream& out) : out_(out) {
  out_.write(kMagic, sizeof(kMagic));
}

void BlockArchiveWriter::append(const BlockAnnouncement& ann) {
  const Bytes wire = encode_announcement(ann);
  const auto len = static_cast<std::uint32_t>(wire.size());
  std::array<char, 4> prefix;
  for (int i = 0; i < 4; ++i)
    prefix[static_cast<std::size_t>(i)] =
        static_cast<char>((len >> (8 * i)) & 0xff);
  out_.write(prefix.data(), prefix.size());
  out_.write(reinterpret_cast<const char*>(wire.data()),
             static_cast<std::streamsize>(wire.size()));
  ++entries_;
}

BlockArchiveReader::BlockArchiveReader(std::istream& in) : in_(in) {
  char magic[8];
  in_.read(magic, sizeof(magic));
  ok_ = in_.good() && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

std::optional<BlockAnnouncement> BlockArchiveReader::next() {
  if (!ok_) return std::nullopt;
  std::array<char, 4> prefix;
  in_.read(prefix.data(), prefix.size());
  if (in_.eof()) return std::nullopt;  // clean end of archive
  if (!in_.good()) {
    ok_ = false;
    return std::nullopt;
  }
  std::uint32_t len = 0;
  for (int i = 3; i >= 0; --i)
    len = (len << 8) |
          static_cast<std::uint8_t>(prefix[static_cast<std::size_t>(i)]);
  if (len == 0 || len > (64u << 20)) {  // 64 MiB sanity bound
    ok_ = false;
    return std::nullopt;
  }
  Bytes wire(len);
  in_.read(reinterpret_cast<char*>(wire.data()),
           static_cast<std::streamsize>(len));
  if (!in_.good()) {
    ok_ = false;
    return std::nullopt;
  }
  std::optional<BlockAnnouncement> ann = try_decode_announcement(wire);
  if (!ann.has_value()) ok_ = false;
  return ann;
}

}  // namespace blockpilot::chain

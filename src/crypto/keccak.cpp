#include "crypto/keccak.hpp"

#include <cstring>

namespace blockpilot::crypto {
namespace {

constexpr std::array<std::uint64_t, 24> kRoundConstants = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
};

// rho + pi as one walk over the lanes: lane kPiLanes[i] receives the
// previous lane of the walk, rotated by kRhoOffsets[i].  The walk starts at
// lane 1 and visits the other 23 non-zero lanes once (lane 0 is fixed).
constexpr std::array<int, 24> kRhoOffsets = {
    1,  3,  6,  10, 15, 21, 28, 36, 45, 55, 2,  14,
    27, 41, 56, 8,  25, 43, 62, 18, 39, 61, 20, 44,
};
constexpr std::array<int, 24> kPiLanes = {
    10, 7,  11, 17, 18, 3, 5,  16, 8,  21, 24, 4,
    15, 23, 19, 13, 12, 2, 20, 14, 22, 9,  6,  1,
};

constexpr std::uint64_t rotl64(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

// Every inner loop has a constant trip count and is unrolled, so lane
// indexes are compile-time constants and the state stays in registers.
// Row and column neighbours come from arrays holding each row twice, not
// from a runtime `% 5`.
void keccak_f1600(std::array<std::uint64_t, 25>& a) noexcept {
  for (int round = 0; round < 24; ++round) {
    // theta
    std::uint64_t c[10];
#pragma GCC unroll 5
    for (int x = 0; x < 5; ++x) {
      c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
      c[x + 5] = c[x];
    }
#pragma GCC unroll 5
    for (int x = 0; x < 5; ++x) {
      const std::uint64_t d = c[x + 4] ^ rotl64(c[x + 1], 1);
#pragma GCC unroll 5
      for (int y = 0; y < 25; y += 5) a[x + y] ^= d;
    }
    // rho + pi
    std::uint64_t carry = a[1];
#pragma GCC unroll 24
    for (int i = 0; i < 24; ++i) {
      const int lane = kPiLanes[i];
      const std::uint64_t next = a[lane];
      a[lane] = rotl64(carry, kRhoOffsets[i]);
      carry = next;
    }
    // chi
#pragma GCC unroll 5
    for (int y = 0; y < 25; y += 5) {
      std::uint64_t row[10];
#pragma GCC unroll 5
      for (int x = 0; x < 5; ++x) row[x] = row[x + 5] = a[y + x];
#pragma GCC unroll 5
      for (int x = 0; x < 5; ++x) a[y + x] = row[x] ^ (~row[x + 1] & row[x + 2]);
    }
    // iota
    a[0] ^= kRoundConstants[round];
  }
}

}  // namespace

void Keccak256::update(std::span<const std::uint8_t> data) noexcept {
  std::size_t offset = 0;
  while (offset < data.size()) {
    const std::size_t take =
        std::min(kRate - buffered_, data.size() - offset);
    std::memcpy(buffer_.data() + buffered_, data.data() + offset, take);
    buffered_ += take;
    offset += take;
    if (buffered_ == kRate) absorb_block();
  }
}

void Keccak256::absorb_block() noexcept {
  for (std::size_t i = 0; i < kRate / 8; ++i) {
    std::uint64_t lane;
    std::memcpy(&lane, buffer_.data() + 8 * i, 8);  // little-endian host
    state_[i] ^= lane;
  }
  keccak_f1600(state_);
  buffered_ = 0;
}

Digest Keccak256::finalize() noexcept {
  // Keccak (pre-NIST) multi-rate padding: 0x01 ... 0x80.
  buffer_[buffered_] = 0x01;
  std::memset(buffer_.data() + buffered_ + 1, 0, kRate - buffered_ - 1);
  buffer_[kRate - 1] |= 0x80;
  buffered_ = kRate;
  absorb_block();

  Digest out;
  std::memcpy(out.data(), state_.data(), out.size());
  state_ = {};
  buffered_ = 0;
  return out;
}

Digest keccak256(std::span<const std::uint8_t> data) noexcept {
  Keccak256 h;
  h.update(data);
  return h.finalize();
}

Digest keccak256(std::string_view data) noexcept {
  return keccak256(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

}  // namespace blockpilot::crypto

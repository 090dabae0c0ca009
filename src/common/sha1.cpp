#include "common/sha1.h"

#include <bit>
#include <cstring>

namespace defrag {

namespace {
inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

// The three round functions, each in its fewest-operation form.
inline std::uint32_t choose(std::uint32_t x, std::uint32_t y,
                            std::uint32_t z) {
  return z ^ (x & (y ^ z));  // (x & y) | (~x & z)
}
inline std::uint32_t parity(std::uint32_t x, std::uint32_t y,
                            std::uint32_t z) {
  return x ^ y ^ z;
}
inline std::uint32_t majority(std::uint32_t x, std::uint32_t y,
                              std::uint32_t z) {
  return (x & y) | (z & (x | y));  // (x & y) | (x & z) | (y & z)
}
}  // namespace

void Sha1::reset() {
  state_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  total_bytes_ = 0;
  buffered_ = 0;
}

// The 80 rounds are written out as four branch-free 20-round phases over a
// 16-word rolling message schedule: every schedule index is a constant and
// the working variables are renamed round to round rather than shifted.
// Same arithmetic as FIPS 180-1, and the same round structure as the
// multi-buffer kernels in sha_mb_kernels.inc.

// Message word t: loaded for t < 16, else the next rolling-schedule word,
// stored over the word it retires.
#define SHA1_W(t)                                                         \
  ((t) < 16 ? w[(t)]                                                      \
            : (w[(t)&15] = std::rotl(w[((t)-3) & 15] ^ w[((t)-8) & 15] ^ \
                                         w[((t)-14) & 15] ^ w[(t)&15],   \
                                     1)))

// One round: the new `a` lands in e's variable and rotl(b, 30) in b's, so
// the next round passes the five variables rotated one place right.
#define SHA1_R(a, b, c, d, e, fn, k, t)                          \
  e += std::rotl((a), 5) + fn((b), (c), (d)) + (k) + SHA1_W(t); \
  b = std::rotl((b), 30)

#define SHA1_R5(t, fn, k)                \
  SHA1_R(a, b, c, d, e, fn, k, (t));     \
  SHA1_R(e, a, b, c, d, fn, k, (t) + 1); \
  SHA1_R(d, e, a, b, c, fn, k, (t) + 2); \
  SHA1_R(c, d, e, a, b, fn, k, (t) + 3); \
  SHA1_R(b, c, d, e, a, fn, k, (t) + 4)

#define SHA1_R20(t, fn, k)  \
  SHA1_R5((t), fn, k);      \
  SHA1_R5((t) + 5, fn, k);  \
  SHA1_R5((t) + 10, fn, k); \
  SHA1_R5((t) + 15, fn, k)

void Sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3],
                e = state_[4];

  SHA1_R20(0, choose, 0x5A827999u);
  SHA1_R20(20, parity, 0x6ED9EBA1u);
  SHA1_R20(40, majority, 0x8F1BBCDCu);
  SHA1_R20(60, parity, 0xCA62C1D6u);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
}

#undef SHA1_W
#undef SHA1_R
#undef SHA1_R5
#undef SHA1_R20

void Sha1::update(ByteView data) {
  total_bytes_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();

  if (buffered_ > 0) {
    const std::size_t take = std::min(n, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ == buffer_.size()) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (n >= 64) {
    process_block(p);
    p += 64;
    n -= 64;
  }
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffered_ = n;
  }
}

Sha1::Digest Sha1::finish() {
  const std::uint64_t bit_len = total_bytes_ * 8;

  // Padding: 0x80, zeros, then the 64-bit big-endian bit length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t rem = static_cast<std::size_t>(total_bytes_ % 64);
  const std::size_t pad_len = (rem < 56) ? (56 - rem) : (120 - rem);
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update({pad, pad_len});
  update({len_be, 8});

  Digest out;
  for (std::size_t i = 0; i < 5; ++i) {
    store_be32(out.data() + 4 * i, state_[i]);
  }
  return out;
}

}  // namespace defrag

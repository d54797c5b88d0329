#include "crypto/sha256.h"

#include <algorithm>
#include <atomic>

#if defined(__x86_64__) || defined(__i386__)
#define STEGFS_SHA_X86 1
#include <immintrin.h>
#endif

namespace stegfs {
namespace crypto {

namespace {

// First 32 bits of the fractional parts of the cube roots of the first 64
// primes (FIPS 180-2 section 4.2.2).
constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }
inline uint32_t Ch(uint32_t x, uint32_t y, uint32_t z) {
  return (x & y) ^ (~x & z);
}
inline uint32_t Maj(uint32_t x, uint32_t y, uint32_t z) {
  return (x & y) ^ (x & z) ^ (y & z);
}
inline uint32_t BigSigma0(uint32_t x) {
  return Rotr(x, 2) ^ Rotr(x, 13) ^ Rotr(x, 22);
}
inline uint32_t BigSigma1(uint32_t x) {
  return Rotr(x, 6) ^ Rotr(x, 11) ^ Rotr(x, 25);
}
inline uint32_t SmallSigma0(uint32_t x) {
  return Rotr(x, 7) ^ Rotr(x, 18) ^ (x >> 3);
}
inline uint32_t SmallSigma1(uint32_t x) {
  return Rotr(x, 17) ^ Rotr(x, 19) ^ (x >> 10);
}

// Initial hash value (FIPS 180-2 section 5.3.2).
constexpr uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                               0xa54ff53a, 0x510e527f, 0x9b05688c,
                               0x1f83d9ab, 0x5be0cd19};

// The FIPS 180-2 compression function, once per 64-byte block.
void CompressScalar(uint32_t state[8], const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    uint32_t w[64];
    for (int t = 0; t < 16; ++t) {
      w[t] = (static_cast<uint32_t>(data[t * 4]) << 24) |
             (static_cast<uint32_t>(data[t * 4 + 1]) << 16) |
             (static_cast<uint32_t>(data[t * 4 + 2]) << 8) |
             static_cast<uint32_t>(data[t * 4 + 3]);
    }
    for (int t = 16; t < 64; ++t) {
      w[t] = SmallSigma1(w[t - 2]) + w[t - 7] + SmallSigma0(w[t - 15]) +
             w[t - 16];
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int t = 0; t < 64; ++t) {
      uint32_t t1 = h + BigSigma1(e) + Ch(e, f, g) + kK[t] + w[t];
      uint32_t t2 = BigSigma0(a) + Maj(a, b, c);
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if STEGFS_SHA_X86

// Per-function target attribute, as in aes_ni.cc: the library stays
// runnable on CPUs without the SHA extensions (Compress never calls in
// here unless ShaNiSupported() is true).
#define STEGFS_SHA_NI __attribute__((target("sha,sse4.1")))

bool ShaNiSupported() {
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

// The same compression with SHA256RNDS2 (two rounds per instruction) and
// SHA256MSG1/MSG2 for the message schedule. The instructions keep the
// working variables as two halves, ABEF and CDGH, instead of A..H.
STEGFS_SHA_NI void CompressShaNi(uint32_t state[8], const uint8_t* data,
                                 size_t blocks) {
  // Message words are big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i* k = reinterpret_cast<const __m128i*>(kK);

  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const __m128i* in = reinterpret_cast<const __m128i*>(data);
    // m0..m3 hold the next sixteen schedule words W[4i..4i+15].
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128(in + 0), bswap);
    __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), bswap);
    __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), bswap);
    __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), bswap);
    for (int i = 0; i < 16; ++i) {
      const __m128i wk = _mm_add_epi32(m0, _mm_loadu_si128(k + i));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
      // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16]: MSG1 adds the
      // s0 terms, the byte shift supplies W[t-7], MSG2 adds s1.
      const __m128i next = _mm_sha256msg2_epu32(
          _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1),
                        _mm_alignr_epi8(m3, m2, 4)),
          m3);
      m0 = m1;
      m1 = m2;
      m2 = m3;
      m3 = next;
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#else  // !STEGFS_SHA_X86: the tier is never selected.

bool ShaNiSupported() { return false; }
void CompressShaNi(uint32_t state[8], const uint8_t* data, size_t blocks) {
  CompressScalar(state, data, blocks);
}

#endif  // STEGFS_SHA_X86

std::atomic<ShaTier>& TierSlot() {
  static std::atomic<ShaTier> tier{ShaNiSupported() ? ShaTier::kShaNi
                                                    : ShaTier::kScalar};
  return tier;
}

inline void Compress(uint32_t state[8], const uint8_t* data, size_t blocks) {
  if (ActiveShaTier() == ShaTier::kShaNi) {
    CompressShaNi(state, data, blocks);
  } else {
    CompressScalar(state, data, blocks);
  }
}

Sha256Digest Serialize(const uint32_t state[8]) {
  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<uint8_t>(state[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(state[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(state[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(state[i]);
  }
  return out;
}

}  // namespace

ShaTier ActiveShaTier() { return TierSlot().load(std::memory_order_relaxed); }

const char* ShaTierName() {
  return ActiveShaTier() == ShaTier::kShaNi ? "sha-ni" : "sha-scalar";
}

bool SetShaTier(ShaTier tier) {
  if (tier == ShaTier::kShaNi && !ShaNiSupported()) return false;
  TierSlot().store(tier, std::memory_order_relaxed);
  return true;
}

void Sha256::Reset() {
  std::memcpy(state_, kInit, sizeof(state_));
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  bit_count_ += static_cast<uint64_t>(len) * 8;

  if (buffer_len_ > 0) {
    size_t take = std::min(len, 64 - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ < 64) return;
    Compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  if (len >= 64) {
    Compress(state_, p, len / 64);
    p += len - len % 64;
    len %= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Sha256Digest Sha256::Finish() {
  // Pad: 0x80, zeros, then the 64-bit big-endian bit count.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    Compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_count_ >> (56 - 8 * i));
  }
  Compress(state_, buffer_, 1);
  return Serialize(state_);
}

Sha256Digest Sha256::Hash(const void* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finish();
}

Sha256Digest Sha256::Hash2(const std::string& a, const std::string& b) {
  Sha256 h;
  h.Update(a);
  h.Update(b);
  return h.Finish();
}

Sha256Digest Sha256::HashDigest(const Sha256Digest& d) {
  // d || 0x80 || zeros || bit length 256 (big-endian 0x0100).
  uint8_t block[64] = {};
  std::memcpy(block, d.data(), d.size());
  block[32] = 0x80;
  block[62] = 0x01;
  uint32_t state[8];
  std::memcpy(state, kInit, sizeof(state));
  Compress(state, block, 1);
  return Serialize(state);
}

}  // namespace crypto
}  // namespace stegfs

#include "crypto/aes_ni.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace stegfs {
namespace crypto {
namespace aesni {

// Each function carries its own target attribute instead of compiling the
// whole TU with -maes: the library stays runnable on CPUs without AES-NI
// (dispatch in aes.cc never calls in here unless Supported() is true).
#define STEGFS_AESNI __attribute__((target("aes,sse2")))

bool Supported() { return __builtin_cpu_supports("aes"); }

namespace {

STEGFS_AESNI inline __m128i Key(const uint8_t* ks, int i) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(ks) + i);
}

}  // namespace

STEGFS_AESNI void Encrypt1(const uint8_t* enc_ks, int rounds,
                           const uint8_t in[16], uint8_t out[16]) {
  __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
  s = _mm_xor_si128(s, Key(enc_ks, 0));
  for (int r = 1; r < rounds; ++r) s = _mm_aesenc_si128(s, Key(enc_ks, r));
  s = _mm_aesenclast_si128(s, Key(enc_ks, rounds));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), s);
}

STEGFS_AESNI void Decrypt1(const uint8_t* dec_ks, int rounds,
                           const uint8_t in[16], uint8_t out[16]) {
  __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
  s = _mm_xor_si128(s, Key(dec_ks, 0));
  for (int r = 1; r < rounds; ++r) s = _mm_aesdec_si128(s, Key(dec_ks, r));
  s = _mm_aesdeclast_si128(s, Key(dec_ks, rounds));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), s);
}

STEGFS_AESNI void EncryptEcb(const uint8_t* enc_ks, int rounds,
                             const uint8_t* in, uint8_t* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i* src = reinterpret_cast<const __m128i*>(in) + i;
    __m128i k = Key(enc_ks, 0);
    __m128i s0 = _mm_xor_si128(_mm_loadu_si128(src + 0), k);
    __m128i s1 = _mm_xor_si128(_mm_loadu_si128(src + 1), k);
    __m128i s2 = _mm_xor_si128(_mm_loadu_si128(src + 2), k);
    __m128i s3 = _mm_xor_si128(_mm_loadu_si128(src + 3), k);
    for (int r = 1; r < rounds; ++r) {
      k = Key(enc_ks, r);
      s0 = _mm_aesenc_si128(s0, k);
      s1 = _mm_aesenc_si128(s1, k);
      s2 = _mm_aesenc_si128(s2, k);
      s3 = _mm_aesenc_si128(s3, k);
    }
    k = Key(enc_ks, rounds);
    __m128i* dst = reinterpret_cast<__m128i*>(out) + i;
    _mm_storeu_si128(dst + 0, _mm_aesenclast_si128(s0, k));
    _mm_storeu_si128(dst + 1, _mm_aesenclast_si128(s1, k));
    _mm_storeu_si128(dst + 2, _mm_aesenclast_si128(s2, k));
    _mm_storeu_si128(dst + 3, _mm_aesenclast_si128(s3, k));
  }
  for (; i < n; ++i) Encrypt1(enc_ks, rounds, in + 16 * i, out + 16 * i);
}

namespace {

template <int L>
STEGFS_AESNI void EncryptCbcLanesN(const uint8_t* enc_ks, int rounds,
                                   const uint8_t* ivs,
                                   const uint8_t* const* in,
                                   uint8_t* const* out, size_t cells) {
  __m128i k[15];
  for (int r = 0; r <= rounds; ++r) k[r] = Key(enc_ks, r);
  const __m128i* src[L];
  __m128i* dst[L];
  __m128i chain[L];
#pragma GCC unroll 8
  for (int l = 0; l < L; ++l) {
    src[l] = reinterpret_cast<const __m128i*>(in[l]);
    dst[l] = reinterpret_cast<__m128i*>(out[l]);
    chain[l] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ivs) + l);
  }
  for (size_t c = 0; c < cells; ++c) {
    __m128i s[L];
    // The plaintext-and-key XOR does not depend on the chain, so only one
    // XOR sits between a lane's previous ciphertext and its next round.
#pragma GCC unroll 8
    for (int l = 0; l < L; ++l) {
      s[l] = _mm_xor_si128(
          _mm_xor_si128(_mm_loadu_si128(src[l] + c), k[0]), chain[l]);
    }
    for (int r = 1; r < rounds; ++r) {
#pragma GCC unroll 8
      for (int l = 0; l < L; ++l) s[l] = _mm_aesenc_si128(s[l], k[r]);
    }
#pragma GCC unroll 8
    for (int l = 0; l < L; ++l) {
      chain[l] = _mm_aesenclast_si128(s[l], k[rounds]);
      _mm_storeu_si128(dst[l] + c, chain[l]);
    }
  }
}

}  // namespace

void EncryptCbcLanes(const uint8_t* enc_ks, int rounds, const uint8_t* ivs,
                     const uint8_t* const* in, uint8_t* const* out,
                     size_t lanes, size_t cells) {
  switch (lanes) {
    case 1: return EncryptCbcLanesN<1>(enc_ks, rounds, ivs, in, out, cells);
    case 2: return EncryptCbcLanesN<2>(enc_ks, rounds, ivs, in, out, cells);
    case 3: return EncryptCbcLanesN<3>(enc_ks, rounds, ivs, in, out, cells);
    case 4: return EncryptCbcLanesN<4>(enc_ks, rounds, ivs, in, out, cells);
    case 5: return EncryptCbcLanesN<5>(enc_ks, rounds, ivs, in, out, cells);
    case 6: return EncryptCbcLanesN<6>(enc_ks, rounds, ivs, in, out, cells);
    case 7: return EncryptCbcLanesN<7>(enc_ks, rounds, ivs, in, out, cells);
    case 8: return EncryptCbcLanesN<8>(enc_ks, rounds, ivs, in, out, cells);
  }
}

STEGFS_AESNI void DecryptCbc(const uint8_t* dec_ks, int rounds,
                             const uint8_t iv[16], const uint8_t* in,
                             uint8_t* out, size_t n) {
  const __m128i* src = reinterpret_cast<const __m128i*>(in);
  __m128i* dst = reinterpret_cast<__m128i*>(out);
  __m128i chain = _mm_loadu_si128(reinterpret_cast<const __m128i*>(iv));
  // The last round's AddRoundKey absorbs the CBC XOR:
  // aesdeclast(s, k ^ c) == aesdeclast(s, k) ^ c.
  const __m128i last = Key(dec_ks, rounds);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i s[8];
    __m128i k = Key(dec_ks, 0);
#pragma GCC unroll 8
    for (int j = 0; j < 8; ++j) {
      s[j] = _mm_xor_si128(_mm_loadu_si128(src + i + j), k);
    }
    for (int r = 1; r < rounds; ++r) {
      k = Key(dec_ks, r);
#pragma GCC unroll 8
      for (int j = 0; j < 8; ++j) s[j] = _mm_aesdec_si128(s[j], k);
    }
    // Read every chain cell of the group before the first store: with
    // in == out the stores overwrite them.
    __m128i x[8];
    x[0] = _mm_xor_si128(last, chain);
#pragma GCC unroll 8
    for (int j = 1; j < 8; ++j) {
      x[j] = _mm_xor_si128(last, _mm_loadu_si128(src + i + j - 1));
    }
    chain = _mm_loadu_si128(src + i + 7);
#pragma GCC unroll 8
    for (int j = 0; j < 8; ++j) {
      _mm_storeu_si128(dst + i + j, _mm_aesdeclast_si128(s[j], x[j]));
    }
  }
  for (; i < n; ++i) {
    __m128i c = _mm_loadu_si128(src + i);
    __m128i s = _mm_xor_si128(c, Key(dec_ks, 0));
    for (int r = 1; r < rounds; ++r) s = _mm_aesdec_si128(s, Key(dec_ks, r));
    _mm_storeu_si128(dst + i,
                     _mm_aesdeclast_si128(s, _mm_xor_si128(last, chain)));
    chain = c;
  }
}

#undef STEGFS_AESNI

}  // namespace aesni
}  // namespace crypto
}  // namespace stegfs

#else  // non-x86: the tier is never selected; stubs keep the link happy.

#include <cstdlib>

namespace stegfs {
namespace crypto {
namespace aesni {

bool Supported() { return false; }
void Encrypt1(const uint8_t*, int, const uint8_t*, uint8_t*) { std::abort(); }
void Decrypt1(const uint8_t*, int, const uint8_t*, uint8_t*) { std::abort(); }
void EncryptEcb(const uint8_t*, int, const uint8_t*, uint8_t*, size_t) {
  std::abort();
}
void EncryptCbcLanes(const uint8_t*, int, const uint8_t*, const uint8_t* const*,
                     uint8_t* const*, size_t, size_t) {
  std::abort();
}
void DecryptCbc(const uint8_t*, int, const uint8_t*, const uint8_t*, uint8_t*,
                size_t) {
  std::abort();
}

}  // namespace aesni
}  // namespace crypto
}  // namespace stegfs

#endif

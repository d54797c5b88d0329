#include "crypto/block_crypter.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"

namespace stegfs {
namespace crypto {

BlockCrypter::BlockCrypter(const std::string& key) {
  // Derive independent data and IV keys so a related-key interaction between
  // the two cipher instances is impossible.
  std::vector<uint8_t> dk = HkdfExpand(key, "stegfs-block-data-key", 32);
  std::vector<uint8_t> ik = HkdfExpand(key, "stegfs-block-essiv-key", 32);
  data_cipher_ = std::make_unique<Aes>(dk.data(), dk.size());
  iv_cipher_ = std::make_unique<Aes>(ik.data(), ik.size());
}

void BlockCrypter::ComputeIv(uint64_t block_number, uint8_t iv[16]) const {
  uint8_t plain[16] = {0};
  for (int i = 0; i < 8; ++i) {
    plain[i] = static_cast<uint8_t>(block_number >> (8 * i));
  }
  iv_cipher_->EncryptBlock(plain, iv);
}

void BlockCrypter::ComputeIvs(const CryptSpan* spans, size_t n,
                              uint8_t* ivs) const {
  // Little-endian block numbers, zero-padded to 16 bytes, then one
  // pipelined ECB pass over all n counters.
  std::memset(ivs, 0, n * 16);
  for (size_t s = 0; s < n; ++s) {
    for (int i = 0; i < 8; ++i) {
      ivs[s * 16 + i] = static_cast<uint8_t>(spans[s].block_number >> (8 * i));
    }
  }
  iv_cipher_->EncryptBlocksEcb(ivs, ivs, n);
}

void BlockCrypter::EncryptBlock(uint64_t block_number, uint8_t* data,
                                size_t size) const {
  assert(size % 16 == 0);
  uint8_t iv[16];
  ComputeIv(block_number, iv);
  data_cipher_->EncryptCbcLanes(iv, &data, &data, 1, size / 16);
}

void BlockCrypter::DecryptBlock(uint64_t block_number, uint8_t* data,
                                size_t size) const {
  CryptSpan span{block_number, data};
  DecryptBlocks(&span, 1, size);
}

void BlockCrypter::EncryptChains(const CryptSpan* spans,
                                 const uint8_t* const* in, size_t m,
                                 size_t size) const {
  uint8_t ivs[kIvBatch * 16];
  uint8_t* out[kIvBatch];
  ComputeIvs(spans, m, ivs);
  for (size_t s = 0; s < m; ++s) out[s] = spans[s].data;
  for (size_t g = 0; g < m; g += Aes::kMaxLanes) {
    data_cipher_->EncryptCbcLanes(&ivs[g * 16], in + g, out + g,
                                  std::min(Aes::kMaxLanes, m - g), size / 16);
  }
}

void BlockCrypter::EncryptBlocks(const CryptSpan* spans, size_t n,
                                 size_t size) const {
  assert(size % 16 == 0);
  if (n == 0) return;
  // One timer per batch call, never per block — the AES work below is the
  // hot loop.
  obs::CryptoMetrics& cm = obs::GlobalCryptoMetrics();
  obs::LatencyTimer timer(&cm.encrypt_ns);
  cm.blocks_encrypted.Add(n);
  const uint8_t* in[kIvBatch];
  for (size_t base = 0; base < n; base += kIvBatch) {
    const size_t m = std::min(kIvBatch, n - base);
    for (size_t s = 0; s < m; ++s) in[s] = spans[base + s].data;
    EncryptChains(spans + base, in, m, size);
  }
}

void BlockCrypter::EncryptBlocks(const uint64_t* blocks, size_t n,
                                 size_t size, const uint8_t* in,
                                 uint8_t* out) const {
  assert(size % 16 == 0);
  if (n == 0) return;
  obs::CryptoMetrics& cm = obs::GlobalCryptoMetrics();
  obs::LatencyTimer timer(&cm.encrypt_ns);
  cm.blocks_encrypted.Add(n);
  CryptSpan spans[kIvBatch];
  const uint8_t* src[kIvBatch];
  for (size_t base = 0; base < n; base += kIvBatch) {
    const size_t m = std::min(kIvBatch, n - base);
    for (size_t s = 0; s < m; ++s) {
      spans[s] = {blocks[base + s], out + (base + s) * size};
      src[s] = in + (base + s) * size;
    }
    EncryptChains(spans, src, m, size);
  }
}

void BlockCrypter::DecryptBlocks(const CryptSpan* spans, size_t n,
                                 size_t size) const {
  assert(size % 16 == 0);
  if (n == 0) return;
  obs::CryptoMetrics& cm = obs::GlobalCryptoMetrics();
  obs::LatencyTimer timer(&cm.decrypt_ns);
  cm.blocks_decrypted.Add(n);
  uint8_t ivs[kIvBatch * 16];
  for (size_t base = 0; base < n; base += kIvBatch) {
    const size_t m = std::min(kIvBatch, n - base);
    ComputeIvs(spans + base, m, ivs);
    for (size_t s = 0; s < m; ++s) {
      uint8_t* data = spans[base + s].data;
      data_cipher_->DecryptCbc(&ivs[s * 16], data, data, size / 16);
    }
  }
}

void BlockCrypter::DecryptPrefix(uint64_t block_number, const uint8_t* in,
                                 uint8_t* out, size_t len) const {
  assert(len % 16 == 0);
  uint8_t iv[16];
  ComputeIv(block_number, iv);
  data_cipher_->DecryptCbc(iv, in, out, len / 16);
}

}  // namespace crypto
}  // namespace stegfs

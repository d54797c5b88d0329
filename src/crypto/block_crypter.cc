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

void BlockCrypter::EncryptWithIv(const uint8_t iv[16], uint8_t* data,
                                 size_t size) const {
  uint8_t chain[16];
  std::memcpy(chain, iv, 16);
  for (size_t off = 0; off < size; off += 16) {
    for (int i = 0; i < 16; ++i) data[off + i] ^= chain[i];
    data_cipher_->EncryptBlock(data + off, data + off);
    std::memcpy(chain, data + off, 16);
  }
}

void BlockCrypter::EncryptBlock(uint64_t block_number, uint8_t* data,
                                size_t size) const {
  assert(size % 16 == 0);
  uint8_t iv[16];
  ComputeIv(block_number, iv);
  EncryptWithIv(iv, data, size);
}

void BlockCrypter::DecryptBlock(uint64_t block_number, uint8_t* data,
                                size_t size) const {
  CryptSpan span{block_number, data};
  DecryptBlocks(&span, 1, size);
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
  std::vector<uint8_t> ivs(n * 16);
  ComputeIvs(spans, n, ivs.data());

  // Four device blocks at a time: their CBC chains are independent, so the
  // four lanes keep the hardware AES pipeline full even though each chain
  // is sequential internally.
  size_t s = 0;
  for (; s + 4 <= n; s += 4) {
    uint8_t chain[4][16];
    for (int l = 0; l < 4; ++l) std::memcpy(chain[l], &ivs[(s + l) * 16], 16);
    for (size_t off = 0; off < size; off += 16) {
      const uint8_t* in[4];
      uint8_t* out[4];
      for (int l = 0; l < 4; ++l) {
        uint8_t* p = spans[s + l].data + off;
        for (int i = 0; i < 16; ++i) p[i] ^= chain[l][i];
        in[l] = p;
        out[l] = p;
      }
      data_cipher_->Encrypt4(in, out);
      for (int l = 0; l < 4; ++l) {
        std::memcpy(chain[l], spans[s + l].data + off, 16);
      }
    }
  }
  for (; s < n; ++s) {
    EncryptWithIv(&ivs[s * 16], spans[s].data, size);
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

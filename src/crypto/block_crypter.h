// Sector-level encryption: AES-256-CBC with ESSIV per-block IVs.
//
// Every block of a hidden object (header, inode blocks, data blocks, and the
// free blocks it holds) is encrypted so that it is indistinguishable from
// the random fill written at format time (paper section 3.1). ESSIV
// (IV = AES_k2(block_number), k2 = SHA256(key)) makes the IV secret and
// position-dependent without storing it, so identical plaintext at two
// addresses yields unrelated ciphertext and no per-block metadata leaks.
#ifndef STEGFS_CRYPTO_BLOCK_CRYPTER_H_
#define STEGFS_CRYPTO_BLOCK_CRYPTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crypto/aes.h"
#include "util/status.h"

namespace stegfs {
namespace crypto {

// One device block in a batch: the ESSIV tweak (block_number) plus its
// in-place payload. Block numbers need not be contiguous or ordered —
// each block is an independent CBC chain.
struct CryptSpan {
  uint64_t block_number;
  uint8_t* data;
};

// Encrypts/decrypts fixed-size device blocks keyed by (key, block_number).
// Block size must be a multiple of 16 bytes (true for all supported device
// block sizes, 512 B - 64 KB).
class BlockCrypter {
 public:
  // `key` is arbitrary-length key material; internally a 256-bit data key
  // and a 256-bit IV key are derived from it.
  explicit BlockCrypter(const std::string& key);

  // In-place whole-block transforms. `size` must be a multiple of 16.
  void EncryptBlock(uint64_t block_number, uint8_t* data, size_t size) const;
  void DecryptBlock(uint64_t block_number, uint8_t* data, size_t size) const;

  // Batch transforms over n device blocks of `size` bytes each, in place.
  // The ESSIV IVs are derived in pipelined ECB passes, kIvBatch spans at a
  // time into a stack array. Encryption then hands the spans to
  // Aes::EncryptCbcLanes eight at a time, the last 1-7 as one narrower
  // group: CBC chains are independent across device blocks and sequential
  // only within one, so eight chains in lock step keep the AES pipeline
  // full. Decryption runs each block through Aes::DecryptCbc. Neither
  // direction copies a block or allocates. Bitwise-identical to calling
  // the single-block transforms once per span.
  void EncryptBlocks(const CryptSpan* spans, size_t n, size_t size) const;
  void DecryptBlocks(const CryptSpan* spans, size_t n, size_t size) const;

  // Out-of-place batch encryption: n device blocks laid out back to back,
  // plaintext read from `in`, ciphertext written to `out`; block i is keyed
  // by blocks[i]. `in` is left untouched, so a write path can encrypt
  // straight from the caller's buffer into its staging buffer. in and out
  // must be the same buffer or not overlap at all.
  void EncryptBlocks(const uint64_t* blocks, size_t n, size_t size,
                     const uint8_t* in, uint8_t* out) const;

  // Decrypts only the first `len` bytes (a multiple of 16, at most the
  // block size) of device block `block_number` from `in` into `out`.
  // Plaintext cell i of a CBC block depends only on the IV and ciphertext
  // cells i-1 and i, so this equals the first `len` bytes of
  // DecryptBlock. The locator's signature probe uses it; it is not
  // counted in stegfs_crypto_blocks_decrypted_total.
  void DecryptPrefix(uint64_t block_number, const uint8_t* in, uint8_t* out,
                     size_t len) const;

 private:
  // Spans whose IVs one ECB pass derives (a stack array).
  static constexpr size_t kIvBatch = 32;

  void ComputeIv(uint64_t block_number, uint8_t iv[16]) const;
  // Derives the IVs for n spans into ivs (n * 16 bytes) with one ECB batch.
  void ComputeIvs(const CryptSpan* spans, size_t n, uint8_t* ivs) const;
  // CBC-encrypts m <= kIvBatch blocks: in[i] into spans[i].data.
  void EncryptChains(const CryptSpan* spans, const uint8_t* const* in,
                     size_t m, size_t size) const;

  std::unique_ptr<Aes> data_cipher_;
  std::unique_ptr<Aes> iv_cipher_;
};

}  // namespace crypto
}  // namespace stegfs

#endif  // STEGFS_CRYPTO_BLOCK_CRYPTER_H_

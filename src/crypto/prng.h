// Cryptographic pseudo-random generators.
//
// HashChainPrng is the header locator's generator from the paper (section 4,
// API 1): "It uses SHA256 as the pseudorandom number generator for locating
// the hidden object (the seed is recursively hashed to generate the
// pseudorandom numbers)". Given the same (name, key) seed it reproduces the
// same candidate block-number sequence forever, which is what makes hidden
// files findable without any central index.
//
// CtrDrbg is an AES-CTR based deterministic random bit generator used for
// bulk random material: format-time disk fill, FAK generation, abandoned
// block selection. It is seeded explicitly so experiments are reproducible.
#ifndef STEGFS_CRYPTO_PRNG_H_
#define STEGFS_CRYPTO_PRNG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/sha256.h"

namespace stegfs {
namespace crypto {

// Recursive-SHA-256 generator of block numbers in [0, modulus).
class HashChainPrng {
 public:
  // `seed` is typically SHA256(physical_name || access_key).
  HashChainPrng(const Sha256Digest& seed, uint64_t modulus);

  // Next candidate block number. Consumes 8 bytes of the current digest at a
  // time; re-hashes the digest when exhausted ("recursively hashed"), one
  // SHA-256 compression per step (Sha256::HashDigest).
  uint64_t Next();

 private:
  Sha256Digest state_;
  uint64_t modulus_;
  size_t offset_ = 0;
};

// AES-256-CTR DRBG.
class CtrDrbg {
 public:
  explicit CtrDrbg(const std::string& seed);

  void Generate(uint8_t* out, size_t n);
  std::vector<uint8_t> Generate(size_t n);
  std::string GenerateString(size_t n);
  uint64_t NextUint64();
  // Uniform in [0, n) by rejection sampling (no modulo bias).
  uint64_t Uniform(uint64_t n);

 private:
  std::unique_ptr<Aes> cipher_;
  uint64_t counter_ = 0;
  uint8_t buffer_[16];
  size_t buffer_pos_ = 16;  // empty
};

}  // namespace crypto
}  // namespace stegfs

#endif  // STEGFS_CRYPTO_PRNG_H_

#include "crypto/prng.h"

#include <cassert>
#include <cstring>

#include "crypto/hmac.h"

namespace stegfs {
namespace crypto {

HashChainPrng::HashChainPrng(const Sha256Digest& seed, uint64_t modulus)
    : state_(seed), modulus_(modulus) {
  assert(modulus_ > 0);
}

uint64_t HashChainPrng::Next() {
  if (offset_ + 8 > state_.size()) {
    state_ = Sha256::HashDigest(state_);
    offset_ = 0;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | state_[offset_ + i];
  }
  offset_ += 8;
  return v % modulus_;
}

CtrDrbg::CtrDrbg(const std::string& seed) {
  std::vector<uint8_t> key = HkdfExpand(seed, "stegfs-ctr-drbg", 32);
  cipher_ = std::make_unique<Aes>(key.data(), key.size());
}

void CtrDrbg::Generate(uint8_t* out, size_t n) {
  size_t i = 0;
  while (i < n) {
    if (buffer_pos_ == 16) {
      uint8_t ctr_block[16] = {0};
      for (int b = 0; b < 8; ++b) {
        ctr_block[b] = static_cast<uint8_t>(counter_ >> (8 * b));
      }
      cipher_->EncryptBlock(ctr_block, buffer_);
      ++counter_;
      buffer_pos_ = 0;
    }
    size_t take = std::min(n - i, 16 - buffer_pos_);
    std::memcpy(out + i, buffer_ + buffer_pos_, take);
    buffer_pos_ += take;
    i += take;
  }
}

std::vector<uint8_t> CtrDrbg::Generate(size_t n) {
  std::vector<uint8_t> out(n);
  Generate(out.data(), n);
  return out;
}

std::string CtrDrbg::GenerateString(size_t n) {
  std::string out(n, '\0');
  Generate(reinterpret_cast<uint8_t*>(out.data()), n);
  return out;
}

uint64_t CtrDrbg::NextUint64() {
  uint8_t buf[8];
  Generate(buf, 8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(buf[i]) << (8 * i);
  return v;
}

uint64_t CtrDrbg::Uniform(uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = UINT64_MAX - (UINT64_MAX % n);
  uint64_t v;
  do {
    v = NextUint64();
  } while (v >= limit);
  return v % n;
}

}  // namespace crypto
}  // namespace stegfs

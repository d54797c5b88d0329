#include "crypto/prng.h"

#include <algorithm>
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

namespace {

// Counter block i: LE64(i) followed by eight zero bytes.
void StoreCounter(uint64_t counter, uint8_t* block) {
  for (int b = 0; b < 8; ++b) {
    block[b] = static_cast<uint8_t>(counter >> (8 * b));
  }
}

}  // namespace

void CtrDrbg::Generate(uint8_t* out, size_t n) {
  if (n == 0) return;
  // What the previous call left of its last cell comes first.
  size_t i = std::min(n, 16 - buffer_pos_);
  std::memcpy(out, buffer_ + buffer_pos_, i);
  buffer_pos_ += i;
  // Whole cells: kCounterBatch counter blocks per ECB pass, encrypted
  // straight into `out`.
  if (n - i >= 16) {
    uint8_t ctr[kCounterBatch * 16] = {0};
    while (n - i >= 16) {
      const size_t m = std::min(kCounterBatch, (n - i) / 16);
      for (size_t c = 0; c < m; ++c) StoreCounter(counter_++, ctr + 16 * c);
      cipher_->EncryptBlocksEcb(ctr, out + i, m);
      i += 16 * m;
    }
  }
  // A partial tail cell is kept for the next call.
  if (i < n) {
    uint8_t ctr[16] = {0};
    StoreCounter(counter_++, ctr);
    cipher_->EncryptBlock(ctr, buffer_);
    buffer_pos_ = n - i;
    std::memcpy(out + i, buffer_, buffer_pos_);
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

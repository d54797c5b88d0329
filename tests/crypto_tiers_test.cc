// Equivalence tests for the AES dispatch tiers and the batched
// BlockCrypter entry points:
//   - every tier (t-table always; AES-NI when the CPU has it) must match
//     the FIPS 197 appendix C vectors AND the byte-wise reference
//     implementation (crypto::AesRef) on random data,
//   - the ECB and eight-lane CBC encrypt entry points must match the
//     single-block path, in place and out of place,
//   - the fused CBC decrypt must match single-block decryption plus the
//     XOR un-chaining, in place and out of place,
//   - BlockCrypter::{Encrypt,Decrypt}Blocks must be bitwise identical to
//     the per-block transforms on random batches with non-contiguous
//     block numbers, including across tiers (encrypt on one, decrypt on
//     the other),
//   - BlockCrypter must match a byte-wise CBC-ESSIV reference built on
//     AesRef, for every block size, batch shape and signature prefix,
//   - the table-built decryption key schedule must match AesRef's
//     GF(2^8)-product schedule for every key length.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/aes_ref.h"
#include "crypto/block_crypter.h"
#include "crypto/hmac.h"
#include "util/hex.h"
#include "util/random.h"

namespace stegfs {
namespace crypto {
namespace {

// Runs the test body once per tier supported on this CPU, restoring the
// original tier afterwards.
class TierScope {
 public:
  explicit TierScope(AesTier tier) : saved_(ActiveAesTier()) {
    active_ = SetAesTier(tier);
  }
  ~TierScope() { SetAesTier(saved_); }
  bool active() const { return active_; }

 private:
  AesTier saved_;
  bool active_;
};

const AesTier kAllTiers[] = {AesTier::kTable, AesTier::kAesNi};

std::vector<uint8_t> FromHex(const std::string& h) {
  std::vector<uint8_t> out;
  EXPECT_TRUE(HexDecode(h, &out));
  return out;
}

void CheckFipsVectors() {
  struct Vec {
    const char* key;
    const char* ct;
  };
  // FIPS 197 appendix C: plaintext 00112233...eeff, key 000102....
  const char* pt_hex = "00112233445566778899aabbccddeeff";
  const Vec vecs[] = {
      {"000102030405060708090a0b0c0d0e0f",
       "69c4e0d86a7b0430d8cdb78070b4c55a"},
      {"000102030405060708090a0b0c0d0e0f1011121314151617",
       "dda97ca4864cdfe06eaf70a0ec0d7191"},
      {"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
       "8ea2b7ca516745bfeafc49904b496089"},
  };
  for (const Vec& v : vecs) {
    auto key = FromHex(v.key);
    auto pt = FromHex(pt_hex);
    Aes aes(key.data(), key.size());
    uint8_t enc[16], dec[16];
    aes.EncryptBlock(pt.data(), enc);
    EXPECT_EQ(HexEncode(enc, 16), v.ct);
    aes.DecryptBlock(enc, dec);
    EXPECT_EQ(HexEncode(dec, 16), pt_hex);
  }
}

TEST(CryptoTiersTest, EveryTierMatchesFips197) {
  for (AesTier tier : kAllTiers) {
    TierScope scope(tier);
    if (!scope.active()) continue;  // AES-NI absent on this CPU
    SCOPED_TRACE(AesTierName());
    CheckFipsVectors();
  }
}

TEST(CryptoTiersTest, ReferenceMatchesFips197) {
  auto key = FromHex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto pt = FromHex("00112233445566778899aabbccddeeff");
  AesRef ref(key.data(), key.size());
  uint8_t enc[16], dec[16];
  ref.EncryptBlock(pt.data(), enc);
  EXPECT_EQ(HexEncode(enc, 16), "8ea2b7ca516745bfeafc49904b496089");
  ref.DecryptBlock(enc, dec);
  EXPECT_EQ(HexEncode(dec, 16), "00112233445566778899aabbccddeeff");
}

TEST(CryptoTiersTest, TiersMatchByteWiseReferenceOnRandomData) {
  Xoshiro rng(0xc0ffee);
  for (size_t key_len : {16u, 24u, 32u}) {
    std::vector<uint8_t> key(key_len);
    rng.FillBytes(key.data(), key.size());
    AesRef ref(key.data(), key.size());
    Aes aes(key.data(), key.size());
    for (int i = 0; i < 64; ++i) {
      uint8_t pt[16], want_ct[16], want_pt[16];
      rng.FillBytes(pt, 16);
      ref.EncryptBlock(pt, want_ct);
      ref.DecryptBlock(want_ct, want_pt);
      ASSERT_EQ(std::memcmp(want_pt, pt, 16), 0);  // the reference itself
      for (AesTier tier : kAllTiers) {
        TierScope scope(tier);
        if (!scope.active()) continue;
        SCOPED_TRACE(AesTierName());
        uint8_t got[16];
        aes.EncryptBlock(pt, got);
        EXPECT_EQ(std::memcmp(got, want_ct, 16), 0);
        aes.DecryptBlock(want_ct, got);
        EXPECT_EQ(std::memcmp(got, pt, 16), 0);
      }
    }
  }
}

TEST(CryptoTiersTest, DecryptionScheduleMatchesGfMulReference) {
  // Aes builds the equivalent-inverse schedule from the decryption
  // T-tables; AesRef computes it with GF(2^8) products, byte by byte. One
  // schedule serves both tiers, so this holds whatever tier is active.
  Xoshiro rng(0x5c4ed);
  for (size_t key_len : {16u, 24u, 32u}) {
    for (int i = 0; i < 32; ++i) {
      std::vector<uint8_t> key(key_len);
      rng.FillBytes(key.data(), key.size());
      Aes aes(key.data(), key.size());
      AesRef ref(key.data(), key.size());
      ASSERT_EQ(aes.rounds(), ref.rounds());
      const size_t bytes = 16 * static_cast<size_t>(ref.rounds() + 1);
      std::vector<uint8_t> want(bytes);
      ref.EquivalentInverseSchedule(want.data());
      EXPECT_EQ(HexEncode(aes.decryption_schedule(), bytes),
                HexEncode(want.data(), bytes))
          << "key length " << key_len;
    }
  }
}

TEST(CryptoTiersTest, EcbBatchMatchesSingleBlocks) {
  Xoshiro rng(0xba7c4ed);
  std::vector<uint8_t> key(32);
  rng.FillBytes(key.data(), key.size());
  Aes aes(key.data(), key.size());
  // Odd count exercises the 4-wide pipeline remainder.
  const size_t kN = 23;
  std::vector<uint8_t> in(kN * 16), want(kN * 16), got(kN * 16);
  rng.FillBytes(in.data(), in.size());
  for (AesTier tier : kAllTiers) {
    TierScope scope(tier);
    if (!scope.active()) continue;
    SCOPED_TRACE(AesTierName());
    for (size_t i = 0; i < kN; ++i) {
      aes.EncryptBlock(in.data() + 16 * i, want.data() + 16 * i);
    }
    aes.EncryptBlocksEcb(in.data(), got.data(), kN);
    EXPECT_EQ(want, got);
    // In-place batch.
    got = in;
    aes.EncryptBlocksEcb(got.data(), got.data(), kN);
    EXPECT_EQ(want, got);
  }
}

TEST(CryptoTiersTest, CbcDecryptMatchesSingleBlocks) {
  Xoshiro rng(0xcbcd);
  std::vector<uint8_t> key(32);
  rng.FillBytes(key.data(), key.size());
  Aes aes(key.data(), key.size());
  uint8_t iv[16];
  rng.FillBytes(iv, 16);
  // 1..8 cells fall entirely in the single-cell tail; 23 runs two full
  // eight-cell groups plus a remainder.
  for (size_t n : {1u, 2u, 7u, 8u, 9u, 23u}) {
    std::vector<uint8_t> in(n * 16), want(n * 16);
    rng.FillBytes(in.data(), in.size());
    for (AesTier tier : kAllTiers) {
      TierScope scope(tier);
      if (!scope.active()) continue;
      SCOPED_TRACE(std::string(AesTierName()) + " n=" + std::to_string(n));
      for (size_t i = 0; i < n; ++i) {
        aes.DecryptBlock(in.data() + 16 * i, want.data() + 16 * i);
        const uint8_t* chain = i == 0 ? iv : in.data() + 16 * (i - 1);
        for (int b = 0; b < 16; ++b) want[16 * i + b] ^= chain[b];
      }
      std::vector<uint8_t> got(n * 16);
      aes.DecryptCbc(iv, in.data(), got.data(), n);
      EXPECT_EQ(want, got);
      got = in;  // in place
      aes.DecryptCbc(iv, got.data(), got.data(), n);
      EXPECT_EQ(want, got);
    }
  }
}

TEST(CryptoTiersTest, CbcEncryptLanesMatchSingleBlocks) {
  Xoshiro rng(0x8888);
  std::vector<uint8_t> key(32);
  rng.FillBytes(key.data(), key.size());
  Aes aes(key.data(), key.size());
  const size_t kCells = 11;
  for (size_t lanes = 1; lanes <= Aes::kMaxLanes; ++lanes) {
    std::vector<uint8_t> ivs(lanes * 16);
    rng.FillBytes(ivs.data(), ivs.size());
    // Each lane in its own buffer, at unrelated addresses.
    std::vector<std::vector<uint8_t>> plain(lanes);
    for (auto& p : plain) {
      p.resize(kCells * 16);
      rng.FillBytes(p.data(), p.size());
    }
    for (AesTier tier : kAllTiers) {
      TierScope scope(tier);
      if (!scope.active()) continue;
      SCOPED_TRACE(std::string(AesTierName()) + " lanes=" +
                   std::to_string(lanes));
      // Ground truth: single-block encryption with the chaining by hand.
      std::vector<std::vector<uint8_t>> want = plain;
      for (size_t l = 0; l < lanes; ++l) {
        const uint8_t* chain = &ivs[16 * l];
        for (size_t c = 0; c < kCells; ++c) {
          uint8_t* cell = want[l].data() + 16 * c;
          for (int b = 0; b < 16; ++b) cell[b] ^= chain[b];
          aes.EncryptBlock(cell, cell);
          chain = cell;
        }
      }
      // Out of place: the plaintext stays as it was.
      std::vector<std::vector<uint8_t>> got(lanes,
                                            std::vector<uint8_t>(kCells * 16));
      std::vector<const uint8_t*> in(lanes);
      std::vector<uint8_t*> out(lanes);
      for (size_t l = 0; l < lanes; ++l) {
        in[l] = plain[l].data();
        out[l] = got[l].data();
      }
      const std::vector<std::vector<uint8_t>> before = plain;
      aes.EncryptCbcLanes(ivs.data(), in.data(), out.data(), lanes, kCells);
      EXPECT_EQ(got, want);
      EXPECT_EQ(plain, before);
      // In place.
      got = plain;
      for (size_t l = 0; l < lanes; ++l) {
        in[l] = got[l].data();
        out[l] = got[l].data();
      }
      aes.EncryptCbcLanes(ivs.data(), in.data(), out.data(), lanes, kCells);
      EXPECT_EQ(got, want);
    }
  }
}

TEST(CryptoTiersTest, BlockCrypterBatchMatchesSingleNonContiguous) {
  Xoshiro rng(0x5e9);
  BlockCrypter bc("tier-equivalence-key");
  const size_t kBlock = 1024;
  // Deliberately non-contiguous, unsorted, well-spread block numbers.
  const uint64_t kBlocks[] = {7, 123456789, 42, 0, 999999999999ULL, 8191, 13};
  const size_t kN = sizeof(kBlocks) / sizeof(kBlocks[0]);

  std::vector<uint8_t> plain(kN * kBlock);
  rng.FillBytes(plain.data(), plain.size());

  for (AesTier tier : kAllTiers) {
    TierScope scope(tier);
    if (!scope.active()) continue;
    SCOPED_TRACE(AesTierName());

    // Single-block transforms = ground truth.
    std::vector<uint8_t> want = plain;
    for (size_t i = 0; i < kN; ++i) {
      bc.EncryptBlock(kBlocks[i], want.data() + i * kBlock, kBlock);
    }

    std::vector<uint8_t> got = plain;
    std::vector<CryptSpan> spans(kN);
    for (size_t i = 0; i < kN; ++i) {
      spans[i] = {kBlocks[i], got.data() + i * kBlock};
    }
    bc.EncryptBlocks(spans.data(), kN, kBlock);
    EXPECT_EQ(want, got);

    bc.DecryptBlocks(spans.data(), kN, kBlock);
    EXPECT_EQ(got, plain);
  }
}

// Byte-wise AES-256-CBC-ESSIV written from the format's definition on top
// of AesRef, sharing no code with BlockCrypter beyond the key derivation:
// data key = HKDF(key, "stegfs-block-data-key"), IV key = HKDF(key,
// "stegfs-block-essiv-key"), IV = AES_ivkey(LE64(block_number) || 0^8),
// then plain CBC over the block.
class CbcEssivRef {
 public:
  explicit CbcEssivRef(const std::string& key)
      : dk_(HkdfExpand(key, "stegfs-block-data-key", 32)),
        ik_(HkdfExpand(key, "stegfs-block-essiv-key", 32)),
        data_(dk_.data(), dk_.size()),
        essiv_(ik_.data(), ik_.size()) {}

  std::vector<uint8_t> Encrypt(uint64_t block_number,
                               std::vector<uint8_t> data) const {
    uint8_t chain[16];
    Iv(block_number, chain);
    for (size_t off = 0; off < data.size(); off += 16) {
      for (int i = 0; i < 16; ++i) data[off + i] ^= chain[i];
      data_.EncryptBlock(&data[off], &data[off]);
      std::memcpy(chain, &data[off], 16);
    }
    return data;
  }

  std::vector<uint8_t> Decrypt(uint64_t block_number,
                               const std::vector<uint8_t>& cipher) const {
    std::vector<uint8_t> plain(cipher.size());
    uint8_t chain[16];
    Iv(block_number, chain);
    for (size_t off = 0; off < cipher.size(); off += 16) {
      data_.DecryptBlock(&cipher[off], &plain[off]);
      for (int i = 0; i < 16; ++i) plain[off + i] ^= chain[i];
      std::memcpy(chain, &cipher[off], 16);
    }
    return plain;
  }

 private:
  void Iv(uint64_t block_number, uint8_t iv[16]) const {
    uint8_t counter[16] = {0};
    for (int i = 0; i < 8; ++i) {
      counter[i] = static_cast<uint8_t>(block_number >> (8 * i));
    }
    essiv_.EncryptBlock(counter, iv);
  }

  std::vector<uint8_t> dk_, ik_;
  AesRef data_, essiv_;
};

TEST(CryptoTiersTest, BlockCrypterMatchesByteWiseCbcEssivReference) {
  const std::string kKey = "independent-cbc-essiv-reference";
  BlockCrypter bc(kKey);
  CbcEssivRef ref(kKey);
  Xoshiro rng(0xe551);
  // n = 1..17 covers one and two full eight-lane groups and every
  // remainder. The reference runs once per block size, over the largest
  // batch; each n uses a prefix of it.
  const size_t kMaxN = 17;
  for (size_t bs = 512; bs <= 65536; bs *= 2) {
    // Unsorted, non-contiguous block numbers: the full 64-bit range mixed
    // with small neighbours.
    std::vector<uint64_t> numbers(kMaxN);
    for (size_t i = 0; i < kMaxN; ++i) {
      numbers[i] = i % 2 == 0 ? rng.Next() : 1000 - 7 * i;
    }
    std::vector<std::vector<uint8_t>> plain(kMaxN), cipher(kMaxN);
    for (size_t i = 0; i < kMaxN; ++i) {
      plain[i].resize(bs);
      rng.FillBytes(plain[i].data(), bs);
      cipher[i] = ref.Encrypt(numbers[i], plain[i]);
      ASSERT_EQ(ref.Decrypt(numbers[i], cipher[i]), plain[i]);
    }
    for (size_t n = 1; n <= kMaxN; ++n) {
      for (AesTier tier : kAllTiers) {
        TierScope scope(tier);
        if (!scope.active()) continue;
        SCOPED_TRACE(std::string(AesTierName()) + " bs=" +
                     std::to_string(bs) + " n=" + std::to_string(n));
        // Batch encrypt and decrypt, in place, one buffer per span.
        std::vector<std::vector<uint8_t>> buf(plain.begin(),
                                              plain.begin() + n);
        std::vector<CryptSpan> spans(n);
        for (size_t i = 0; i < n; ++i) spans[i] = {numbers[i], buf[i].data()};
        bc.EncryptBlocks(spans.data(), n, bs);
        for (size_t i = 0; i < n; ++i) EXPECT_EQ(buf[i], cipher[i]) << i;
        bc.DecryptBlocks(spans.data(), n, bs);
        for (size_t i = 0; i < n; ++i) EXPECT_EQ(buf[i], plain[i]) << i;

        // Out-of-place batch encrypt from one contiguous plaintext buffer
        // into another; the plaintext is left untouched.
        std::vector<uint8_t> flat_in(n * bs), flat_out(n * bs);
        for (size_t i = 0; i < n; ++i) {
          std::memcpy(&flat_in[i * bs], plain[i].data(), bs);
        }
        const std::vector<uint8_t> flat_before = flat_in;
        bc.EncryptBlocks(numbers.data(), n, bs, flat_in.data(),
                         flat_out.data());
        EXPECT_EQ(flat_in, flat_before);
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(std::memcmp(&flat_out[i * bs], cipher[i].data(), bs), 0)
              << "out of place, span " << i;
        }
        // And the same entry point in place.
        bc.EncryptBlocks(numbers.data(), n, bs, flat_in.data(),
                         flat_in.data());
        EXPECT_EQ(flat_in, flat_out);

        // Single-block transforms on the last span.
        std::vector<uint8_t> one = plain[n - 1];
        bc.EncryptBlock(numbers[n - 1], one.data(), bs);
        EXPECT_EQ(one, cipher[n - 1]);
        bc.DecryptBlock(numbers[n - 1], one.data(), bs);
        EXPECT_EQ(one, plain[n - 1]);

        // Signature-sized prefixes, out of place and in place.
        for (size_t len : {16u, 32u}) {
          for (size_t i = 0; i < n; ++i) {
            uint8_t out[32];
            bc.DecryptPrefix(numbers[i], cipher[i].data(), out, len);
            EXPECT_EQ(std::memcmp(out, plain[i].data(), len), 0)
                << "len " << len << " span " << i;
            std::vector<uint8_t> head(cipher[i].begin(),
                                      cipher[i].begin() + len);
            bc.DecryptPrefix(numbers[i], head.data(), head.data(), len);
            EXPECT_EQ(std::memcmp(head.data(), plain[i].data(), len), 0)
                << "in place, len " << len << " span " << i;
          }
        }
      }
    }
  }
}

TEST(CryptoTiersTest, CiphertextIdenticalAcrossTiers) {
  TierScope probe(AesTier::kAesNi);
  if (!probe.active()) {
    GTEST_SKIP() << "CPU has no AES-NI; single-tier machine";
  }
  BlockCrypter bc("cross-tier-key");
  std::vector<uint8_t> data(4096);
  Xoshiro rng(0xabcd);
  rng.FillBytes(data.data(), data.size());
  std::vector<uint8_t> plain = data;

  // Encrypt with hardware, decrypt with software (and vice versa).
  ASSERT_TRUE(SetAesTier(AesTier::kAesNi));
  bc.EncryptBlock(31337, data.data(), data.size());
  std::vector<uint8_t> hw_cipher = data;
  ASSERT_TRUE(SetAesTier(AesTier::kTable));
  bc.DecryptBlock(31337, data.data(), data.size());
  EXPECT_EQ(data, plain);
  bc.EncryptBlock(31337, data.data(), data.size());
  EXPECT_EQ(data, hw_cipher);  // bitwise-identical ciphertext
  ASSERT_TRUE(SetAesTier(AesTier::kAesNi));
  bc.DecryptBlock(31337, data.data(), data.size());
  EXPECT_EQ(data, plain);
}

}  // namespace
}  // namespace crypto
}  // namespace stegfs

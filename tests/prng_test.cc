#include "crypto/prng.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/aes_ref.h"
#include "crypto/hmac.h"
#include "util/random.h"

namespace stegfs {
namespace crypto {
namespace {

TEST(HashChainPrngTest, DeterministicForSeed) {
  Sha256Digest seed = Sha256::Hash("name||key");
  HashChainPrng a(seed, 1000), b(seed, 1000);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(HashChainPrngTest, RespectsModulus) {
  Sha256Digest seed = Sha256::Hash("x");
  HashChainPrng prng(seed, 37);
  for (int i = 0; i < 500; ++i) {
    EXPECT_LT(prng.Next(), 37u);
  }
}

TEST(HashChainPrngTest, DifferentSeedsDiverge) {
  HashChainPrng a(Sha256::Hash("seed-a"), 1u << 20);
  HashChainPrng b(Sha256::Hash("seed-b"), 1u << 20);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(HashChainPrngTest, ChainsPastDigestBoundary) {
  // A 32-byte digest yields 4 values before re-hashing; values 5+ exercise
  // the recursive-hash step and must still be in range and deterministic.
  Sha256Digest seed = Sha256::Hash("chain");
  HashChainPrng a(seed, 1u << 30);
  std::vector<uint64_t> first(12);
  for (auto& v : first) v = a.Next();
  HashChainPrng b(seed, 1u << 30);
  for (auto v : first) EXPECT_EQ(b.Next(), v);
}

TEST(HashChainPrngTest, CoversSpaceReasonablyUniformly) {
  HashChainPrng prng(Sha256::Hash("uniform"), 16);
  std::vector<int> counts(16, 0);
  for (int i = 0; i < 1600; ++i) counts[prng.Next()]++;
  for (int c : counts) {
    EXPECT_GT(c, 40);   // expect ~100 each
    EXPECT_LT(c, 200);
  }
}

TEST(CtrDrbgTest, Deterministic) {
  CtrDrbg a("seed"), b("seed");
  EXPECT_EQ(a.Generate(64), b.Generate(64));
}

TEST(CtrDrbgTest, SeedSeparation) {
  CtrDrbg a("seed-1"), b("seed-2");
  EXPECT_NE(a.Generate(64), b.Generate(64));
}

TEST(CtrDrbgTest, StreamsAcrossCalls) {
  CtrDrbg a("seed");
  auto part1 = a.Generate(10);
  auto part2 = a.Generate(22);
  CtrDrbg b("seed");
  auto whole = b.Generate(32);
  std::vector<uint8_t> joined = part1;
  joined.insert(joined.end(), part2.begin(), part2.end());
  EXPECT_EQ(joined, whole);
}

TEST(CtrDrbgTest, UniformBounds) {
  CtrDrbg drbg("u");
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(drbg.Uniform(17), 17u);
  }
}

TEST(CtrDrbgTest, UniformSmallRangeCoverage) {
  CtrDrbg drbg("cover");
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(drbg.Uniform(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(CtrDrbgTest, OutputLooksRandom) {
  CtrDrbg drbg("entropy-check");
  auto bytes = drbg.Generate(1 << 16);
  std::vector<int> counts(256, 0);
  for (uint8_t b : bytes) counts[b]++;
  // Expected 256 per value; flag if any value is off by more than 4x.
  for (int c : counts) {
    EXPECT_GT(c, 64);
    EXPECT_LT(c, 1024);
  }
}

// The CtrDrbg stream written from its definition, one cell at a time on
// the byte-wise AesRef: key = HKDF(seed, "stegfs-ctr-drbg"), cell i =
// AES_key(LE64(i) || 0^8), bytes handed out in order across calls.
class CtrStreamRef {
 public:
  explicit CtrStreamRef(const std::string& seed)
      : key_(HkdfExpand(seed, "stegfs-ctr-drbg", 32)),
        aes_(key_.data(), key_.size()) {}

  std::vector<uint8_t> Generate(size_t n) {
    std::vector<uint8_t> out(n);
    for (uint8_t& b : out) {
      if (pos_ == 16) {
        uint8_t ctr[16] = {0};
        for (int i = 0; i < 8; ++i) {
          ctr[i] = static_cast<uint8_t>(counter_ >> (8 * i));
        }
        aes_.EncryptBlock(ctr, cell_);
        ++counter_;
        pos_ = 0;
      }
      b = cell_[pos_++];
    }
    return out;
  }

  uint64_t NextUint64() {
    std::vector<uint8_t> b = Generate(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(b[i]) << (8 * i);
    return v;
  }

  uint64_t Uniform(uint64_t n) {
    const uint64_t limit = UINT64_MAX - (UINT64_MAX % n);
    uint64_t v;
    do {
      v = NextUint64();
    } while (v >= limit);
    return v % n;
  }

 private:
  std::vector<uint8_t> key_;
  AesRef aes_;
  uint64_t counter_ = 0;
  uint8_t cell_[16];
  size_t pos_ = 16;
};

TEST(CtrDrbgTest, BatchedStreamMatchesPerCellReference) {
  const AesTier saved = ActiveAesTier();
  for (AesTier tier : {AesTier::kTable, AesTier::kAesNi}) {
    if (!SetAesTier(tier)) continue;
    SCOPED_TRACE(AesTierName());
    CtrDrbg drbg("batched-ctr-stream");
    CtrStreamRef ref("batched-ctr-stream");
    Xoshiro rng(0xc7d);
    // Boundary lengths first (empty, partial cell, exact cell, one past,
    // several ECB batches plus a tail), then random ones, with NextUint64
    // and Uniform draws interleaved so every buffer offset is exercised.
    std::vector<size_t> lengths = {0, 1, 15, 16, 17, 4099, 0, 16, 1024, 3};
    for (int i = 0; i < 60; ++i) lengths.push_back(rng.Next() % 2500);
    for (size_t step = 0; step < lengths.size(); ++step) {
      const size_t len = lengths[step];
      SCOPED_TRACE("step " + std::to_string(step) + " len " +
                   std::to_string(len));
      ASSERT_EQ(drbg.Generate(len), ref.Generate(len));
      ASSERT_EQ(drbg.NextUint64(), ref.NextUint64());
      const uint64_t n = 1 + rng.Next() % 1000;
      ASSERT_EQ(drbg.Uniform(n), ref.Uniform(n));
    }
    // A bound just past 2^63 makes the rejection loop redraw about half
    // the time.
    const uint64_t kWide = UINT64_MAX / 2 + 2;
    for (int i = 0; i < 20; ++i) {
      ASSERT_EQ(drbg.Uniform(kWide), ref.Uniform(kWide));
    }
    const std::vector<uint8_t> tail = ref.Generate(33);
    EXPECT_EQ(drbg.GenerateString(33), std::string(tail.begin(), tail.end()));
  }
  SetAesTier(saved);
}

}  // namespace
}  // namespace crypto
}  // namespace stegfs

#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/hex.h"
#include "util/random.h"

namespace stegfs {
namespace crypto {
namespace {

std::string HexOf(const Sha256Digest& d) {
  return HexEncode(d.data(), d.size());
}

// FIPS 180-2 appendix B test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HexOf(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HexOf(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(HexOf(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(HexOf(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly, to exercise "
      "buffer boundaries in the incremental hashing path.";
  Sha256Digest oneshot = Sha256::Hash(msg);
  // Feed in every possible split position.
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(msg.substr(0, split));
    h.Update(msg.substr(split));
    EXPECT_EQ(h.Finish(), oneshot) << "split at " << split;
  }
}

TEST(Sha256Test, ExactBlockBoundaries) {
  // Messages of exactly 55, 56, 63, 64, 65 bytes hit all padding branches.
  for (size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string msg(len, 'x');
    Sha256Digest a = Sha256::Hash(msg);
    Sha256 h;
    for (char c : msg) h.Update(&c, 1);
    EXPECT_EQ(h.Finish(), a) << "length " << len;
  }
}

TEST(Sha256Test, Hash2ConcatenatesInputs) {
  EXPECT_EQ(Sha256::Hash2("foo", "bar"), Sha256::Hash("foobar"));
  EXPECT_NE(Sha256::Hash2("foo", "bar"), Sha256::Hash2("fo", "obar2"));
}

TEST(Sha256Test, AvalancheOnSingleBitFlip) {
  std::string a = "stegfs hidden file signature";
  std::string b = a;
  b[0] ^= 1;
  Sha256Digest da = Sha256::Hash(a);
  Sha256Digest db = Sha256::Hash(b);
  int differing_bits = 0;
  for (size_t i = 0; i < da.size(); ++i) {
    uint8_t x = da[i] ^ db[i];
    while (x) {
      differing_bits += x & 1;
      x >>= 1;
    }
  }
  // Expected ~128 of 256 bits; anything in [80, 176] is a sane avalanche.
  EXPECT_GT(differing_bits, 80);
  EXPECT_LT(differing_bits, 176);
}

TEST(Sha256Test, ResetReusesContext) {
  Sha256 h;
  h.Update("garbage");
  h.Reset();
  h.Update("abc");
  EXPECT_EQ(HexOf(h.Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// Pins a SHA tier for one scope and restores the previous one afterwards;
// active() is false when the CPU cannot run the tier.
class ShaTierScope {
 public:
  explicit ShaTierScope(ShaTier tier) : saved_(ActiveShaTier()) {
    active_ = SetShaTier(tier);
  }
  ~ShaTierScope() { SetShaTier(saved_); }
  bool active() const { return active_; }

 private:
  ShaTier saved_;
  bool active_;
};

const ShaTier kAllShaTiers[] = {ShaTier::kScalar, ShaTier::kShaNi};

std::string RandomMessage(Xoshiro* rng, size_t len) {
  std::string msg(len, '\0');
  rng->FillBytes(reinterpret_cast<uint8_t*>(msg.data()), len);
  return msg;
}

// Digest of `msg` on the scalar tier: the reference every tier must match.
Sha256Digest ScalarHash(const std::string& msg) {
  ShaTierScope scalar(ShaTier::kScalar);
  EXPECT_TRUE(scalar.active());
  return Sha256::Hash(msg);
}

TEST(Sha256TierTest, ScalarAlwaysAvailable) {
  ShaTierScope scalar(ShaTier::kScalar);
  EXPECT_TRUE(scalar.active());
  EXPECT_STREQ(ShaTierName(), "sha-scalar");
}

TEST(Sha256TierTest, EveryTierMatchesFips180Vectors) {
  for (ShaTier tier : kAllShaTiers) {
    ShaTierScope scope(tier);
    if (!scope.active()) continue;
    SCOPED_TRACE(ShaTierName());
    EXPECT_EQ(HexOf(Sha256::Hash("")),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(HexOf(Sha256::Hash("abc")),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(
        HexOf(Sha256::Hash(
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    Sha256 h;
    std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.Update(chunk);
    EXPECT_EQ(HexOf(h.Finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  }
}

TEST(Sha256TierTest, EveryTierMatchesScalarOnRandomMessages) {
  Xoshiro rng(0x5a256);
  for (size_t len = 0; len <= 300; ++len) {
    std::string msg = RandomMessage(&rng, len);
    Sha256Digest want = ScalarHash(msg);
    for (ShaTier tier : kAllShaTiers) {
      ShaTierScope scope(tier);
      if (!scope.active()) continue;
      ASSERT_EQ(Sha256::Hash(msg), want)
          << ShaTierName() << ", length " << len;
    }
  }
}

TEST(Sha256TierTest, EveryTierMatchesScalarOnHeaderBody) {
  // The hidden-header checksum covers a 4096-byte block minus its 16-byte
  // trailer: 63 whole blocks in one kernel call plus a 48-byte tail.
  Xoshiro rng(4080);
  std::string body = RandomMessage(&rng, 4080);
  Sha256Digest want = ScalarHash(body);
  for (ShaTier tier : kAllShaTiers) {
    ShaTierScope scope(tier);
    if (!scope.active()) continue;
    EXPECT_EQ(Sha256::Hash(body), want) << ShaTierName();
  }
}

TEST(Sha256TierTest, SplitUpdatesMatchOneShotAtEveryOffset) {
  // A 3-block message cut at every offset, and cut twice: buffered heads,
  // multi-block runs and buffered tails all meet the same digest.
  Xoshiro rng(192);
  std::string msg = RandomMessage(&rng, 192);
  Sha256Digest want = ScalarHash(msg);
  for (ShaTier tier : kAllShaTiers) {
    ShaTierScope scope(tier);
    if (!scope.active()) continue;
    SCOPED_TRACE(ShaTierName());
    for (size_t a = 0; a <= msg.size(); ++a) {
      Sha256 h;
      h.Update(msg.data(), a);
      h.Update(msg.data() + a, msg.size() - a);
      ASSERT_EQ(h.Finish(), want) << "split at " << a;
      for (size_t b = a; b <= msg.size(); b += 7) {
        Sha256 h3;
        h3.Update(msg.data(), a);
        h3.Update(msg.data() + a, b - a);
        h3.Update(msg.data() + b, msg.size() - b);
        ASSERT_EQ(h3.Finish(), want) << "splits at " << a << ", " << b;
      }
    }
  }
}

TEST(Sha256TierTest, HashDigestMatchesHashOverTenThousandSteps) {
  for (ShaTier tier : kAllShaTiers) {
    ShaTierScope scope(tier);
    if (!scope.active()) continue;
    SCOPED_TRACE(ShaTierName());
    Sha256Digest fast = Sha256::Hash("stegfs locator chain seed");
    Sha256Digest slow = fast;
    for (int step = 0; step < 10000; ++step) {
      fast = Sha256::HashDigest(fast);
      slow = Sha256::Hash(slow.data(), slow.size());
      ASSERT_EQ(fast, slow) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace crypto
}  // namespace stegfs

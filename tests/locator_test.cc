#include "core/locator.h"

#include <gtest/gtest.h>

#include "blockdev/mem_block_device.h"
#include "core/hidden_header.h"
#include "crypto/keys.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace stegfs {
namespace {

class LocatorTest : public ::testing::Test {
 protected:
  LocatorTest()
      : layout_(Layout::Compute(1024, 8192, 256)),
        dev_(layout_.block_size, layout_.num_blocks),
        cache_(&dev_, 256),
        bitmap_(layout_),
        locator_(&cache_, &bitmap_, layout_, 1000) {}

  // Writes a minimal valid header for (name, key) at `block`, encrypted.
  void PlantHeader(const std::string& name, const std::string& key,
                   uint64_t block) {
    HiddenHeader h;
    h.signature = crypto::FileSignature(name, key);
    h.type = HiddenType::kFile;
    std::vector<uint8_t> buf(layout_.block_size);
    ASSERT_TRUE(h.EncodeTo(buf.data(), buf.size()).ok());
    crypto::BlockCrypter crypter(key);
    crypter.EncryptBlock(block, buf.data(), buf.size());
    ASSERT_TRUE(cache_.Write(block, buf.data()).ok());
  }

  Layout layout_;
  MemBlockDevice dev_;
  BufferCache cache_;
  BlockBitmap bitmap_;
  HeaderLocator locator_;
};

TEST_F(LocatorTest, CandidatesStayInDataRegion) {
  CandidateSequence seq("name", "key", layout_);
  for (int i = 0; i < 1000; ++i) {
    uint64_t c = seq.Next();
    EXPECT_GE(c, layout_.data_start);
    EXPECT_LT(c, layout_.num_blocks);
  }
}

TEST_F(LocatorTest, CandidateSequenceIsDeterministic) {
  CandidateSequence a("name", "key", layout_);
  CandidateSequence b("name", "key", layout_);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST_F(LocatorTest, DifferentKeysGiveDifferentSequences) {
  CandidateSequence a("name", "key1", layout_);
  CandidateSequence b("name", "key2", layout_);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LE(same, 2);
}

TEST_F(LocatorTest, ClaimTakesFirstFreeCandidate) {
  CandidateSequence seq("obj", "k", layout_);
  uint64_t first = seq.Next();
  auto claim = locator_.ClaimHeaderBlock("obj", "k");
  ASSERT_TRUE(claim.ok());
  EXPECT_EQ(claim->header_block, first);
  EXPECT_EQ(claim->probes, 1u);
  EXPECT_TRUE(bitmap_.IsAllocated(first));
}

TEST_F(LocatorTest, ClaimSkipsOccupiedCandidates) {
  CandidateSequence seq("obj", "k", layout_);
  uint64_t first = seq.Next();
  uint64_t second = seq.Next();
  ASSERT_TRUE(bitmap_.Allocate(first).ok());
  auto claim = locator_.ClaimHeaderBlock("obj", "k");
  ASSERT_TRUE(claim.ok());
  EXPECT_EQ(claim->header_block, second);
  EXPECT_EQ(claim->probes, 2u);
}

TEST_F(LocatorTest, FindLocatesPlantedHeader) {
  auto claim = locator_.ClaimHeaderBlock("obj", "k");
  ASSERT_TRUE(claim.ok());
  PlantHeader("obj", "k", claim->header_block);

  crypto::BlockCrypter crypter("k");
  auto found = locator_.FindHeader("obj", "k", crypter);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(found->header_block, claim->header_block);
}

TEST_F(LocatorTest, FindSkipsForeignAllocatedBlocks) {
  // Occupy the first candidate with somebody else's (random) data.
  CandidateSequence seq("obj", "k", layout_);
  uint64_t first = seq.Next();
  ASSERT_TRUE(bitmap_.Allocate(first).ok());
  std::vector<uint8_t> noise(layout_.block_size, 0x5c);
  ASSERT_TRUE(cache_.Write(first, noise.data()).ok());

  auto claim = locator_.ClaimHeaderBlock("obj", "k");
  ASSERT_TRUE(claim.ok());
  PlantHeader("obj", "k", claim->header_block);

  crypto::BlockCrypter crypter("k");
  auto found = locator_.FindHeader("obj", "k", crypter);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->header_block, claim->header_block);
  EXPECT_EQ(found->probes, 2u);
}

TEST_F(LocatorTest, WrongKeyFindsNothing) {
  auto claim = locator_.ClaimHeaderBlock("obj", "k");
  ASSERT_TRUE(claim.ok());
  PlantHeader("obj", "k", claim->header_block);

  crypto::BlockCrypter wrong("wrong-key");
  EXPECT_TRUE(
      locator_.FindHeader("obj", "wrong-key", wrong).status().IsNotFound());
}

TEST_F(LocatorTest, MissingObjectIsNotFoundWithinProbeLimit) {
  crypto::BlockCrypter crypter("k");
  auto found = locator_.FindHeader("never-created", "k", crypter);
  EXPECT_TRUE(found.status().IsNotFound());
}

TEST_F(LocatorTest, ClaimFailsOnFullVolume) {
  // Allocate every data block.
  for (uint64_t b = layout_.data_start; b < layout_.num_blocks; ++b) {
    ASSERT_TRUE(bitmap_.Allocate(b).ok());
  }
  EXPECT_TRUE(locator_.ClaimHeaderBlock("x", "y").status().IsNoSpace());
}

TEST_F(LocatorTest, TwoObjectsCoexistOnOverlappingChains) {
  // Create many objects; all must remain locatable.
  crypto::BlockCrypter crypters[8] = {
      crypto::BlockCrypter("k0"), crypto::BlockCrypter("k1"),
      crypto::BlockCrypter("k2"), crypto::BlockCrypter("k3"),
      crypto::BlockCrypter("k4"), crypto::BlockCrypter("k5"),
      crypto::BlockCrypter("k6"), crypto::BlockCrypter("k7")};
  for (int i = 0; i < 8; ++i) {
    std::string name = "obj" + std::to_string(i);
    std::string key = "k" + std::to_string(i);
    auto claim = locator_.ClaimHeaderBlock(name, key);
    ASSERT_TRUE(claim.ok());
    PlantHeader(name, key, claim->header_block);
  }
  for (int i = 0; i < 8; ++i) {
    std::string name = "obj" + std::to_string(i);
    std::string key = "k" + std::to_string(i);
    EXPECT_TRUE(locator_.FindHeader(name, key, crypters[i]).ok()) << i;
  }
}

// A fixed volume — a third of the data region holding foreign noise, plus
// the first six candidates of the pinned object — must keep giving the
// same header block after the same number of probes: the A3 ablation
// (bench_ablation_probe) reports these probe counts. The registry
// counters see every candidate drawn and every signature check, and the
// prefix checks add nothing to the block-decrypt counter.
TEST_F(LocatorTest, PinnedVolumeGivesSameHeaderAndProbeCounts) {
  Xoshiro rng(0x10c8);
  std::vector<uint8_t> noise(layout_.block_size);
  auto occupy = [&](uint64_t b) {
    ASSERT_TRUE(bitmap_.Allocate(b).ok());
    rng.FillBytes(noise.data(), noise.size());
    ASSERT_TRUE(cache_.Write(b, noise.data()).ok());
  };
  for (uint64_t b = layout_.data_start; b < layout_.num_blocks; ++b) {
    if (rng.Uniform(3) == 0) occupy(b);
  }
  CandidateSequence seq("pinned-object", "pinned-key", layout_);
  for (int i = 0; i < 6; ++i) {
    uint64_t b = seq.Next();
    if (!bitmap_.IsAllocated(b)) occupy(b);
  }

  LocatorStats stats;
  HeaderLocator locator(&cache_, &bitmap_, layout_, 1000, &stats);
  auto claim = locator.ClaimHeaderBlock("pinned-object", "pinned-key");
  ASSERT_TRUE(claim.ok());
  EXPECT_EQ(claim->header_block, 6190u);
  EXPECT_EQ(claim->probes, 7u);
  EXPECT_EQ(stats.probes.value(), 7u);
  EXPECT_EQ(stats.signature_checks.value(), 0u);
  PlantHeader("pinned-object", "pinned-key", claim->header_block);

  crypto::BlockCrypter crypter("pinned-key");
  const uint64_t decrypted_before =
      obs::GlobalCryptoMetrics().blocks_decrypted.value();
  auto found = locator.FindHeader("pinned-object", "pinned-key", crypter);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(found->header_block, 6190u);
  EXPECT_EQ(found->probes, 7u);
  EXPECT_EQ(stats.probes.value(), 14u);
  EXPECT_EQ(stats.signature_checks.value(), 7u);

  // A not-found scan draws the whole probe limit and checks every
  // allocated candidate among them.
  auto missing = locator.FindHeader("missing-object", "pinned-key", crypter);
  EXPECT_TRUE(missing.status().IsNotFound());
  EXPECT_EQ(stats.probes.value(), 1014u);
  EXPECT_EQ(stats.signature_checks.value(), 366u);
  EXPECT_EQ(obs::GlobalCryptoMetrics().blocks_decrypted.value(),
            decrypted_before);
}

}  // namespace
}  // namespace stegfs

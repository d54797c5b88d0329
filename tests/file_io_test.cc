// FileIo + CoalescingStore: the byte-granular engine shared by plain,
// directory and hidden file I/O, and how a hidden read resolves its
// mapping (each pointer block read and decrypted once per extent).
#include "fs/file_io.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "blockdev/mem_block_device.h"
#include "blockdev/sim_disk.h"
#include "crypto/block_crypter.h"
#include "fs/bitmap.h"
#include "obs/metrics.h"
#include "util/coding.h"
#include "util/random.h"

namespace stegfs {
namespace {

class SeqAllocator : public BlockAllocator {
 public:
  SeqAllocator(BlockBitmap* bm) : bm_(bm) {}
  StatusOr<uint64_t> AllocateBlock() override {
    return bm_->AllocateByPolicy(AllocPolicy::kContiguous, nullptr);
  }
  Status FreeBlock(uint64_t block) override { return bm_->Free(block); }

 private:
  BlockBitmap* bm_;
};

class FileIoTest : public ::testing::Test {
 protected:
  FileIoTest()
      : layout_(Layout::Compute(512, 20000, 64)),
        dev_(layout_.block_size, layout_.num_blocks),
        cache_(&dev_, 256),
        store_(&cache_),
        bitmap_(layout_),
        alloc_(&bitmap_),
        io_(layout_.block_size) {
    inode_.type = InodeType::kFile;
  }

  std::string ReadAll() {
    std::string out;
    EXPECT_TRUE(io_.Read(inode_, 0, inode_.size, &store_, &out).ok());
    return out;
  }

  Layout layout_;
  MemBlockDevice dev_;
  BufferCache cache_;
  CacheBlockStore store_;
  BlockBitmap bitmap_;
  SeqAllocator alloc_;
  FileIo io_;
  Inode inode_;
  bool dirty_ = false;
};

TEST_F(FileIoTest, UnalignedWritesAcrossBlockBoundaries) {
  // Writes at odd offsets spanning block boundaries in odd sizes.
  Xoshiro rng(1);
  std::string expect(5000, '\0');
  for (int i = 0; i < 40; ++i) {
    uint64_t off = rng.Uniform(4000);
    uint64_t len = 1 + rng.Uniform(900);
    std::string chunk(len, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(
        io_.Write(&inode_, off, chunk, &store_, &alloc_, &dirty_).ok());
    if (off + len > expect.size()) expect.resize(off + len, '\0');
    std::copy(chunk.begin(), chunk.end(), expect.begin() + off);
  }
  expect.resize(inode_.size);
  EXPECT_EQ(ReadAll(), expect);
}

TEST_F(FileIoTest, ReadPastEofClamps) {
  ASSERT_TRUE(io_.Write(&inode_, 0, "abc", &store_, &alloc_, &dirty_).ok());
  std::string out;
  ASSERT_TRUE(io_.Read(inode_, 1, 100, &store_, &out).ok());
  EXPECT_EQ(out, "bc");
  out.clear();
  ASSERT_TRUE(io_.Read(inode_, 50, 10, &store_, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(FileIoTest, HolesReadAsZeros) {
  ASSERT_TRUE(
      io_.Write(&inode_, 3000, "tail", &store_, &alloc_, &dirty_).ok());
  std::string out;
  ASSERT_TRUE(io_.Read(inode_, 0, 3004, &store_, &out).ok());
  EXPECT_EQ(out.substr(0, 3000), std::string(3000, '\0'));
  EXPECT_EQ(out.substr(3000), "tail");
}

TEST_F(FileIoTest, TruncateGrowCreatesHole) {
  ASSERT_TRUE(io_.Write(&inode_, 0, "head", &store_, &alloc_, &dirty_).ok());
  ASSERT_TRUE(io_.Truncate(&inode_, 1000, &store_, &alloc_, &dirty_).ok());
  EXPECT_EQ(inode_.size, 1000u);
  std::string out = ReadAll();
  EXPECT_EQ(out.substr(0, 4), "head");
  EXPECT_EQ(out.substr(4), std::string(996, '\0'));
}

TEST_F(FileIoTest, WriteBeyondMaxRejected) {
  uint64_t max_bytes = io_.mapper()->MaxFileBlocks() * layout_.block_size;
  EXPECT_TRUE(io_.Write(&inode_, max_bytes, "x", &store_, &alloc_, &dirty_)
                  .IsInvalidArgument());
}

TEST_F(FileIoTest, MtimeAdvancesOnMutation) {
  uint64_t t0 = inode_.mtime;
  ASSERT_TRUE(io_.Write(&inode_, 0, "x", &store_, &alloc_, &dirty_).ok());
  EXPECT_GT(inode_.mtime, t0);
  uint64_t t1 = inode_.mtime;
  ASSERT_TRUE(io_.Truncate(&inode_, 0, &store_, &alloc_, &dirty_).ok());
  EXPECT_GT(inode_.mtime, t1);
}

// Hidden-file mapping resolution: an encrypted store, randomly placed
// blocks and 512-byte blocks (128 pointers per block), so file blocks 0-9
// are direct, 10-137 single-indirect and 138+ double-indirect, with one L2
// pointer block per 128 file blocks.
class RandomAllocator : public BlockAllocator {
 public:
  explicit RandomAllocator(BlockBitmap* bm) : bm_(bm), rng_(0x41dde2) {}
  StatusOr<uint64_t> AllocateBlock() override {
    return bm_->AllocateByPolicy(AllocPolicy::kRandom, &rng_);
  }
  Status FreeBlock(uint64_t block) override { return bm_->Free(block); }

 private:
  BlockBitmap* bm_;
  Xoshiro rng_;
};

// Forwards to an inner store, counting single-block reads (the mapper's
// pointer-block reads) per block and keeping the last prefetch hint.
class CountingStore : public BlockStore {
 public:
  explicit CountingStore(BlockStore* inner) : inner_(inner) {}
  uint32_t block_size() const override { return inner_->block_size(); }
  Status ReadBlock(uint64_t block, uint8_t* buf) override {
    ++reads[block];
    return inner_->ReadBlock(block, buf);
  }
  Status WriteBlock(uint64_t block, const uint8_t* buf) override {
    return inner_->WriteBlock(block, buf);
  }
  Status ReadBlocks(const uint64_t* blocks, size_t n,
                    uint8_t* out) override {
    return inner_->ReadBlocks(blocks, n, out);
  }
  void Prefetch(const uint64_t* blocks, size_t n) override {
    prefetched.assign(blocks, blocks + n);
  }

  std::map<uint64_t, int> reads;
  std::vector<uint64_t> prefetched;

 private:
  BlockStore* inner_;
};

class HiddenMappingTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kBs = 512;
  static constexpr uint64_t kPtrs = kBs / 4;
  static constexpr uint64_t kDoubleStart = kDirectPointers + kPtrs;

  HiddenMappingTest()
      : layout_(Layout::Compute(kBs, 20000, 64)),
        dev_(layout_.block_size, layout_.num_blocks),
        cache_(&dev_, 4096),
        crypter_("hidden-mapping-key"),
        encrypted_(&cache_, &crypter_),
        store_(&encrypted_),
        bitmap_(layout_),
        alloc_(&bitmap_),
        io_(layout_.block_size) {
    inode_.type = InodeType::kFile;
  }

  // Writes `len` pseudo-random bytes at `off` and mirrors them in expect_.
  void Put(uint64_t off, uint64_t len, Xoshiro* rng) {
    std::string chunk(len, '\0');
    rng->FillBytes(reinterpret_cast<uint8_t*>(chunk.data()), len);
    ASSERT_TRUE(
        io_.Write(&inode_, off, chunk, &store_, &alloc_, &dirty_).ok());
    if (off + len > expect_.size()) expect_.resize(off + len, '\0');
    expect_.replace(off, len, chunk);
  }

  // The device block of pointer block L2 number `outer`.
  uint64_t L2Block(uint64_t outer) {
    std::vector<uint8_t> l1(kBs);
    EXPECT_TRUE(store_.ReadBlock(inode_.double_indirect, l1.data()).ok());
    return DecodeFixed32(l1.data() + 4 * outer);
  }

  Layout layout_;
  MemBlockDevice dev_;
  BufferCache cache_;
  crypto::BlockCrypter crypter_;
  EncryptedBlockStore encrypted_;
  CountingStore store_;
  BlockBitmap bitmap_;
  RandomAllocator alloc_;
  FileIo io_;
  Inode inode_;
  bool dirty_ = false;
  std::string expect_;
};

TEST_F(HiddenMappingTest, SparseFileReadsBackAtOddOffsets) {
  Xoshiro rng(0x0dd5);
  // Block-aligned extents around the holes: a partial write into a fresh
  // block keeps what the block held, so a hole must start and end on a
  // block boundary to read as zeros.
  Put(0, 6 * kBs, &rng);                       // direct 0-5
  Put(16 * kBs, 60 * kBs, &rng);               // direct + single 16-75
  Put(140 * kBs, 140 * kBs, &rng);             // L2 #0 and #1: 140-279
  Put((kDoubleStart + 4 * kPtrs + 5) * kBs, 18 * kBs, &rng);  // L2 #4
  // Holes: direct 6-15, the single/double boundary 76-139, the end of L2
  // #1 and whole L2 blocks #2 and #3 (null L1 slots). Then odd-sized
  // overwrites at odd offsets inside the written extents.
  Put(16 * kBs + 333, 5001, &rng);
  Put(141 * kBs + 7, 3 * kPtrs * kBs / 4 + 11, &rng);
  ASSERT_EQ(expect_.size(), inode_.size);

  std::string all;
  ASSERT_TRUE(io_.Read(inode_, 0, inode_.size, &store_, &all).ok());
  ASSERT_TRUE(all == expect_);
  for (int i = 0; i < 300; ++i) {
    uint64_t off = rng.Uniform(inode_.size);
    // Lengths up to 300 blocks: some reads span two chunks.
    uint64_t len = 1 + rng.Uniform(300 * kBs);
    std::string got;
    ASSERT_TRUE(io_.Read(inode_, off, len, &store_, &got).ok());
    ASSERT_TRUE(got == expect_.substr(off, len))
        << "off " << off << " len " << len;
  }
}

TEST_F(HiddenMappingTest, ChunkReadDecryptsDataPlusEachPointerBlockOnce) {
  Xoshiro rng(0xc4);
  Put(0, (kDoubleStart + 2 * kPtrs) * kBs, &rng);
  // File blocks 100..355: the single-indirect block, the double-indirect
  // L1 and L2 #0 and #1 — four pointer blocks under 256 data blocks.
  const uint64_t first = 100, count = FileIo::kMaxBatchBlocks;
  const std::map<uint64_t, int> want = {{inode_.single_indirect, 1},
                                        {inode_.double_indirect, 1},
                                        {L2Block(0), 1},
                                        {L2Block(1), 1}};
  const uint64_t before = obs::GlobalCryptoMetrics().blocks_decrypted.value();
  store_.reads.clear();
  std::string got;
  ASSERT_TRUE(
      io_.Read(inode_, first * kBs, count * kBs, &store_, &got).ok());
  EXPECT_TRUE(got == expect_.substr(first * kBs, count * kBs));
  EXPECT_EQ(obs::GlobalCryptoMetrics().blocks_decrypted.value() - before,
            count + 4);
  EXPECT_EQ(store_.reads, want);
}

TEST_F(HiddenMappingTest, ReadaheadWindowResolvesEachPointerBlockOnce) {
  Xoshiro rng(0x7a);
  Put(0, (kDoubleStart + 2 * kPtrs) * kBs, &rng);
  io_.set_readahead(200);
  std::vector<uint64_t> window(200);
  ASSERT_TRUE(io_.mapper()
                  ->MapRange(inode_, 122, window.size(), &store_,
                             window.data())
                  .ok());
  const std::map<uint64_t, int> want = {{inode_.single_indirect, 2},
                                        {inode_.double_indirect, 1},
                                        {L2Block(0), 1},
                                        {L2Block(1), 1}};
  store_.reads.clear();
  // A two-block demand read of file blocks 120-121 (single-indirect),
  // then the window 122-321: single-indirect, L1, L2 #0 and #1.
  std::string got;
  ASSERT_TRUE(io_.Read(inode_, 120 * kBs, 2 * kBs, &store_, &got).ok());
  EXPECT_TRUE(got == expect_.substr(120 * kBs, 2 * kBs));
  EXPECT_EQ(store_.reads, want);
  EXPECT_EQ(store_.prefetched, window);
}

TEST(CoalescingStoreTest, ReadYourWrites) {
  MemBlockDevice dev(512, 64);
  BufferCache cache(&dev, 16);
  CacheBlockStore inner(&cache);
  CoalescingStore co(&inner);

  std::vector<uint8_t> data(512, 0xab);
  ASSERT_TRUE(co.WriteBlock(5, data.data()).ok());
  std::vector<uint8_t> out(512, 0);
  ASSERT_TRUE(co.ReadBlock(5, out.data()).ok());
  EXPECT_EQ(out, data);
  // Not on the device yet.
  std::vector<uint8_t> raw(512);
  ASSERT_TRUE(dev.ReadBlock(5, raw.data()).ok());
  EXPECT_EQ(raw, std::vector<uint8_t>(512, 0));
  // Until flushed.
  ASSERT_TRUE(co.Flush().ok());
  ASSERT_TRUE(cache.Flush().ok());
  ASSERT_TRUE(dev.ReadBlock(5, raw.data()).ok());
  EXPECT_EQ(raw, data);
}

TEST(CoalescingStoreTest, RepeatedWritesReachDeviceOnce) {
  auto inner_dev = std::make_unique<MemBlockDevice>(512, 64);
  SimDisk disk(std::move(inner_dev), DiskModelConfig{});
  BufferCache cache(&disk, 16, WritePolicy::kWriteThrough);
  CacheBlockStore inner(&cache);
  CoalescingStore co(&inner);

  std::vector<uint8_t> data(512);
  for (int i = 0; i < 100; ++i) {
    data[0] = static_cast<uint8_t>(i);
    ASSERT_TRUE(co.WriteBlock(7, data.data()).ok());
  }
  ASSERT_TRUE(co.Flush().ok());
  EXPECT_EQ(disk.stats().writes, 1u);  // one device write for 100 updates
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(inner.ReadBlock(7, out.data()).ok());
  EXPECT_EQ(out[0], 99);  // last value wins
}

TEST(CoalescingStoreTest, FlushWritesAscendingLba) {
  auto inner_dev = std::make_unique<MemBlockDevice>(512, 4096);
  SimDisk disk(std::move(inner_dev), DiskModelConfig{});
  BufferCache cache(&disk, 4, WritePolicy::kWriteThrough);
  CacheBlockStore inner(&cache);
  CoalescingStore co(&inner);

  IoTrace trace;
  std::vector<uint8_t> data(512, 1);
  for (uint64_t b : {900u, 3u, 512u, 77u, 2048u}) {
    ASSERT_TRUE(co.WriteBlock(b, data.data()).ok());
  }
  disk.set_trace(&trace);
  ASSERT_TRUE(co.Flush().ok());
  disk.set_trace(nullptr);
  ASSERT_EQ(trace.size(), 5u);
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GT(trace[i].lba, trace[i - 1].lba);  // elevator order
  }
}

}  // namespace
}  // namespace stegfs

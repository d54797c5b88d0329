// The C binding of the paper's section 4 API, exercised end-to-end exactly
// as a C application would use it (volume file on the host FS, raw buffers,
// int error codes).
#include "capi/steg_api.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace {

class CapiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs suites in parallel.
    std::string tag =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    image_ = ::testing::TempDir() + "/capi_" + tag + "_volume.img";
    backup_ = ::testing::TempDir() + "/capi_" + tag + "_backup.bin";
    recovered_ = ::testing::TempDir() + "/capi_" + tag + "_recovered.img";
    std::remove(image_.c_str());
    std::remove(backup_.c_str());
    std::remove(recovered_.c_str());
    ASSERT_EQ(steg_mkfs(image_.c_str(), 1024, 32768), STEG_OK);
    ASSERT_EQ(steg_mount(image_.c_str(), 1024, &vol_), STEG_OK);
  }

  void TearDown() override {
    if (vol_ != nullptr) {
      EXPECT_EQ(steg_unmount(vol_), STEG_OK);
    }
    std::remove(image_.c_str());
    std::remove(backup_.c_str());
    std::remove(recovered_.c_str());
  }

  std::string image_, backup_, recovered_;
  stegfs_volume* vol_ = nullptr;
};

TEST_F(CapiTest, MountRejectsMissingImage) {
  stegfs_volume* v = nullptr;
  EXPECT_NE(steg_mount("/nonexistent/image.img", 1024, &v), STEG_OK);
  EXPECT_EQ(v, nullptr);
}

TEST_F(CapiTest, PlainRoundTrip) {
  ASSERT_EQ(steg_plain_write(vol_, "/note.txt", "plain data", 10), STEG_OK);
  char buf[64];
  size_t n = 0;
  ASSERT_EQ(steg_plain_read(vol_, "/note.txt", buf, sizeof(buf), &n),
            STEG_OK);
  EXPECT_EQ(std::string(buf, n), "plain data");
}

TEST_F(CapiTest, HiddenLifecycle) {
  ASSERT_EQ(steg_create(vol_, "alice", "vault", "uak", STEG_TYPE_FILE),
            STEG_OK);
  ASSERT_EQ(steg_connect(vol_, "alice", "vault", "uak"), STEG_OK);
  ASSERT_EQ(steg_hidden_write(vol_, "alice", "vault", "secret!", 7), STEG_OK);

  char buf[64];
  size_t n = 0;
  ASSERT_EQ(steg_hidden_read(vol_, "alice", "vault", buf, sizeof(buf), &n),
            STEG_OK);
  EXPECT_EQ(std::string(buf, n), "secret!");

  ASSERT_EQ(steg_disconnect(vol_, "alice", "vault"), STEG_OK);
  // I/O after disconnect fails with a precondition error.
  EXPECT_EQ(steg_hidden_read(vol_, "alice", "vault", buf, sizeof(buf), &n),
            STEG_ERR_PRECONDITION);
  EXPECT_NE(std::string(steg_strerror(vol_)).find("not connected"),
            std::string::npos);
}

TEST_F(CapiTest, StatsReportCacheAndSpace) {
  stegfs_stats before;
  ASSERT_EQ(steg_stats(vol_, &before), STEG_OK);
  EXPECT_EQ(before.block_size, 1024u);
  EXPECT_EQ(before.total_blocks, 32768u);
  EXPECT_EQ(before.allocated_blocks + before.free_blocks,
            before.total_blocks);
  EXPECT_GE(before.allocated_blocks, before.metadata_blocks);

  ASSERT_EQ(steg_plain_write(vol_, "/stats.txt", "0123456789", 10), STEG_OK);
  char buf[16];
  size_t n = 0;
  ASSERT_EQ(steg_plain_read(vol_, "/stats.txt", buf, sizeof(buf), &n),
            STEG_OK);

  stegfs_stats after;
  ASSERT_EQ(steg_stats(vol_, &after), STEG_OK);
  EXPECT_EQ(after.plain_file_bytes, before.plain_file_bytes + 10);
  EXPECT_GT(after.cache_hits + after.cache_misses,
            before.cache_hits + before.cache_misses);
  EXPECT_GE(after.cache_hit_rate, 0.0);
  EXPECT_LE(after.cache_hit_rate, 1.0);

  EXPECT_EQ(steg_stats(nullptr, &after), STEG_ERR_INVALID);
  EXPECT_EQ(steg_stats(vol_, nullptr), STEG_ERR_INVALID);
}

TEST_F(CapiTest, DurableMountJournalsAndFsckRunsClean) {
  // steg_mkfs formats a journal region, so the mount is durable and
  // every plain write commits through the write-ahead journal.
  stegfs_stats s;
  ASSERT_EQ(steg_stats(vol_, &s), STEG_OK);
  EXPECT_STREQ(s.durability, "journal");
  ASSERT_EQ(steg_plain_write(vol_, "/durable.txt", "committed", 9), STEG_OK);
  ASSERT_EQ(steg_stats(vol_, &s), STEG_OK);
  EXPECT_GT(s.journal_records, 0u);
  EXPECT_GT(s.journal_barrier_syncs, 0u);
  EXPECT_EQ(s.journal_overflows, 0u);

  stegfs_fsck_report report;
  ASSERT_EQ(steg_fsck(vol_, &report), STEG_OK);
  EXPECT_EQ(report.clean, 1);
  EXPECT_EQ(report.repaired_refs, 0u);
  EXPECT_EQ(report.journal_live_records, 0u);  // ring at rest
  EXPECT_GT(report.referenced_blocks, 0u);
  EXPECT_GT(report.unaccounted_blocks, 0u);  // dummies + abandoned at least

  EXPECT_EQ(steg_fsck(nullptr, &report), STEG_ERR_INVALID);
  EXPECT_EQ(steg_fsck(vol_, nullptr), STEG_ERR_INVALID);
}

TEST_F(CapiTest, StatsReportBatchedDataPath) {
  // Push a multi-block extent through a hidden object so the batched
  // read/write paths and the vectored device path are all exercised.
  ASSERT_EQ(steg_create(vol_, "alice", "big", "uak", STEG_TYPE_FILE),
            STEG_OK);
  ASSERT_EQ(steg_connect(vol_, "alice", "big", "uak"), STEG_OK);
  std::string payload(64 * 1024, 'B');  // 64 blocks at 1 KB
  ASSERT_EQ(steg_hidden_write(vol_, "alice", "big", payload.data(),
                              payload.size()),
            STEG_OK);

  // Remount so the read below runs against a cold cache: its misses must
  // reach the FileBlockDevice through the vectored path.
  ASSERT_EQ(steg_unmount(vol_), STEG_OK);
  vol_ = nullptr;
  ASSERT_EQ(steg_mount(image_.c_str(), 1024, &vol_), STEG_OK);
  ASSERT_EQ(steg_connect(vol_, "alice", "big", "uak"), STEG_OK);
  std::vector<char> buf(payload.size());
  size_t n = 0;
  ASSERT_EQ(steg_hidden_read(vol_, "alice", "big", buf.data(), buf.size(),
                             &n),
            STEG_OK);
  ASSERT_EQ(n, payload.size());
  ASSERT_EQ(std::string(buf.data(), n), payload);

  // An overwrite ticks the batched write path (through the coalescing
  // store's vectored flush).
  ASSERT_EQ(steg_hidden_write(vol_, "alice", "big", payload.data(),
                              payload.size()),
            STEG_OK);

  stegfs_stats s;
  ASSERT_EQ(steg_stats(vol_, &s), STEG_OK);
  // The extent loops batch both directions, and the cold read misses
  // reach the device as vectored I/O.
  EXPECT_GT(s.cache_batched_reads, 0u);
  EXPECT_GT(s.cache_batched_writes, 0u);
  EXPECT_GT(s.dev_vectored_blocks, 0u);
  // Prefetch counters are present (nonzero only when the host has a spare
  // core for the prefetch thread AND reads miss; just check sanity).
  EXPECT_GE(s.cache_prefetched, s.cache_prefetch_hits);
  // The crypto tier name is a stable non-empty static string.
  ASSERT_NE(s.crypto_tier, nullptr);
  EXPECT_TRUE(std::string(s.crypto_tier) == "aes-ni" ||
              std::string(s.crypto_tier) == "t-table")
      << s.crypto_tier;
  // So is the SHA-256 tier's.
  ASSERT_NE(s.sha_tier, nullptr);
  EXPECT_TRUE(std::string(s.sha_tier) == "sha-ni" ||
              std::string(s.sha_tier) == "sha-scalar")
      << s.sha_tier;
}

TEST_F(CapiTest, StatsReportAsyncEngineAndReadahead) {
  // C API mounts attach an async engine (io_uring when the kernel has it,
  // thread-pool otherwise — never "sync") and request a 16-block
  // readahead window, which arms only on multi-core hosts; either way the
  // effective state is observable instead of silently zeroed.
  stegfs_stats s;
  ASSERT_EQ(steg_stats(vol_, &s), STEG_OK);
  ASSERT_NE(s.io_engine, nullptr);
  EXPECT_TRUE(std::string(s.io_engine) == "io_uring" ||
              std::string(s.io_engine) == "thread-pool")
      << s.io_engine;
  const bool multi_core = std::thread::hardware_concurrency() >= 2;
  EXPECT_EQ(s.readahead_active, multi_core ? 1u : 0u);
  EXPECT_EQ(s.readahead_window, multi_core ? 16u : 0u);

  // A multi-block hidden extent must flow through the async engine: the
  // cold read below pipelines decrypt with in-flight submissions.
  ASSERT_EQ(steg_create(vol_, "bob", "wide", "uak2", STEG_TYPE_FILE),
            STEG_OK);
  ASSERT_EQ(steg_connect(vol_, "bob", "wide", "uak2"), STEG_OK);
  std::string payload(128 * 1024, 'C');  // 128 blocks at 1 KB
  ASSERT_EQ(steg_hidden_write(vol_, "bob", "wide", payload.data(),
                              payload.size()),
            STEG_OK);
  ASSERT_EQ(steg_unmount(vol_), STEG_OK);
  vol_ = nullptr;
  ASSERT_EQ(steg_mount(image_.c_str(), 1024, &vol_), STEG_OK);
  ASSERT_EQ(steg_connect(vol_, "bob", "wide", "uak2"), STEG_OK);
  std::vector<char> buf(payload.size());
  size_t n = 0;
  ASSERT_EQ(steg_hidden_read(vol_, "bob", "wide", buf.data(), buf.size(),
                             &n),
            STEG_OK);
  ASSERT_EQ(std::string(buf.data(), n), payload);

  ASSERT_EQ(steg_stats(vol_, &s), STEG_OK);
  EXPECT_GT(s.io_submitted_batches, 0u);
  // Fire-and-forget prefetch batches may still be in flight on multi-core
  // hosts, so only the ordering invariant is stable here.
  EXPECT_GE(s.io_submitted_batches, s.io_completed_batches);
}

TEST_F(CapiTest, WrongKeyIsNotFound) {
  ASSERT_EQ(steg_create(vol_, "alice", "x", "right", STEG_TYPE_FILE),
            STEG_OK);
  EXPECT_EQ(steg_connect(vol_, "alice", "x", "wrong"), STEG_ERR_NOT_FOUND);
}

TEST_F(CapiTest, BadObjTypeRejected) {
  EXPECT_EQ(steg_create(vol_, "alice", "x", "uak", 'z'), STEG_ERR_INVALID);
}

TEST_F(CapiTest, HideUnhide) {
  ASSERT_EQ(steg_plain_write(vol_, "/exposed", "now hidden", 10), STEG_OK);
  ASSERT_EQ(steg_hide(vol_, "bob", "/exposed", "obj", "uak"), STEG_OK);
  char buf[8];
  size_t n;
  EXPECT_EQ(steg_plain_read(vol_, "/exposed", buf, sizeof(buf), &n),
            STEG_ERR_NOT_FOUND);
  ASSERT_EQ(steg_unhide(vol_, "bob", "/back", "obj", "uak"), STEG_OK);
  char big[32];
  ASSERT_EQ(steg_plain_read(vol_, "/back", big, sizeof(big), &n), STEG_OK);
  EXPECT_EQ(std::string(big, n), "now hidden");
}

TEST_F(CapiTest, SharingThroughRawKeyBuffers) {
  uint8_t pub[512], priv[512];
  size_t pub_len = sizeof(pub), priv_len = sizeof(priv);
  ASSERT_EQ(steg_rsa_keygen(512, "capi-recipient", pub, &pub_len, priv,
                            &priv_len),
            STEG_OK);

  ASSERT_EQ(steg_create(vol_, "alice", "doc", "uak-a", STEG_TYPE_FILE),
            STEG_OK);
  ASSERT_EQ(steg_connect(vol_, "alice", "doc", "uak-a"), STEG_OK);
  ASSERT_EQ(steg_hidden_write(vol_, "alice", "doc", "shared", 6), STEG_OK);
  ASSERT_EQ(steg_disconnect(vol_, "alice", "doc"), STEG_OK);

  ASSERT_EQ(steg_getentry(vol_, "alice", "doc", "uak-a", "/envelope", pub,
                          pub_len),
            STEG_OK);
  ASSERT_EQ(steg_addentry(vol_, "alice", "/envelope", priv, priv_len,
                          "uak-b"),
            STEG_OK);
  ASSERT_EQ(steg_connect(vol_, "alice", "doc", "uak-b"), STEG_OK);
  char buf[16];
  size_t n;
  ASSERT_EQ(steg_hidden_read(vol_, "alice", "doc", buf, sizeof(buf), &n),
            STEG_OK);
  EXPECT_EQ(std::string(buf, n), "shared");
}

TEST_F(CapiTest, KeygenReportsBufferTooSmall) {
  uint8_t pub[4], priv[4];
  size_t pub_len = sizeof(pub), priv_len = sizeof(priv);
  EXPECT_EQ(steg_rsa_keygen(512, "s", pub, &pub_len, priv, &priv_len),
            STEG_ERR_NOSPACE);
  EXPECT_GT(pub_len, 4u);  // required sizes reported back
  EXPECT_GT(priv_len, 4u);
}

TEST_F(CapiTest, BackupAndRecovery) {
  ASSERT_EQ(steg_plain_write(vol_, "/keep.txt", "persist me", 10), STEG_OK);
  ASSERT_EQ(steg_create(vol_, "u", "hidden", "uak", STEG_TYPE_FILE),
            STEG_OK);
  ASSERT_EQ(steg_connect(vol_, "u", "hidden", "uak"), STEG_OK);
  ASSERT_EQ(steg_hidden_write(vol_, "u", "hidden", "survives", 8), STEG_OK);
  ASSERT_EQ(steg_disconnect(vol_, "u", "hidden"), STEG_OK);

  ASSERT_EQ(steg_backup(vol_, backup_.c_str()), STEG_OK);
  ASSERT_EQ(steg_recovery(recovered_.c_str(), 1024, 32768, backup_.c_str()),
            STEG_OK);

  stegfs_volume* rec = nullptr;
  ASSERT_EQ(steg_mount(recovered_.c_str(), 1024, &rec), STEG_OK);
  char buf[32];
  size_t n;
  EXPECT_EQ(steg_plain_read(rec, "/keep.txt", buf, sizeof(buf), &n),
            STEG_OK);
  EXPECT_EQ(std::string(buf, n), "persist me");
  ASSERT_EQ(steg_connect(rec, "u", "hidden", "uak"), STEG_OK);
  EXPECT_EQ(steg_hidden_read(rec, "u", "hidden", buf, sizeof(buf), &n),
            STEG_OK);
  EXPECT_EQ(std::string(buf, n), "survives");
  EXPECT_EQ(steg_unmount(rec), STEG_OK);
}

TEST_F(CapiTest, VolumePersistsAcrossRemount) {
  ASSERT_EQ(steg_create(vol_, "u", "persist", "uak", STEG_TYPE_FILE),
            STEG_OK);
  ASSERT_EQ(steg_connect(vol_, "u", "persist", "uak"), STEG_OK);
  ASSERT_EQ(steg_hidden_write(vol_, "u", "persist", "abc", 3), STEG_OK);
  ASSERT_EQ(steg_unmount(vol_), STEG_OK);
  vol_ = nullptr;

  stegfs_volume* again = nullptr;
  ASSERT_EQ(steg_mount(image_.c_str(), 1024, &again), STEG_OK);
  ASSERT_EQ(steg_connect(again, "u", "persist", "uak"), STEG_OK);
  char buf[8];
  size_t n;
  ASSERT_EQ(steg_hidden_read(again, "u", "persist", buf, sizeof(buf), &n),
            STEG_OK);
  EXPECT_EQ(std::string(buf, n), "abc");
  vol_ = again;  // TearDown unmounts
}

TEST_F(CapiTest, NullArgumentsRejected) {
  EXPECT_EQ(steg_create(nullptr, "u", "o", "k", STEG_TYPE_FILE),
            STEG_ERR_INVALID);
  EXPECT_EQ(steg_mount(image_.c_str(), 1024, nullptr), STEG_ERR_INVALID);
  size_t n;
  EXPECT_EQ(steg_hidden_read(nullptr, "u", "o", nullptr, 0, &n),
            STEG_ERR_INVALID);
}

}  // namespace

// Ablation A5: crypto throughput.
//
// Backs the paper's section 5.1 claim that decryption cost is insignificant
// relative to I/O: "a 2 MBytes file can be decrypted in less than 120 ms on
// our test system, whereas the I/Os take at least 2 seconds".
//
// Uses Google Benchmark when the build found it (STEGFS_USE_GBENCH);
// otherwise the plain-chrono harness in chrono_benchmark.h, so this binary
// builds and runs everywhere CI does.
#ifdef STEGFS_USE_GBENCH
#include <benchmark/benchmark.h>
#else
#include "bench/chrono_benchmark.h"
#endif

#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/block_crypter.h"
#include "crypto/prng.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"

using namespace stegfs;

static void BM_AesEncryptBlock(benchmark::State& state) {
  std::vector<uint8_t> key(32, 0x5a);
  crypto::Aes aes(key.data(), key.size());
  uint8_t block[16] = {0};
  for (auto _ : state) {
    aes.EncryptBlock(block, block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_AesEncryptBlock);

// The two dispatch tiers head to head on the ECB batch entry point (the
// shape the ESSIV IV derivation and CBC decrypt paths use).
static void BM_AesEcbBatchTier(benchmark::State& state, crypto::AesTier tier) {
  crypto::AesTier saved = crypto::ActiveAesTier();
  if (!crypto::SetAesTier(tier)) {
    state.SkipWithError("tier unsupported on this CPU");
    return;
  }
  std::vector<uint8_t> key(32, 0x5a);
  crypto::Aes aes(key.data(), key.size());
  std::vector<uint8_t> buf(64 * 16, 0x3c);
  for (auto _ : state) {
    aes.EncryptBlocksEcb(buf.data(), buf.data(), 64);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * buf.size());
  crypto::SetAesTier(saved);
}
static void BM_AesEcbBatch_TTable(benchmark::State& state) {
  BM_AesEcbBatchTier(state, crypto::AesTier::kTable);
}
BENCHMARK(BM_AesEcbBatch_TTable);
static void BM_AesEcbBatch_AesNi(benchmark::State& state) {
  BM_AesEcbBatchTier(state, crypto::AesTier::kAesNi);
}
BENCHMARK(BM_AesEcbBatch_AesNi);

// The batched block path: n 4 KiB device blocks per call, n = 1 (one
// chain, the latency floor), 2 (an 8 KiB hidden write), 8 (one full
// eight-lane group) and 64/256 (EncryptedBlockStore sub-batches and
// whole extents). Encrypt and decrypt side by side, so their per-block
// costs can be read off the same table.
static void BlockCrypterBatch(benchmark::State& state, bool encrypt) {
  crypto::BlockCrypter crypter("bench-key");
  const size_t kBlock = 4096;
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> data(kBlock * n);
  std::vector<crypto::CryptSpan> spans(n);
  for (size_t i = 0; i < n; ++i) {
    spans[i] = {1000 + i * 7, data.data() + i * kBlock};
  }
  for (auto _ : state) {
    if (encrypt) {
      crypter.EncryptBlocks(spans.data(), n, kBlock);
    } else {
      crypter.DecryptBlocks(spans.data(), n, kBlock);
    }
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
static void BM_BlockCrypterEncryptBatch(benchmark::State& state) {
  BlockCrypterBatch(state, true);
}
BENCHMARK(BM_BlockCrypterEncryptBatch)
    ->Arg(1)->Arg(2)->Arg(8)->Arg(64)->Arg(256);
static void BM_BlockCrypterDecryptBatch(benchmark::State& state) {
  BlockCrypterBatch(state, false);
}
BENCHMARK(BM_BlockCrypterDecryptBatch)
    ->Arg(1)->Arg(2)->Arg(8)->Arg(64)->Arg(256);

static void BM_BlockCrypterEncrypt(benchmark::State& state) {
  crypto::BlockCrypter crypter("bench-key");
  std::vector<uint8_t> block(state.range(0));
  for (auto _ : state) {
    crypter.EncryptBlock(7, block.data(), block.size());
    benchmark::DoNotOptimize(block.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BlockCrypterEncrypt)->Arg(512)->Arg(1024)->Arg(4096)->Arg(65536);

static void BM_BlockCrypterDecrypt(benchmark::State& state) {
  crypto::BlockCrypter crypter("bench-key");
  std::vector<uint8_t> block(state.range(0));
  for (auto _ : state) {
    crypter.DecryptBlock(7, block.data(), block.size());
    benchmark::DoNotOptimize(block.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BlockCrypterDecrypt)->Arg(1024)->Arg(65536);

// The paper's example: decrypting a whole 2 MB file.
static void BM_Decrypt2MBFile(benchmark::State& state) {
  crypto::BlockCrypter crypter("bench-key");
  std::vector<uint8_t> file(2 << 20);
  for (auto _ : state) {
    for (size_t off = 0; off < file.size(); off += 1024) {
      crypter.DecryptBlock(off / 1024, file.data() + off, 1024);
    }
    benchmark::DoNotOptimize(file.data());
  }
  state.SetBytesProcessed(state.iterations() * file.size());
}
BENCHMARK(BM_Decrypt2MBFile)->Unit(benchmark::kMillisecond);

static void BM_Sha256(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    auto digest = crypto::Sha256::Hash(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

static void BM_HashChainPrng(benchmark::State& state) {
  crypto::HashChainPrng prng(crypto::Sha256::Hash("seed"), 1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prng.Next());
  }
}
BENCHMARK(BM_HashChainPrng);

static void BM_RsaEncrypt(benchmark::State& state) {
  auto pair = crypto::RsaGenerateKeyPair(512, "bench-keypair");
  if (!pair.ok()) {
    state.SkipWithError("keygen failed");
    return;
  }
  std::string msg = "objname=budget.xls fak=0123456789abcdef0123456789abcdef";
  int i = 0;
  for (auto _ : state) {
    auto ct = crypto::RsaEncrypt(pair->public_key, msg,
                                 "entropy" + std::to_string(i++));
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_RsaEncrypt)->Unit(benchmark::kMillisecond);

static void BM_RsaDecrypt(benchmark::State& state) {
  auto pair = crypto::RsaGenerateKeyPair(512, "bench-keypair");
  if (!pair.ok()) {
    state.SkipWithError("keygen failed");
    return;
  }
  auto ct = crypto::RsaEncrypt(pair->public_key, "shared-entry", "e");
  for (auto _ : state) {
    auto pt = crypto::RsaDecrypt(pair->private_key, ct.value());
    benchmark::DoNotOptimize(pt);
  }
}
BENCHMARK(BM_RsaDecrypt)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();

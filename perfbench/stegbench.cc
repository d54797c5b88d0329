// One StegFS benchmark run: a closed-loop workload through the public C API
// (steg_*), with the C API's own mount policy (kAuto engine, readahead 16,
// kJournal, default 16 MiB BufferCache).
//
//   stegbench --workload hidden_hot --seed 1 --seconds 20 --trace 0
//
// The volume image is an anonymous memfd (shmem, the same backing as
// /dev/shm), so fdatasync and the host disk add no noise and nothing is
// written outside the process. Every read is checked against a checksum of
// what was last written; the run ends with unmount, remount and a full
// read-back. Human-readable lines go to stdout, followed by one JSON line
// with every metric (perfbench/run.py turns it into the benchmark result).
//
// --trace 1 adds a fixed-length traced phase before the timed phase: bench
// spans around each call, and a registry delta (steg_metrics_text +
// steg_stats) after each call (single client) or each lock-step phase
// (namespace_churn), attributed to the op type that ran. See README.md.
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/capi/steg_api.h"

#if defined(__x86_64__)
#include <wmmintrin.h>
#endif

namespace {

constexpr uint32_t kBlockSize = 4096;
constexpr double kWindowSeconds = 1.0;
// Timing metrics are scaled window by window (see ScaledPercentile); a
// window counts if it holds this many samples of the op.
constexpr double kScaleWindowSeconds = 2.0;
constexpr size_t kMinWindowSamples = 10;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum Op {
  kHiddenRead,
  kHiddenWrite,
  kPlainRead,
  kPlainWrite,
  kHide,
  kUnhide,
  kConnect,
  kDisconnect,
  kOther,  // set-up and read-back calls: counted, never reported as an op
  kNumOps
};
const char* const kOpNames[kNumOps] = {
    "hidden_read", "hidden_write", "plain_read", "plain_write", "hide",
    "unhide",      "connect",      "disconnect", "other"};

// Reference kernels that timings are scaled by: the host work that bounds
// the calls (see ProbeHostSpeed).
enum ProbeKind {
  kCompute,     // cache-resident serial cipher rounds, copies, small preads
  kDecrypt,     // cache-resident cipher rounds on 8 independent blocks
  kStreamRead,  // 1 MiB reads past every cache, sync and via a helper thread
  kNumProbeKinds
};

struct Spec {
  const char* name;
  uint64_t volume_mib;
  int threads;           // client threads; namespace_churn: one uid each
  int uids;              // uid/UAK pairs
  int hidden_per_uid;    // hidden objects per uid (session-rotated)
  size_t hidden_bytes;
  int plain_files;       // total (single client) or per uid (churn)
  size_t plain_bytes;
  int session_ops;       // data ops between connect-all and disconnect-all
  int mix[4];            // percent: hidden read/write, plain read/write
  int warmup_sessions;   // sessions (churn: cycles per thread) before timing
  int traced_sessions;   // fixed traced phase length (churn: cycles/thread)
  int probe_every;       // data ops between host-speed probes (churn: 1/cycle)
  bool sweep;            // picks rotate through the files instead of being
                         // uniform, so no read finds its file still cached
  bool stream_reads;      // reads miss the cache: scaled by kStreamRead
  int setup_repeats;      // set-ups per run; setup_s is their median
};

const Spec kSpecs[] = {
    {"hidden_hot", 256, 1, 4, 64, 8192, 0, 0, 20000, {80, 20, 0, 0}, 1, 1,
     1000, false, false, 3},
    {"hidden_stream", 512, 1, 4, 16, 1 << 20, 64, 1 << 20, 200,
     {45, 5, 45, 5}, 1, 1, 8, true, true, 5},
    {"namespace_churn", 128, 2, 2, 0, 0, 32, 16384, 0, {0, 0, 0, 0}, 4, 40,
     1, false, false, 9},
};

// ---------------------------------------------------------------------------
// Deterministic inputs and checksums
// ---------------------------------------------------------------------------

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() { return Mix64(s_ += 0x9E3779B97F4A7C15ull); }
  uint32_t Uniform(uint32_t n) {
    return static_cast<uint32_t>((Next() >> 32) * n >> 32);
  }

 private:
  uint64_t s_;
};

// File contents are a pure function of (seed, file id, version).
void FillContent(uint8_t* p, size_t n, uint64_t key) {
  uint64_t s = Mix64(key);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w = Mix64(s += 0x9E3779B97F4A7C15ull);
    std::memcpy(p + i, &w, 8);
  }
  for (; i < n; ++i) p[i] = static_cast<uint8_t>(Mix64(s + i));
}

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

uint64_t Checksum(const uint8_t* p, size_t n) {
  uint64_t h[4] = {0x243F6A8885A308D3ull, 0x13198A2E03707344ull,
                   0xA4093822299F31D0ull, 0x082EFA98EC4E6C89ull};
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (int j = 0; j < 4; ++j) {
      uint64_t w;
      std::memcpy(&w, p + i + 8 * j, 8);
      h[j] = Rotl((h[j] ^ w) * 0x9E3779B97F4A7C15ull, 29);
    }
  }
  uint64_t t = n;
  for (; i < n; ++i) t = (t ^ p[i]) * 0x100000001B3ull;
  return Mix64(h[0] ^ Rotl(h[1], 17) ^ Rotl(h[2], 31) ^ Rotl(h[3], 47) ^ t);
}

// ---------------------------------------------------------------------------
// Host-speed probe
// ---------------------------------------------------------------------------

// Shared, virtualised hosts drift in speed by tens of percent over minutes
// and switch between fast and slow spells within seconds, in every timing
// and in process CPU time alike. The client threads time a fixed reference
// kernel between calls, in benchmark code the program cannot change, and
// timing metrics are reported scaled to a host on which the kernel takes
// its nominal time; the raw values are printed next to them. Each kernel
// repeats the host work that bounds some of the calls (KernelFor):
//  - kCompute: one chain of AES rounds, a memcpy and a checksum in cache,
//    and a few 4 KiB preads: the work of writes and namespace changes,
//    whose CBC encryption is a serial chain per block. Scales every timing
//    that the next two do not.
//  - kDecrypt: AES rounds on 8 independent blocks at once, in cache: CBC
//    decryption is ciphertext-parallel, so cached hidden reads and
//    connects (header decrypts) are bound by the cipher unit's throughput,
//    not its latency, and a busy sibling hyperthread slows them far more
//    than it slows one chain.
//  - kStreamRead: hidden_stream's two ways of reading 1 MiB past every
//    cache, from a 64 MiB shmem file: one pread by the caller, as a plain
//    read does, then 16 chunk preads served by a helper thread that hands
//    each completion back, as the async engine serves a hidden read; each
//    read is followed by a checksum. Memory-bandwidth contention and slow
//    cross-thread wake-ups on a busy host slow these reads far more than
//    they slow kCompute. Scales the hidden and plain reads of workloads
//    with stream_reads, and runs only there.
double NominalProbeUs(ProbeKind kind) {
  return kind == kStreamRead ? 1000.0 : 100.0;
}
constexpr size_t kStreamFileBytes = 64 << 20;
constexpr size_t kStreamReadBytes = 1 << 20;
constexpr size_t kStreamChunks = 16;

#if defined(__x86_64__)
__attribute__((target("aes,sse2"))) uint64_t CipherRounds(const uint8_t* p,
                                                           size_t n) {
  const __m128i key = _mm_set1_epi32(0x2B7E1516);
  __m128i acc = _mm_setzero_si128();
  for (size_t i = 0; i + 16 <= n; i += 16) {
    __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    x = _mm_xor_si128(x, acc);
    for (int r = 0; r < 10; ++r) x = _mm_aesdec_si128(x, key);
    acc = x;
  }
  return static_cast<uint64_t>(_mm_cvtsi128_si64(acc));
}

// Ten AES rounds on each 16-byte block of p, 8 independent blocks at a
// time, into out.
__attribute__((target("aes,sse2"))) uint64_t CipherLanes(const uint8_t* p,
                                                          uint8_t* out,
                                                          size_t n) {
  const __m128i key = _mm_set1_epi32(0x2B7E1516);
  __m128i acc = _mm_setzero_si128();
  for (size_t i = 0; i + 128 <= n; i += 128) {
    __m128i x[8];
    for (int l = 0; l < 8; ++l) {
      x[l] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i + 16 * l));
    }
    for (int r = 0; r < 10; ++r) {
      for (int l = 0; l < 8; ++l) x[l] = _mm_aesdec_si128(x[l], key);
    }
    for (int l = 0; l < 8; ++l) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 16 * l), x[l]);
      acc = _mm_xor_si128(acc, x[l]);
    }
  }
  return static_cast<uint64_t>(_mm_cvtsi128_si64(acc));
}
#else
uint64_t CipherRounds(const uint8_t* p, size_t n) {
  uint64_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc = Rotl(acc ^ p[i], 7) * 0x9E3779B97F4A7C15ull;
  }
  return acc;
}
uint64_t CipherLanes(const uint8_t* p, uint8_t* out, size_t n) {
  uint64_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(p[i] * 0x9D);
    acc += out[i];
  }
  return acc;
}
#endif

struct ProbeSample {
  int64_t at_ns;
  double us[kNumProbeKinds];  // 0 for a kernel that did not run
};

std::mutex g_probe_mu;
std::vector<ProbeSample>* g_probe_pool = nullptr;  // set while probed
bool g_stream_probe = false;  // kStreamRead runs too
int g_stream_fd = -1;  // kStreamRead's file, filled before set-up
std::atomic<uint64_t> g_stream_reads{0};

// Times the reference kernel once and files the sample, if a phase is
// being probed.
void ProbeHostSpeed();

// ---------------------------------------------------------------------------
// Registry snapshots for the traced run
// ---------------------------------------------------------------------------

using Series = std::unordered_map<std::string, double>;

// Every scalar series of the volume's registry (counters, histogram
// _sum/_count; buckets skipped) plus the space report's allocated blocks.
Series Snapshot(stegfs_volume* vol) {
  Series s;
  char* text = nullptr;
  size_t len = 0;
  if (steg_metrics_text(vol, &text, &len) == STEG_OK) {
    const char* p = text;
    const char* end = text + len;
    while (p < end) {
      const char* nl = static_cast<const char*>(std::memchr(p, '\n', end - p));
      if (nl == nullptr) nl = end;
      if (*p != '#') {
        const char* sp =
            static_cast<const char*>(std::memchr(p, ' ', nl - p));
        if (sp != nullptr) {
          std::string name(p, sp);
          if (name.find("_bucket") == std::string::npos) {
            s[name] = std::strtod(sp + 1, nullptr);
          }
        }
      }
      p = nl + 1;
    }
    steg_buffer_free(text);
  }
  stegfs_stats st;
  if (steg_stats(vol, &st) == STEG_OK) {
    s["allocated_blocks"] = static_cast<double>(st.allocated_blocks);
  }
  return s;
}

struct Span {
  Op op;
  int tid;
  int64_t start_ns;
  int64_t dur_ns;
};

// Bench-side spans around each C API call, and per-op-type registry deltas.
class Tracer {
 public:
  explicit Tracer(stegfs_volume* vol) : vol_(vol), last_(Snapshot(vol)) {}

  void RecordSpan(Op op, int tid, int64_t start_ns, int64_t dur_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({op, tid, start_ns, dur_ns});
    span_ns_[op] += static_cast<double>(dur_ns);
  }

  // Charges everything the registry saw since the previous call to `calls`
  // calls of `op`. Callers guarantee only `op` ran in between.
  void Attribute(Op op, int calls) {
    Series now = Snapshot(vol_);
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, v] : now) {
      auto it = last_.find(name);
      delta_[op][name] += v - (it == last_.end() ? 0.0 : it->second);
    }
    calls_[op] += calls;
    last_ = std::move(now);
  }

  double D(Op op, const std::string& name) const {
    auto it = delta_[op].find(name);
    return it == delta_[op].end() ? 0.0 : it->second;
  }
  double Total(const std::string& name) const {
    double t = 0;
    for (int op = 0; op < kNumOps; ++op) t += D(static_cast<Op>(op), name);
    return t;
  }
  long Calls(Op op) const { return calls_[op]; }
  long TotalCalls() const {
    long n = 0;
    for (long c : calls_) n += c;
    return n;
  }
  double SpanNs(Op op) const { return span_ns_[op]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  stegfs_volume* vol_;
  std::mutex mu_;
  Series last_;
  std::array<Series, kNumOps> delta_;
  std::array<long, kNumOps> calls_{};
  std::array<double, kNumOps> span_ns_{};
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Per-thread call recorder
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

std::mutex g_err_mu;
int g_err_printed = 0;
std::atomic<long> g_calls{0};  // every C API call, all threads

// kStreamRead's helper: a thread that serves pread requests from the
// probe file and hands each completion back through a pipe, as an async
// I/O engine's worker does.
class ProbeReader {
 public:
  ProbeReader() {
    if (pipe(req_) != 0 || pipe(done_) != 0) return;
    thread_ = std::thread([this] { Serve(); });
  }
  ~ProbeReader() {
    if (req_[1] >= 0) close(req_[1]);  // the helper reads EOF and exits
    if (thread_.joinable()) thread_.join();
    for (int fd : {req_[0], done_[0], done_[1]}) {
      if (fd >= 0) close(fd);
    }
  }
  ProbeReader(const ProbeReader&) = delete;
  ProbeReader& operator=(const ProbeReader&) = delete;

  // Has the helper read `len` bytes at `off` into `dst`; waits for it.
  bool Read(uint8_t* dst, size_t len, uint64_t off) {
    if (!thread_.joinable()) return false;
    const Request q{dst, len, off};
    char ok = 0;
    return write(req_[1], &q, sizeof(q)) == sizeof(q) &&
           read(done_[0], &ok, 1) == 1 && ok == 1;
  }

 private:
  struct Request {
    uint8_t* dst;
    size_t len;
    uint64_t off;
  };
  void Serve() {
    Request q;
    while (read(req_[0], &q, sizeof(q)) == sizeof(q)) {
      const char ok = pread(g_stream_fd, q.dst, q.len, q.off) ==
                      static_cast<ssize_t>(q.len);
      if (write(done_[1], &ok, 1) != 1) break;
    }
  }

  int req_[2] = {-1, -1};
  int done_[2] = {-1, -1};
  std::thread thread_;
};
std::unique_ptr<ProbeReader> g_probe_reader;

void ProbeHostSpeed() {
  {
    std::lock_guard<std::mutex> lock(g_probe_mu);
    if (g_probe_pool == nullptr) return;
  }
  // Both buffers sit at fixed offsets in one page-aligned arena, so the
  // kernels' speed cannot depend on where the heap happens to put them: a
  // store stream that trails its load stream by a multiple of 4 KiB stalls
  // on false dependencies (4K aliasing), which moved these kernels by half.
  constexpr size_t kA = 256 << 10;
  constexpr size_t kGap = 2048 + 64;
  constexpr size_t kArena = kA + kStreamReadBytes + 8192;
  thread_local std::unique_ptr<uint8_t, decltype(&std::free)> arena(
      [] {
        auto* p = static_cast<uint8_t*>(std::aligned_alloc(4096, kArena));
        if (p != nullptr) std::memset(p, 0, kArena);
        return p;
      }(),
      &std::free);
  if (arena == nullptr) return;
  uint8_t* const a = arena.get();
  uint8_t* const b = a + kA + kGap;
  thread_local int fd = [] {
    const int f = memfd_create("stegfs-perfbench-probe", 0);
    return f >= 0 && ftruncate(f, 64 << 10) == 0 ? f : -1;
  }();
  ProbeSample sample{NowNs(), {}};
  int64_t t0 = sample.at_ns;
  uint64_t acc = CipherRounds(a, 64 << 10);
  std::memcpy(b, a, kA);
  acc ^= Checksum(b, 64 << 10);
  for (int j = 0; j < 8 && fd >= 0; ++j) {
    if (pread(fd, a + j * 4096, 4096, j * 4096) != 4096) ++acc;
  }
  sample.us[kCompute] = 1e-3 * (NowNs() - t0);
  t0 = NowNs();
  acc ^= CipherLanes(a, b, 128 << 10);
  sample.us[kDecrypt] = 1e-3 * (NowNs() - t0);
  if (g_stream_probe) {
    t0 = NowNs();
    const uint64_t slots = kStreamFileBytes / kStreamReadBytes;
    // Strides of 7 slots: each read lands far from the last few.
    const uint64_t off = (g_stream_reads++ * 7 % slots) * kStreamReadBytes;
    if (pread(g_stream_fd, b, kStreamReadBytes, off) !=
        static_cast<ssize_t>(kStreamReadBytes)) {
      ++acc;
    }
    acc ^= Checksum(b, kStreamReadBytes);
    const size_t chunk = kStreamReadBytes / kStreamChunks;
    for (size_t c = 0; c < kStreamChunks; ++c) {
      if (!g_probe_reader->Read(b + c * chunk, chunk, off + c * chunk)) {
        ++acc;
      }
    }
    acc ^= Checksum(b, kStreamReadBytes);
    sample.us[kStreamRead] = 1e-3 * (NowNs() - t0);
  }
  a[acc & 1023] ^= 1;  // keeps the kernels' work observable
  std::lock_guard<std::mutex> lock(g_probe_mu);
  if (g_probe_pool != nullptr) g_probe_pool->push_back(sample);
}

// Arms kStreamRead if the workload needs it; its file and helper thread
// are set up here, outside every timed phase.
bool PrepareProbe(bool stream_reads) {
  if (!stream_reads) return true;
  g_stream_probe = true;
  g_stream_fd = memfd_create("stegfs-perfbench-stream-probe", 0);
  if (g_stream_fd < 0) return false;
  g_probe_reader = std::make_unique<ProbeReader>();
  std::vector<uint8_t> chunk(kStreamReadBytes);
  for (size_t off = 0; off < kStreamFileBytes; off += chunk.size()) {
    FillContent(chunk.data(), chunk.size(), off);
    if (pwrite(g_stream_fd, chunk.data(), chunk.size(), off) !=
        static_cast<ssize_t>(chunk.size())) {
      return false;
    }
  }
  return true;
}

// Probes host speed for as long as it lives.
class ProbedPhase {
 public:
  explicit ProbedPhase(std::vector<ProbeSample>* pool) {
    std::lock_guard<std::mutex> lock(g_probe_mu);
    g_probe_pool = pool;
  }
  ~ProbedPhase() {
    std::lock_guard<std::mutex> lock(g_probe_mu);
    g_probe_pool = nullptr;
  }
  ProbedPhase(const ProbedPhase&) = delete;
  ProbedPhase& operator=(const ProbedPhase&) = delete;
};

void ReportError(const std::string& what) {
  std::lock_guard<std::mutex> lock(g_err_mu);
  if (g_err_printed++ < 20) {
    std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  }
}

// Per-call samples of the timed phase, spilled in batches to an unmapped
// memfd, so the benchmark's own bookkeeping (24 bytes a call, millions of
// calls) stays out of peak_rss_mb.
class SampleLog {
 public:
  struct Entry {
    int64_t start_ns;
    int64_t dur_ns;
    int64_t op;
  };

  SampleLog() : buf_(kBatch) {}
  ~SampleLog() {
    if (fd_ >= 0) close(fd_);
  }
  SampleLog(const SampleLog&) = delete;
  SampleLog& operator=(const SampleLog&) = delete;

  void Add(Op op, int64_t start_ns, int64_t dur_ns) {
    buf_[n_++] = {start_ns, dur_ns, op};
    if (n_ == kBatch) Flush();
  }

  // Every entry logged so far, in order; false if the log lost some.
  bool ReadAll(std::vector<Entry>* out) {
    Flush();
    out->resize(bytes_ / sizeof(Entry));
    size_t done = 0;
    while (ok_ && done < bytes_) {
      const ssize_t got = pread(fd_, reinterpret_cast<char*>(out->data()) +
                                         done, bytes_ - done, done);
      if (got <= 0) ok_ = false;
      done += got > 0 ? got : 0;
    }
    return ok_;
  }

 private:
  static constexpr size_t kBatch = 4096;

  void Flush() {
    if (n_ == 0) return;
    if (fd_ < 0) fd_ = memfd_create("stegfs-perfbench-samples", 0);
    const size_t bytes = n_ * sizeof(Entry);
    if (fd_ < 0 || write(fd_, buf_.data(), bytes) !=
                       static_cast<ssize_t>(bytes)) {
      ok_ = false;
    }
    bytes_ += bytes;
    n_ = 0;
  }

  std::vector<Entry> buf_;
  size_t n_ = 0;
  size_t bytes_ = 0;
  int fd_ = -1;
  bool ok_ = true;
};

struct Recorder {
  int tid = 0;
  bool keep_samples = false;   // only the timed phase keeps latencies
  Tracer* tracer = nullptr;    // traced phase only
  bool attribute_each = false; // single client: registry delta per call
  long attempted = 0;
  long failed = 0;
  SampleLog log;  // timed-phase calls

  // Runs one C API call, timing it and counting its outcome.
  template <typename F>
  bool Call(Op op, const std::string& target, F&& f) {
    const int64_t t0 = NowNs();
    const int rc = f();
    const int64_t t1 = NowNs();
    ++attempted;
    g_calls.fetch_add(1, std::memory_order_relaxed);
    if (keep_samples) log.Add(op, t0, t1 - t0);
    if (tracer != nullptr) {
      tracer->RecordSpan(op, tid, t0, t1 - t0);
      if (attribute_each) tracer->Attribute(op, 1);
    }
    if (rc != STEG_OK) {
      ++failed;
      ReportError(std::string(kOpNames[op]) + " " + target + " failed: rc=" +
                  std::to_string(rc) + " " + steg_strerror(nullptr));
      return false;
    }
    return true;
  }

  // A read whose bytes do not match what was last written.
  void Mismatch(const std::string& what) {
    ++failed;
    ReportError("content mismatch: " + what);
  }
};

// ---------------------------------------------------------------------------
// Volume model: what the benchmark last wrote to every file
// ---------------------------------------------------------------------------

struct File {
  std::string name;  // hidden objname or plain path
  int uid = 0;
  size_t size = 0;
  uint32_t version = 0;
  uint64_t sum = 0;
  uint64_t id = 0;
};

struct Model {
  std::vector<File> hidden;  // grouped by uid, hidden_per_uid each
  std::vector<File> plain;   // churn: grouped by uid, plain_files each
  uint64_t user_bytes_written = 0;
};

std::string Uid(int u) { return "user" + std::to_string(u); }
std::string Uak(int u) { return "uak-" + std::to_string(u) + "-secret"; }

class Client {
 public:
  Client(stegfs_volume* vol, uint64_t seed, size_t max_bytes)
      : vol_(vol), seed_(seed), wbuf_(max_bytes), rbuf_(max_bytes + 4096) {}

  // Next version of `f`'s contents into the write buffer.
  void NextContent(File& f) {
    ++f.version;
    FillContent(wbuf_.data(), f.size,
                seed_ ^ Mix64(f.id * 0x10001 + f.version));
    f.sum = Checksum(wbuf_.data(), f.size);
  }

  bool HiddenWrite(Recorder& r, Model& m, File& f) {
    NextContent(f);
    m.user_bytes_written += f.size;
    const std::string uid = Uid(f.uid);
    return r.Call(kHiddenWrite, f.name, [&] {
      return steg_hidden_write(vol_, uid.c_str(), f.name.c_str(),
                               wbuf_.data(), f.size);
    });
  }
  bool PlainWrite(Recorder& r, Model& m, File& f) {
    NextContent(f);
    m.user_bytes_written += f.size;
    return r.Call(kPlainWrite, f.name, [&] {
      return steg_plain_write(vol_, f.name.c_str(), wbuf_.data(), f.size);
    });
  }
  void HiddenRead(Recorder& r, const File& f) {
    size_t n = 0;
    const std::string uid = Uid(f.uid);
    if (!r.Call(kHiddenRead, f.name, [&] {
          return steg_hidden_read(vol_, uid.c_str(), f.name.c_str(),
                                  rbuf_.data(), rbuf_.size(), &n);
        })) {
      return;
    }
    if (n != f.size || Checksum(rbuf_.data(), n) != f.sum) {
      r.Mismatch("hidden " + f.name);
    }
  }
  void PlainRead(Recorder& r, const File& f) {
    size_t n = 0;
    if (!r.Call(kPlainRead, f.name, [&] {
          return steg_plain_read(vol_, f.name.c_str(), rbuf_.data(),
                                 rbuf_.size(), &n);
        })) {
      return;
    }
    if (n != f.size || Checksum(rbuf_.data(), n) != f.sum) {
      r.Mismatch("plain " + f.name);
    }
  }
  void Connect(Recorder& r, const File& f) {
    const std::string uid = Uid(f.uid);
    const std::string uak = Uak(f.uid);
    r.Call(kConnect, f.name, [&] {
      return steg_connect(vol_, uid.c_str(), f.name.c_str(), uak.c_str());
    });
  }
  void Disconnect(Recorder& r, const File& f) {
    const std::string uid = Uid(f.uid);
    r.Call(kDisconnect, f.name, [&] {
      return steg_disconnect(vol_, uid.c_str(), f.name.c_str());
    });
  }

  stegfs_volume* vol() const { return vol_; }

 private:
  stegfs_volume* vol_;
  uint64_t seed_;
  std::vector<uint8_t> wbuf_;
  std::vector<uint8_t> rbuf_;
};

// ---------------------------------------------------------------------------
// Image, setup and read-back
// ---------------------------------------------------------------------------

// The volume image: an anonymous memfd, opened by the C API through
// /proc/self/fd. The fd number (and so the path, which seeds the format
// entropy) is the same in every run.
class Image {
 public:
  Image() {
    fd_ = memfd_create("stegfs-perfbench", 0);
    if (fd_ >= 0) path_ = "/proc/self/fd/" + std::to_string(fd_);
  }
  ~Image() {
    if (fd_ >= 0) close(fd_);
  }
  Image(const Image&) = delete;
  Image& operator=(const Image&) = delete;
  bool ok() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  std::string path_;
};

uint64_t AllocatedBlocks(stegfs_volume* vol) {
  stegfs_stats st;
  return steg_stats(vol, &st) == STEG_OK ? st.allocated_blocks : 0;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// mkfs + mount + population. Hidden objects are created, written and
// committed by a disconnect, as a user's first session would.
bool Setup(const Spec& spec, const Image& img, uint64_t seed, Recorder& r,
           Model& m, stegfs_volume** out, uint64_t* base_alloc) {
  const uint64_t blocks = spec.volume_mib * (1 << 20) / kBlockSize;
  if (!r.Call(kOther, "steg_mkfs", [&] {
        return steg_mkfs(img.path().c_str(), kBlockSize, blocks);
      })) {
    return false;
  }
  stegfs_volume* vol = nullptr;
  if (!r.Call(kOther, "steg_mount", [&] {
        return steg_mount(img.path().c_str(), kBlockSize, &vol);
      })) {
    return false;
  }
  *out = vol;
  *base_alloc = AllocatedBlocks(vol);
  m = Model();
  Client c(vol, seed, std::max(spec.hidden_bytes, spec.plain_bytes));
  uint64_t id = 0;
  for (int u = 0; u < spec.uids; ++u) {
    for (int i = 0; i < spec.hidden_per_uid; ++i) {
      File f;
      f.name = "obj-" + std::to_string(u) + "-" + std::to_string(i);
      f.uid = u;
      f.size = spec.hidden_bytes;
      f.id = ++id;
      r.Call(kOther, "steg_create " + f.name, [&] {
        return steg_create(vol, Uid(u).c_str(), f.name.c_str(),
                           Uak(u).c_str(), STEG_TYPE_FILE);
      });
      c.Connect(r, f);
      c.HiddenWrite(r, m, f);
      m.hidden.push_back(f);
      ProbeHostSpeed();
    }
    for (int i = 0; i < spec.hidden_per_uid; ++i) {
      c.Disconnect(r, m.hidden[u * spec.hidden_per_uid + i]);
    }
  }
  const int plain_total =
      spec.threads > 1 ? spec.plain_files * spec.uids : spec.plain_files;
  for (int i = 0; i < plain_total; ++i) {
    File f;
    f.uid = spec.threads > 1 ? i / spec.plain_files : 0;
    f.name = spec.threads > 1 ? "/c" + std::to_string(f.uid) + "-f" +
                                    std::to_string(i % spec.plain_files)
                              : "/plain-" + std::to_string(i);
    f.size = spec.plain_bytes;
    f.id = ++id;
    c.PlainWrite(r, m, f);
    m.plain.push_back(f);
    ProbeHostSpeed();
  }
  m.user_bytes_written = 0;
  return true;
}

// Unmount, remount and read every file back against the model.
bool ReadBack(const Image& img, Recorder& r, const Model& m, size_t max_bytes,
              stegfs_volume* vol) {
  if (!r.Call(kOther, "steg_unmount", [&] { return steg_unmount(vol); })) {
    return false;
  }
  vol = nullptr;
  if (!r.Call(kOther, "steg_mount (remount)", [&] {
        return steg_mount(img.path().c_str(), kBlockSize, &vol);
      })) {
    return false;
  }
  Client c(vol, 0, max_bytes);
  for (const File& f : m.hidden) c.Connect(r, f);
  for (const File& f : m.hidden) c.HiddenRead(r, f);
  for (const File& f : m.hidden) c.Disconnect(r, f);
  for (const File& f : m.plain) c.PlainRead(r, f);
  return r.Call(kOther, "steg_unmount", [&] { return steg_unmount(vol); });
}

// ---------------------------------------------------------------------------
// Closed loops
// ---------------------------------------------------------------------------

double CpuSeconds() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         1e-6 * (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Samples the call count and process CPU time once per window while the
// timed phase runs, so throughput and CPU cost are medians over windows
// rather than one mean that a burst of host contention can drag.
class WindowSampler {
 public:
  explicit WindowSampler(double window_s)
      : thread_([this, window_s] { Loop(window_s); }) {}
  ~WindowSampler() { Stop(); }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  std::vector<double> OpsPerSecond() const {
    std::vector<double> v;
    for (size_t i = 1; i < points_.size(); ++i) {
      v.push_back((points_[i].calls - points_[i - 1].calls) /
                  (1e-9 * (points_[i].ns - points_[i - 1].ns)));
    }
    return v;
  }
  std::vector<double> CpuUsPerOp() const {
    std::vector<double> v;
    for (size_t i = 1; i < points_.size(); ++i) {
      const long calls = points_[i].calls - points_[i - 1].calls;
      if (calls > 0) {
        v.push_back(1e6 * (points_[i].cpu - points_[i - 1].cpu) / calls);
      }
    }
    return v;
  }

 private:
  struct Point {
    int64_t ns;
    long calls;
    double cpu;
  };
  void Loop(double window_s) {
    std::unique_lock<std::mutex> lock(mu_);
    points_.push_back({NowNs(), g_calls.load(), CpuSeconds()});
    const auto window = std::chrono::duration<double>(window_s);
    while (!cv_.wait_for(lock, window, [&] { return stop_; })) {
      points_.push_back({NowNs(), g_calls.load(), CpuSeconds()});
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<Point> points_;
  std::thread thread_;  // last: starts after the members it uses
};

struct LoopResult {
  long calls = 0;
  int64_t elapsed_ns = 0;
  std::vector<double> peak_amp;  // per completed session, before disconnect
};

uint64_t LiveUserBlocks(const Model& m) {
  uint64_t b = 0;
  for (const File& f : m.hidden) b += (f.size + kBlockSize - 1) / kBlockSize;
  for (const File& f : m.plain) b += (f.size + kBlockSize - 1) / kBlockSize;
  return b;
}

// Where the next session and the next swept pick start.
struct Rotation {
  int next_uid = 0;
  uint32_t next_plain = 0;
};

// hidden_hot / hidden_stream: one client rotating through uid sessions.
// Runs `sessions` whole sessions, or until `deadline_ns` when sessions < 0.
LoopResult RunSessions(const Spec& spec, Client& c, Model& m, Rng& rng,
                       Recorder& r, uint64_t base_alloc, Rotation* rot,
                       int sessions, int64_t deadline_ns) {
  LoopResult res;
  const long before = r.attempted;
  const int64_t start = NowNs();
  const double live = static_cast<double>(LiveUserBlocks(m));
  const uint32_t plain_n = static_cast<uint32_t>(m.plain.size());
  for (int s = 0; sessions < 0 || s < sessions; ++s) {
    const int u = rot->next_uid++ % spec.uids;
    File* objs = &m.hidden[u * spec.hidden_per_uid];
    uint32_t next_obj = rng.Uniform(spec.hidden_per_uid);
    auto pick_obj = [&]() -> File& {
      return objs[spec.sweep ? next_obj++ % spec.hidden_per_uid
                             : rng.Uniform(spec.hidden_per_uid)];
    };
    auto pick_plain = [&]() -> File& {
      return m.plain[spec.sweep ? rot->next_plain++ % plain_n
                                : rng.Uniform(plain_n)];
    };
    for (int i = 0; i < spec.hidden_per_uid; ++i) c.Connect(r, objs[i]);
    bool complete = true;
    for (int k = 0; k < spec.session_ops; ++k) {
      if (k % spec.probe_every == 0) ProbeHostSpeed();
      const uint32_t pick = rng.Uniform(100);
      if (pick < static_cast<uint32_t>(spec.mix[0])) {
        c.HiddenRead(r, pick_obj());
      } else if (pick < static_cast<uint32_t>(spec.mix[0] + spec.mix[1])) {
        c.HiddenWrite(r, m, pick_obj());
      } else if (pick < static_cast<uint32_t>(spec.mix[0] + spec.mix[1] +
                                              spec.mix[2])) {
        c.PlainRead(r, pick_plain());
      } else {
        c.PlainWrite(r, m, pick_plain());
      }
      if (sessions < 0 && NowNs() >= deadline_ns) {
        complete = k + 1 == spec.session_ops;
        break;
      }
    }
    if (complete) {
      const uint64_t alloc = AllocatedBlocks(c.vol());
      res.peak_amp.push_back(static_cast<double>(alloc - base_alloc) / live);
    }
    for (int i = 0; i < spec.hidden_per_uid; ++i) c.Disconnect(r, objs[i]);
    if (sessions < 0 && NowNs() >= deadline_ns) break;
  }
  res.elapsed_ns = NowNs() - start;
  res.calls = r.attempted - before;
  return res;
}

// Reusable barrier whose last arriver runs `on_phase` before releasing.
class PhaseBarrier {
 public:
  PhaseBarrier(int n, std::function<void(Op)> on_phase)
      : n_(n), on_phase_(std::move(on_phase)) {}
  void Arrive(Op op) {
    std::unique_lock<std::mutex> lock(mu_);
    const long gen = gen_;
    if (++waiting_ == n_) {
      on_phase_(op);
      waiting_ = 0;
      ++gen_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return gen_ != gen; });
  }

 private:
  const int n_;
  std::function<void(Op)> on_phase_;
  std::mutex mu_;
  std::condition_variable cv_;
  int waiting_ = 0;
  long gen_ = 0;
};

// The namespace_churn cycle as a list of steps, so the traced run can run
// it in lock-step (one op type per phase across both clients).
constexpr Op kChurnSteps[] = {kHide,       kConnect, kHiddenRead,
                              kHiddenWrite, kDisconnect, kUnhide,
                              kPlainRead,   kPlainWrite};

void ChurnStep(Op op, Client& c, Model& m, Recorder& r, File& plain,
               File& hidden) {
  const std::string uid = Uid(plain.uid);
  const std::string uak = Uak(plain.uid);
  switch (op) {
    case kHide:
      if (r.Call(kHide, plain.name, [&] {
            return steg_hide(c.vol(), uid.c_str(), plain.name.c_str(),
                             hidden.name.c_str(), uak.c_str());
          })) {
        hidden.sum = plain.sum;
        hidden.size = plain.size;
      }
      break;
    case kConnect:
      c.Connect(r, hidden);
      break;
    case kHiddenRead:
      c.HiddenRead(r, hidden);
      break;
    case kHiddenWrite:
      c.HiddenWrite(r, m, hidden);
      break;
    case kDisconnect:
      c.Disconnect(r, hidden);
      break;
    case kUnhide:
      if (r.Call(kUnhide, hidden.name, [&] {
            return steg_unhide(c.vol(), uid.c_str(), plain.name.c_str(),
                               hidden.name.c_str(), uak.c_str());
          })) {
        plain.sum = hidden.sum;
        plain.size = hidden.size;
        plain.version = hidden.version;
      }
      break;
    case kPlainRead:
      c.PlainRead(r, plain);
      break;
    default:
      c.PlainWrite(r, m, plain);
      break;
  }
}

// namespace_churn: spec.threads clients, one uid each, running whole
// hide -> ... -> plain_write cycles on their own 32 plain files. With a
// tracer the clients run the cycle's steps in lock-step, and each phase's
// registry delta is charged to that step's op.
LoopResult RunChurn(const Spec& spec, stegfs_volume* vol, uint64_t seed,
                    Model& m, std::vector<Recorder>& recs, uint64_t base_alloc,
                    uint64_t salt, int cycles, int64_t deadline_ns,
                    Tracer* tracer) {
  LoopResult res;
  long before = 0;
  for (const Recorder& r : recs) before += r.attempted;
  const int n = spec.threads;
  PhaseBarrier barrier(n, [&](Op op) { tracer->Attribute(op, n); });
  const double live = static_cast<double>(LiveUserBlocks(m));
  std::vector<uint64_t> written(n, 0);
  std::vector<std::vector<double>> amp(n);
  const int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      Recorder& r = recs[t];
      Model local;  // per-thread byte count; files stay in `m`
      Client c(vol, seed, spec.plain_bytes);
      Rng rng(Mix64(seed ^ salt ^ (0xC0FFEEull + t)));
      File* files = &m.plain[t * spec.plain_files];
      for (int k = 0; cycles < 0 || k < cycles; ++k) {
        if (cycles < 0 && NowNs() >= deadline_ns) break;
        ProbeHostSpeed();
        const int i = rng.Uniform(spec.plain_files);
        File& plain = files[i];
        File hidden;
        hidden.name = "h-" + std::to_string(t) + "-" + std::to_string(i);
        hidden.uid = t;
        hidden.id = plain.id;
        hidden.version = plain.version;
        for (Op op : kChurnSteps) {
          if (op == kDisconnect) {
            const uint64_t alloc = AllocatedBlocks(vol);
            amp[t].push_back(static_cast<double>(alloc - base_alloc) / live);
          }
          ChurnStep(op, c, local, r, plain, hidden);
          if (tracer != nullptr) barrier.Arrive(op);
        }
      }
      written[t] = local.user_bytes_written;
    });
  }
  for (auto& th : threads) th.join();
  res.elapsed_ns = NowNs() - start;
  long after = 0;
  for (const Recorder& r : recs) after += r.attempted;
  res.calls = after - before;
  for (uint64_t w : written) m.user_bytes_written += w;
  for (const auto& a : amp) {
    res.peak_amp.insert(res.peak_amp.end(), a.begin(), a.end());
  }
  return res;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Percentile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * v.size());
  if (rank >= v.size()) rank = v.size() - 1;
  return static_cast<double>(v[rank]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The kernel that scales an op's latencies: the one repeating the host
// work that bounds it (see ProbeHostSpeed).
ProbeKind KernelFor(const Spec& spec, int op) {
  if (spec.stream_reads && (op == kHiddenRead || op == kPlainRead)) {
    return kStreamRead;
  }
  return op == kHiddenRead || op == kConnect ? kDecrypt : kCompute;
}

double MedianProbeUs(const std::vector<ProbeSample>& probes, ProbeKind kind) {
  std::vector<double> us;
  for (const ProbeSample& p : probes) us.push_back(p.us[kind]);
  return Median(us);
}

// The q-th percentile of an op's durations (ns, started at `starts`),
// scaled by kernel `kind` to the nominal host speed window by window: the
// timed phase is cut into kScaleWindowSeconds windows, and each window
// with at least kMinWindowSamples samples and a probe gives its own
// percentile times nominal / the window's median probe. The result, in us, is the median
// over those windows, so a spell of contention that the probe and the
// calls feel alike cancels out, and one they feel differently moves only
// the windows it spans. Without such a window the whole phase is one.
double ScaledPercentileUs(const std::vector<int64_t>& durs,
                          const std::vector<int64_t>& starts,
                          const std::vector<ProbeSample>& probes,
                          int64_t begin_ns, double q, ProbeKind kind) {
  const double nominal_us = NominalProbeUs(kind);
  const int64_t window_ns = static_cast<int64_t>(kScaleWindowSeconds * 1e9);
  std::unordered_map<int64_t, std::vector<int64_t>> calls;
  std::unordered_map<int64_t, std::vector<double>> probe_us;
  for (size_t i = 0; i < durs.size(); ++i) {
    calls[(starts[i] - begin_ns) / window_ns].push_back(durs[i]);
  }
  for (const ProbeSample& p : probes) {
    probe_us[(p.at_ns - begin_ns) / window_ns].push_back(p.us[kind]);
  }
  std::vector<double> per_window;
  for (const auto& [w, v] : calls) {
    auto it = probe_us.find(w);
    if (v.size() < kMinWindowSamples || it == probe_us.end()) continue;
    per_window.push_back(Percentile(v, q) * 1e-3 * nominal_us /
                         Median(it->second));
  }
  if (per_window.empty()) {
    return Percentile(durs, q) * 1e-3 * nominal_us /
           MedianProbeUs(probes, kind);
  }
  return Median(per_window);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// The per-layer metrics of README.md "Per-layer metrics and the layer map",
// from a traced phase.
std::vector<Metric> LayerMetrics(const Tracer& tr, uint64_t user_bytes) {
  const double n = static_cast<double>(tr.TotalCalls());
  auto per_op = [&](const char* s) { return Ratio(tr.Total(s), n); };
  auto us_per_op = [&](const char* s) { return 1e6 * Ratio(tr.Total(s), n); };
  auto lookups = [&](Op op) {
    return tr.D(op, "stegfs_cache_hits_total") +
           tr.D(op, "stegfs_cache_misses_total");
  };
  // Library-side op time of the data calls, from the StegFs/PlainFs op
  // histograms, against the bench span around the same calls.
  const std::pair<Op, const char*> data_ops[] = {
      {kHiddenRead, "stegfs_hidden_read_seconds"},
      {kHiddenWrite, "stegfs_hidden_write_seconds"},
      {kPlainRead, "stegfs_fs_read_seconds"},
      {kPlainWrite, "stegfs_fs_write_seconds"}};
  double span_ns = 0, lib_s = 0, data_calls = 0;
  for (const auto& [op, hist] : data_ops) {
    if (tr.Calls(op) == 0) continue;
    span_ns += tr.SpanNs(op);
    lib_s += tr.D(op, std::string(hist) + "_sum");
    data_calls += tr.Calls(op);
  }
  auto hist_us = [&](Op op, const char* hist) {
    const std::string h(hist);
    return 1e6 * Ratio(tr.D(op, h + "_sum"), tr.D(op, h + "_count"));
  };
  const double hits = tr.Total("stegfs_cache_hits_total");
  const double misses = tr.Total("stegfs_cache_misses_total");
  const double prefetched = tr.Total("stegfs_cache_prefetched_total");
  return {
      {"locator.cache_lookups_per_hide",
       Ratio(lookups(kHide), tr.Calls(kHide)), "count"},
      {"locator.decrypts_per_hide",
       Ratio(tr.D(kHide, "stegfs_crypto_blocks_decrypted_total"),
             tr.Calls(kHide)),
       "count"},
      {"locator.cache_lookups_per_connect",
       Ratio(lookups(kConnect), tr.Calls(kConnect)), "count"},
      {"capi.overhead_us",
       Ratio(span_ns * 1e-3 - lib_s * 1e6, data_calls), "us"},
      {"core.hidden_read_us",
       hist_us(kHiddenRead, "stegfs_hidden_read_seconds"), "us"},
      {"core.hidden_write_us",
       hist_us(kHiddenWrite, "stegfs_hidden_write_seconds"), "us"},
      {"core.alloc_blocks_per_hidden_write",
       Ratio(tr.D(kHiddenWrite, "allocated_blocks"), tr.Calls(kHiddenWrite)),
       "count"},
      {"fs.read_us", hist_us(kPlainRead, "stegfs_fs_read_seconds"), "us"},
      {"fs.write_us", hist_us(kPlainWrite, "stegfs_fs_write_seconds"), "us"},
      {"fs.coalesced_runs_per_plain_read",
       Ratio(tr.D(kPlainRead, "stegfs_device_coalesced_runs_total"),
             tr.Calls(kPlainRead)),
       "count"},
      {"crypto.blocks_decrypted_per_op",
       per_op("stegfs_crypto_blocks_decrypted_total"), "count"},
      {"crypto.decrypt_us_per_op",
       us_per_op("stegfs_crypto_decrypt_seconds_sum"), "us"},
      {"crypto.blocks_encrypted_per_op",
       per_op("stegfs_crypto_blocks_encrypted_total"), "count"},
      {"crypto.encrypt_us_per_op",
       us_per_op("stegfs_crypto_encrypt_seconds_sum"), "us"},
      {"cache.hit_rate", Ratio(hits, hits + misses), "ratio"},
      {"cache.misses_per_op", Ratio(misses, n), "count"},
      {"cache.evictions_per_op", per_op("stegfs_cache_evictions_total"),
       "count"},
      {"cache.fill_us_per_miss",
       1e6 * Ratio(tr.Total("stegfs_cache_fill_seconds_sum"), misses), "us"},
      {"cache.prefetched_per_op", Ratio(prefetched, n), "count"},
      {"cache.prefetch_useful_ratio",
       Ratio(tr.Total("stegfs_cache_prefetch_hits_total"), prefetched),
       "ratio"},
      {"async.batches_per_op",
       per_op("stegfs_async_completed_batches_total"), "count"},
      {"async.batch_us_per_op", us_per_op("stegfs_async_batch_seconds_sum"),
       "us"},
      {"async.fixed_read_ratio",
       Ratio(tr.Total("stegfs_async_fixed_buffer_read_ops_total"),
             tr.Total("stegfs_async_submitted_blocks_total")),
       "ratio"},
      {"fault.retries_per_op", per_op("stegfs_fault_retries_total"),
       "count"},
      {"journal.records_per_op",
       per_op("stegfs_journal_records_committed_total"), "count"},
      {"journal.blocks_per_record",
       Ratio(tr.Total("stegfs_journal_blocks_journaled_total"),
             tr.Total("stegfs_journal_records_committed_total")),
       "count"},
      {"journal.barrier_syncs_per_op",
       per_op("stegfs_journal_barrier_syncs_total"), "count"},
      {"journal.barrier_us_per_op",
       us_per_op("stegfs_journal_barrier_seconds_sum"), "us"},
      {"journal.group_txns_per_batch",
       Ratio(tr.Total("stegfs_journal_group_txns_total"),
             tr.Total("stegfs_journal_group_batches_total")),
       "count"},
      {"device.blocks_read_per_op",
       per_op("stegfs_device_blocks_read_total"), "count"},
      {"device.blocks_written_per_op",
       per_op("stegfs_device_blocks_written_total"), "count"},
      {"device.syncs_per_op", per_op("stegfs_device_syncs_total"), "count"},
      {"device.read_us_per_op",
       us_per_op("stegfs_device_read_seconds_sum"), "us"},
      {"device.write_us_per_op",
       us_per_op("stegfs_device_write_seconds_sum"), "us"},
      {"device.write_amp",
       Ratio(tr.Total("stegfs_device_blocks_written_total") * kBlockSize,
             static_cast<double>(user_bytes)),
       "ratio"},
  };
}

// Per-op-type attribution table (printed; not part of the result line).
void PrintAttribution(const Tracer& tr) {
  const char* cols[][2] = {
      {"lookups", "stegfs_cache_hits_total"},
      {"misses", "stegfs_cache_misses_total"},
      {"decrypted", "stegfs_crypto_blocks_decrypted_total"},
      {"encrypted", "stegfs_crypto_blocks_encrypted_total"},
      {"dev_read", "stegfs_device_blocks_read_total"},
      {"dev_written", "stegfs_device_blocks_written_total"},
      {"syncs", "stegfs_device_syncs_total"},
      {"j_records", "stegfs_journal_records_committed_total"},
      {"alloc", "allocated_blocks"}};
  std::printf("# traced attribution, per call of each op type\n");
  std::printf("# %-12s %7s %10s", "op", "calls", "span_us");
  for (auto& c : cols) std::printf(" %11s", c[0]);
  std::printf("\n");
  for (int i = 0; i < kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    const double n = static_cast<double>(tr.Calls(op));
    if (n == 0 || op == kOther) continue;
    std::printf("# %-12s %7.0f %10.1f", kOpNames[i], n,
                tr.SpanNs(op) * 1e-3 / n);
    for (auto& c : cols) {
      double v = tr.D(op, c[1]);
      if (std::strcmp(c[0], "lookups") == 0) {
        v += tr.D(op, "stegfs_cache_misses_total");
      }
      std::printf(" %11.2f", v / n);
    }
    std::printf("\n");
  }
}

void WriteChromeTrace(const std::string& path, const Tracer& tr) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (const Span& s : tr.spans()) {
    std::fprintf(f,
                 "%s\n{\"name\":\"capi.%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}",
                 first ? "" : ",", kOpNames[s.op], s.tid, s.start_ns * 1e-3,
                 s.dur_ns * 1e-3);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

std::string ReadFirstLine(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      size_t c = line.find(':');
      if (c == std::string::npos) return line;
      size_t b = line.find_first_not_of(" \t", c + 1);
      return b == std::string::npos ? "" : line.substr(b);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: stegbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const size_t max_bytes = std::max(spec->hidden_bytes, spec->plain_bytes);
  const uint64_t seed = Mix64(args.seed * 0x9E3779B97F4A7C15ull + 1);
  Recorder setup_rec;

  // Set-up, repeated; the last volume is the one measured.
  std::vector<double> setup_s;
  std::vector<ProbeSample> setup_probe, timed_probe;
  if (!PrepareProbe(spec->stream_reads)) {
    std::fprintf(stderr, "perfbench: cannot prepare the host-speed probe\n");
    return 1;
  }
  std::unique_ptr<Image> img;
  stegfs_volume* vol = nullptr;
  Model model;
  uint64_t base_alloc = 0;
  for (int i = 0; i < spec->setup_repeats; ++i) {
    if (vol != nullptr) steg_unmount(vol);
    vol = nullptr;
    img.reset();
    img = std::make_unique<Image>();
    if (!img->ok()) {
      std::fprintf(stderr, "perfbench: memfd_create failed\n");
      return 1;
    }
    ProbedPhase probed(&setup_probe);
    const int64_t t0 = NowNs();
    if (!Setup(*spec, *img, seed, setup_rec, model, &vol, &base_alloc)) {
      return 1;
    }
    setup_s.push_back(Seconds(NowNs() - t0));
  }

  stegfs_stats st0;
  steg_stats(vol, &st0);
  struct utsname un;
  uname(&un);
  const std::vector<std::pair<std::string, std::string>> descriptor = {
      {"workload", spec->name},
      {"seed", std::to_string(args.seed)},
      {"seconds", std::to_string(args.seconds)},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"cpu_model", ReadFirstLine("/proc/cpuinfo", "model name")},
      {"kernel", un.release},
      {"crypto_tier", st0.crypto_tier},
      {"gf_tier", st0.gf_tier},
      {"io_engine", st0.io_engine},
      {"readahead_window", std::to_string(st0.readahead_window)},
      {"durability", st0.durability},
      {"cache", "C API default (16 MiB BufferCache)"},
      {"image", "memfd (shmem), " + std::to_string(spec->volume_mib) + " MiB"},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"client_threads", std::to_string(spec->threads)},
      {"probes", spec->stream_reads ? "compute, decrypt, stream_read"
                                    : "compute, decrypt"},
  };

  Client client(vol, seed, max_bytes);
  Rng rng(Mix64(seed ^ 0x5EED));
  Rotation rotation;
  const bool churn = spec->threads > 1;
  std::vector<Recorder> recs(spec->threads);
  for (int t = 0; t < spec->threads; ++t) recs[t].tid = t;

  auto run_phase = [&](int sessions, double seconds, uint64_t salt,
                       Tracer* tracer) {
    const int64_t deadline =
        seconds > 0 ? NowNs() + static_cast<int64_t>(seconds * 1e9) : 0;
    for (Recorder& r : recs) r.tracer = tracer;
    recs[0].attribute_each = tracer != nullptr && !churn;
    LoopResult res =
        churn ? RunChurn(*spec, vol, seed, model, recs, base_alloc, salt,
                         sessions, deadline, tracer)
              : RunSessions(*spec, client, model, rng, recs[0], base_alloc,
                            &rotation, sessions, deadline);
    for (Recorder& r : recs) r.tracer = nullptr;
    return res;
  };

  // Warm-up: caches fill, lazy set-up finishes.
  run_phase(spec->warmup_sessions, 0, 1, nullptr);

  // Traced phase: fixed length, so per-call counts repeat run to run.
  std::unique_ptr<Tracer> tracer;
  LoopResult traced;
  if (args.trace) {
    tracer = std::make_unique<Tracer>(vol);
    model.user_bytes_written = 0;
    traced = run_phase(spec->traced_sessions, 0, 2, tracer.get());
  }
  const uint64_t traced_bytes = model.user_bytes_written;

  // Timed phase.
  for (Recorder& r : recs) r.keep_samples = true;
  LoopResult timed;
  WindowSampler windows(kWindowSeconds);
  const int64_t timed_begin_ns = NowNs();
  {
    ProbedPhase probed(&timed_probe);
    timed = run_phase(-1, args.seconds, 3, nullptr);
  }
  windows.Stop();
  for (Recorder& r : recs) r.keep_samples = false;
  const uint64_t final_alloc = AllocatedBlocks(vol);
  const double rss = PeakRssMb();

  long attempted = setup_rec.attempted;
  long failed = setup_rec.failed;
  std::array<std::vector<int64_t>, kNumOps> samples, starts;
  for (Recorder& r : recs) {
    attempted += r.attempted;
    failed += r.failed;
    std::vector<SampleLog::Entry> log;
    if (!r.log.ReadAll(&log)) {
      std::fprintf(stderr, "perfbench: lost call samples\n");
      return 1;
    }
    for (const SampleLog::Entry& e : log) {
      samples[e.op].push_back(e.dur_ns);
      starts[e.op].push_back(e.start_ns);
    }
  }
  Recorder back_rec;
  ReadBack(*img, back_rec, model, max_bytes, vol);
  vol = nullptr;
  attempted += back_rec.attempted;
  failed += back_rec.failed;

  // ---- report ----
  // Timings as measured, then scaled to the nominal host speed (see
  // ProbeHostSpeed). Set-up is scaled by the probes taken during set-up,
  // throughput and CPU cost by the timed phase's median probe, and
  // latencies window by window (ScaledPercentileUs).
  const double setup_probe_us = MedianProbeUs(setup_probe, kCompute);
  const double timed_probe_us = MedianProbeUs(timed_probe, kCompute);
  const double decrypt_probe_us = MedianProbeUs(timed_probe, kDecrypt);
  const double stream_probe_us = MedianProbeUs(timed_probe, kStreamRead);
  const double setup_scale = Ratio(NominalProbeUs(kCompute), setup_probe_us);
  const double timed_scale = Ratio(NominalProbeUs(kCompute), timed_probe_us);
  std::vector<Metric> raw = {
      {"setup_s", Median(setup_s), "s"},
      {"ops_per_s", Median(windows.OpsPerSecond()), "1/s"},
      {"cpu_us_per_op", Median(windows.CpuUsPerOp()), "us"},
  };
  std::vector<Metric> e2e = {
      {"setup_s", raw[0].value * setup_scale, "s"},
      {"ops_per_s", Ratio(raw[1].value, timed_scale), "1/s"},
      {"cpu_us_per_op", raw[2].value * timed_scale, "us"},
  };
  // Per-op latencies, only for ops in the workload's mix.
  std::vector<std::string> counts;
  for (int i = 0; i < kNumOps; ++i) {
    const auto& v = samples[i];
    if (v.empty() || i == kDisconnect || i == kOther) continue;
    const std::string op = kOpNames[i];
    std::vector<std::pair<std::string, double>> pcts = {{"_p50_us", 0.5}};
    if (i == kHiddenRead || i == kHiddenWrite) pcts.push_back({"_p90_us", 0.9});
    for (const auto& [suffix, q] : pcts) {
      raw.push_back({op + suffix, Percentile(v, q) * 1e-3, "us"});
      e2e.push_back({op + suffix,
                     ScaledPercentileUs(v, starts[i], timed_probe,
                                        timed_begin_ns, q,
                                        KernelFor(*spec, i)),
                     "us"});
    }
    counts.push_back(JsonString(op) + ":" + std::to_string(v.size()));
  }
  const double live = static_cast<double>(LiveUserBlocks(model));
  e2e.insert(e2e.end(), {
      {"peak_rss_mb", rss, "MiB"},
      {"space_amp", (final_alloc - base_alloc) / live, "ratio"},
      {"space_amp_peak", Median(timed.peak_amp), "ratio"},
      {"failed_op_ratio", Ratio(failed, attempted), "ratio"},
  });

  std::vector<Metric> layers;
  if (tracer) {
    layers = LayerMetrics(*tracer, traced_bytes);
    const double traced_rate = traced.calls / Seconds(traced.elapsed_ns);
    const double timed_rate = timed.calls / Seconds(timed.elapsed_ns);
    layers.push_back({"trace_overhead", Ratio(traced_rate, timed_rate),
                      "ratio"});
    PrintAttribution(*tracer);
    if (!args.trace_out.empty()) WriteChromeTrace(args.trace_out, *tracer);
  }

  std::printf("# %s seed=%llu: %ld calls timed in %.3f s (%ld traced), "
              "setup runs:",
              spec->name, static_cast<unsigned long long>(args.seed),
              timed.calls, Seconds(timed.elapsed_ns), traced.calls);
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf(" s, %zu completed sessions\n", timed.peak_amp.size());
  std::printf("# host-speed probes, medians: compute %.2f us over %zu "
              "samples (set-up), %.2f us over %zu (timed); decrypt %.2f us "
              "(timed)",
              setup_probe_us, setup_probe.size(), timed_probe_us,
              timed_probe.size(), decrypt_probe_us);
  if (spec->stream_reads) {
    std::printf("; stream_read %.2f us (timed)", stream_probe_us);
  }
  std::printf("; nominal 100, 100, 1000 us\n");

  auto json_metrics = [](const std::vector<Metric>& ms) {
    std::string out = "{";
    for (size_t i = 0; i < ms.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof(num), "%.9g", ms[i].value);
      out += (i ? "," : "") + JsonString(ms[i].name) + ":{\"value\":" + num +
             ",\"unit\":" + JsonString(ms[i].unit) + "}";
    }
    return out + "}";
  };
  std::string desc = "{";
  for (size_t i = 0; i < descriptor.size(); ++i) {
    desc += (i ? "," : "") + JsonString(descriptor[i].first) + ":" +
            JsonString(descriptor[i].second);
  }
  desc += "}";
  std::string count_json = "{";
  for (size_t i = 0; i < counts.size(); ++i) {
    count_json += (i ? "," : "") + counts[i];
  }
  count_json += "}";
  const bool correct = failed == 0;
  std::printf(
      "{\"correct\":%s,\"attempted\":%ld,\"failed\":%ld,\"descriptor\":%s,"
      "\"samples\":%s,\"probe_us\":{\"setup\":%.6g,\"timed\":%.6g,"
      "\"timed_decrypt\":%.6g,\"timed_stream_read\":%.6g},"
      "\"end_to_end\":%s,\"raw\":%s,\"per_layer\":%s}\n",
      correct ? "true" : "false", attempted, failed, desc.c_str(),
      count_json.c_str(), setup_probe_us, timed_probe_us, decrypt_probe_us,
      stream_probe_us,
      json_metrics(e2e).c_str(), json_metrics(raw).c_str(),
      json_metrics(layers).c_str());
  return correct ? 0 : 1;
}

// A tiny plain-chrono stand-in for the Google Benchmark API surface that
// bench_crypto.cc uses, so the crypto benchmark builds and runs on machines
// (and CI runners) without libbenchmark. When the real library is present
// the build defines STEGFS_USE_GBENCH and this header is never included.
//
// Supported subset: BENCHMARK(fn)->Arg(x)->Unit(u), State range-for with
// state.range(0) / state.iterations() / SetBytesProcessed / SkipWithError,
// DoNotOptimize, ClobberMemory, BENCHMARK_MAIN. Each benchmark runs for
// ~0.2 s of wall time and reports ns/op plus MB/s when bytes were recorded.
#ifndef STEGFS_BENCH_CHRONO_BENCHMARK_H_
#define STEGFS_BENCH_CHRONO_BENCHMARK_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace benchmark {

enum TimeUnit { kNanosecond, kMicrosecond, kMillisecond };

template <typename T>
inline void DoNotOptimize(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

inline void ClobberMemory() { asm volatile("" : : : "memory"); }

class State {
 public:
  explicit State(int64_t arg) : arg_(arg) {}

  class iterator {
   public:
    iterator(State* s, bool at_end) : s_(s), at_end_(at_end) {}
    bool operator!=(const iterator& other) const {
      return at_end_ != other.at_end_ || !at_end_;
    }
    iterator& operator++() {
      if (!s_->KeepRunning()) at_end_ = true;
      return *this;
    }
    int operator*() const { return 0; }

   private:
    State* s_;
    bool at_end_;
  };

  iterator begin() {
    start_ = std::chrono::steady_clock::now();
    return iterator(this, skipped_);
  }
  iterator end() { return iterator(this, true); }

  int64_t range(int) const { return arg_; }
  int64_t iterations() const { return iters_; }
  void SetBytesProcessed(int64_t bytes) { bytes_ = bytes; }
  void SkipWithError(const char* msg) {
    skipped_ = true;
    error_ = msg;
  }

  bool skipped() const { return skipped_; }
  const std::string& error() const { return error_; }
  int64_t bytes() const { return bytes_; }
  double seconds() const { return seconds_; }

 private:
  bool KeepRunning() {
    ++iters_;
    if (skipped_) return false;
    // Check the clock every 256 iterations (cheap ops), or every iteration
    // once past 4k (so slow ops still stop near the budget).
    if ((iters_ & 0xff) != 0 && iters_ < 4096) return true;
    seconds_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start_)
                   .count();
    return seconds_ < kMinSeconds;
  }

  static constexpr double kMinSeconds = 0.2;
  int64_t arg_;
  int64_t iters_ = 0;
  int64_t bytes_ = 0;
  bool skipped_ = false;
  std::string error_;
  double seconds_ = 0;
  std::chrono::steady_clock::time_point start_;
};

struct Benchmark {
  std::string name;
  std::function<void(State&)> fn;
  std::vector<int64_t> args;

  Benchmark* Arg(int64_t a) {
    args.push_back(a);
    return this;
  }
  Benchmark* Unit(TimeUnit) { return this; }
};

inline std::vector<Benchmark*>& Registry() {
  static std::vector<Benchmark*> benches;
  return benches;
}

inline Benchmark* RegisterBenchmark(const char* name,
                                    std::function<void(State&)> fn) {
  auto* b = new Benchmark{name, std::move(fn), {}};
  Registry().push_back(b);
  return b;
}

inline void RunOne(const Benchmark& b, int64_t arg, bool has_arg) {
  State state(arg);
  b.fn(state);
  std::string label = b.name;
  if (has_arg) label += "/" + std::to_string(arg);
  if (state.skipped()) {
    std::printf("%-36s SKIPPED: %s\n", label.c_str(), state.error().c_str());
    return;
  }
  double sec = state.seconds();
  int64_t iters = state.iterations();
  double ns_per_op = iters > 0 ? sec * 1e9 / iters : 0;
  if (state.bytes() > 0 && sec > 0) {
    std::printf("%-36s %12.1f ns/op %10ld iters %9.1f MB/s\n", label.c_str(),
                ns_per_op, static_cast<long>(iters),
                static_cast<double>(state.bytes()) / sec / 1e6);
  } else {
    std::printf("%-36s %12.1f ns/op %10ld iters\n", label.c_str(), ns_per_op,
                static_cast<long>(iters));
  }
}

inline int RunAll() {
  std::printf("%-36s %15s %16s %14s\n", "benchmark", "time", "iterations",
              "throughput");
  for (const Benchmark* b : Registry()) {
    if (b->args.empty()) {
      RunOne(*b, 0, false);
    } else {
      for (int64_t a : b->args) RunOne(*b, a, true);
    }
  }
  return 0;
}

}  // namespace benchmark

#define BENCHMARK(fn)                                  \
  static ::benchmark::Benchmark* bench_reg_##fn =      \
      ::benchmark::RegisterBenchmark(#fn, fn)

#define BENCHMARK_MAIN() \
  int main() { return ::benchmark::RunAll(); }

#endif  // STEGFS_BENCH_CHRONO_BENCHMARK_H_

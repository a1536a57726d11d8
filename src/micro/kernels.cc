#include "micro/kernels.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "parallel/fair_scheduler.h"
#include "parallel/thread_pool.h"

namespace wimpi::micro {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Prevents the optimizer from deleting benchmark loops.
template <typename T>
void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

int ResolveThreads(int threads) {
  if (threads > 0) return threads;
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

// `t` concurrent calls body(0..t-1): one pipeline of t one-row morsels on
// a private t-worker pool, the calling thread driving one of them. Built
// before the timed region so only Run() is measured.
class AllCores {
 public:
  explicit AllCores(int t)
      : t_(t), pool_(t), fair_(&pool_), lane_(fair_.OpenLane(1.0, &never_)) {}
  ~AllCores() { fair_.CloseLane(lane_); }

  void Run(const std::function<void(int64_t)>& body) {
    const std::function<void(const parallel::Morsel&)> morsel =
        [&body](const parallel::Morsel& m) { body(m.begin); };
    parallel::PipelineSpec spec;
    spec.total_rows = t_;
    spec.morsel_rows = 1;
    spec.max_threads = t_;
    spec.body = &morsel;
    fair_.RunPipeline(lane_, spec);
  }

 private:
  int t_;
  parallel::ThreadPool pool_;
  parallel::CancellationToken never_;
  parallel::FairPipelineScheduler fair_;
  int lane_;
};

// Untimed kernel bodies, shared by the single-core entry points (which
// time one call) and the all-core entry points (which time `threads`
// concurrent calls).

void WhetstoneBody(int64_t loops) {
  // The classic Whetstone modules: transcendental-heavy floating point
  // with array and conditional modules, scaled so one loop ~ 1 million
  // Whetstone instructions (the unit the figure reports).
  double e1[4] = {1.0, -1.0, -1.0, -1.0};
  const double t = 0.499975, t1 = 0.50025, t2 = 2.0;
  double x = 1.0, y = 1.0, z = 1.0;

  for (int64_t l = 0; l < loops; ++l) {
    // Module 1: simple identifiers.
    for (int i = 0; i < 120; ++i) {
      e1[0] = (e1[0] + e1[1] + e1[2] - e1[3]) * t;
      e1[1] = (e1[0] + e1[1] - e1[2] + e1[3]) * t;
      e1[2] = (e1[0] - e1[1] + e1[2] + e1[3]) * t;
      e1[3] = (-e1[0] + e1[1] + e1[2] + e1[3]) * t;
    }
    // Module 4: conditional jumps (integer flavor).
    int j = 1;
    for (int i = 0; i < 140; ++i) {
      j = j == 1 ? 2 : 3;
      j = j > 2 ? 0 : 1;
      j = j < 1 ? 1 : 0;
    }
    DoNotOptimize(j);
    // Module 7: trig.
    for (int i = 0; i < 28; ++i) {
      x = t * std::atan(t2 * std::sin(x) * std::cos(x) /
                        (std::cos(x + y) + std::cos(x - y) - 1.0));
      y = t * std::atan(t2 * std::sin(y) * std::cos(y) /
                        (std::cos(x + y) + std::cos(x - y) - 1.0));
    }
    // Module 8: procedure-ish arithmetic.
    for (int i = 0; i < 90; ++i) {
      x = t * (x + y);
      y = t * (x + y);
      z = (x + y) / t2;
    }
    // Module 11: standard functions.
    for (int i = 0; i < 18; ++i) {
      x = std::sqrt(std::exp(std::log(std::fabs(x) + 1.0) / t1));
    }
    DoNotOptimize(x);
    DoNotOptimize(z);
    e1[0] = 1.0;  // keep values bounded
    x = 0.75;
    y = 0.75;
  }
}

void DhrystoneBody(int64_t loops) {
  // Dhrystone-style mix: struct assignment, string compare/copy, integer
  // arithmetic and branching. One loop ~ 1757 Dhrystones per the
  // traditional normalization (we report DMIPS = dhry/s / 1757).
  struct Record {
    int int_comp;
    int enum_comp;
    char str_comp[31];
  };
  Record r1{0, 0, "DHRYSTONE PROGRAM, SOME STRING"};
  Record r2{0, 0, "DHRYSTONE PROGRAM, 2'ND STRING"};
  char buf[31];
  int int1 = 1, int2 = 2, int3 = 3;

  for (int64_t l = 0; l < loops * 1000; ++l) {
    int1 = int2 * int3 - (int1 % 7);
    int2 = int3 * 3 - int1;
    std::memcpy(buf, r1.str_comp, sizeof(buf));
    if (std::strcmp(buf, r2.str_comp) > 0) {
      r2 = r1;
      int3 = int1 + int2;
    } else {
      r1.int_comp = int2;
      int3 = int2 - 1;
    }
    r1.enum_comp = (r1.enum_comp + 1) % 5;
    DoNotOptimize(r1);
    DoNotOptimize(int3);
  }
}

void SysbenchPrimeBody(int32_t max_prime, int events) {
  int64_t found = 0;
  for (int e = 0; e < events; ++e) {
    for (int32_t c = 3; c <= max_prime; ++c) {
      bool prime = true;
      for (int32_t i = 2; i <= c / i; ++i) {
        if (c % i == 0) {
          prime = false;
          break;
        }
      }
      if (prime) ++found;
    }
  }
  DoNotOptimize(found);
}

void MemoryScanBody(const std::vector<uint64_t>& buf, int passes) {
  const size_t n = buf.size();
  uint64_t sink = 0;
  for (int p = 0; p < passes; ++p) {
    const uint64_t* d = buf.data();
    uint64_t acc = 0;
    for (size_t i = 0; i < n; i += 8) {
      acc += d[i] + d[i + 1] + d[i + 2] + d[i + 3] + d[i + 4] + d[i + 5] +
             d[i + 6] + d[i + 7];
    }
    sink ^= acc;
  }
  DoNotOptimize(sink);
}

}  // namespace

double RunWhetstone(int64_t loops) {
  const double start = NowSeconds();
  WhetstoneBody(loops);
  const double elapsed = NowSeconds() - start;
  return elapsed > 0 ? static_cast<double>(loops) / elapsed : 0;
}

double RunDhrystone(int64_t loops) {
  const double start = NowSeconds();
  DhrystoneBody(loops);
  const double elapsed = NowSeconds() - start;
  const double dhry_per_s =
      elapsed > 0 ? static_cast<double>(loops) * 1000.0 / elapsed : 0;
  return dhry_per_s / 1757.0;
}

double RunSysbenchPrime(int32_t max_prime, int events) {
  const double start = NowSeconds();
  SysbenchPrimeBody(max_prime, events);
  return NowSeconds() - start;
}

double RunMemoryBandwidth(size_t buffer_bytes, int passes) {
  const size_t n = buffer_bytes / sizeof(uint64_t);
  std::vector<uint64_t> buf(n, 1);
  const double start = NowSeconds();
  MemoryScanBody(buf, passes);
  const double elapsed = NowSeconds() - start;
  const double bytes =
      static_cast<double>(n) * sizeof(uint64_t) * passes;
  return elapsed > 0 ? bytes / elapsed / 1e9 : 0;
}

double RunWhetstoneAllCores(int64_t loops_per_thread, int threads) {
  const int t = ResolveThreads(threads);
  AllCores cores(t);
  const double start = NowSeconds();
  cores.Run([&](int64_t) { WhetstoneBody(loops_per_thread); });
  const double elapsed = NowSeconds() - start;
  const double total = static_cast<double>(loops_per_thread) * t;
  return elapsed > 0 ? total / elapsed : 0;
}

double RunDhrystoneAllCores(int64_t loops_per_thread, int threads) {
  const int t = ResolveThreads(threads);
  AllCores cores(t);
  const double start = NowSeconds();
  cores.Run([&](int64_t) { DhrystoneBody(loops_per_thread); });
  const double elapsed = NowSeconds() - start;
  const double dhry_per_s =
      elapsed > 0
          ? static_cast<double>(loops_per_thread) * 1000.0 * t / elapsed
          : 0;
  return dhry_per_s / 1757.0;
}

double RunSysbenchPrimeAllCores(int32_t max_prime, int events, int threads) {
  const int t = ResolveThreads(threads);
  AllCores cores(t);
  // sysbench semantics: a fixed event count drained by all threads.
  const int base = events / t;
  const int extra = events % t;
  const double start = NowSeconds();
  cores.Run([&](int64_t i) {
    SysbenchPrimeBody(max_prime, base + (i < extra ? 1 : 0));
  });
  return NowSeconds() - start;
}

double RunMemoryBandwidthAllCores(size_t buffer_bytes_per_thread, int passes,
                                  int threads) {
  const int t = ResolveThreads(threads);
  AllCores cores(t);
  const size_t n = buffer_bytes_per_thread / sizeof(uint64_t);
  std::vector<std::vector<uint64_t>> bufs(t);
  for (auto& b : bufs) b.assign(n, 1);
  const double start = NowSeconds();
  cores.Run([&](int64_t i) { MemoryScanBody(bufs[i], passes); });
  const double elapsed = NowSeconds() - start;
  const double bytes =
      static_cast<double>(n) * sizeof(uint64_t) * passes * t;
  return elapsed > 0 ? bytes / elapsed / 1e9 : 0;
}

}  // namespace wimpi::micro

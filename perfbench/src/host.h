// Host-plane instruments of the benchmark: the wall and CPU clocks, peak
// RSS, the span recorder, and small order statistics. Every host-clock and getrusage
// read of the benchmark lives in this directory, outside the src/ and tools/
// trees whose determinism rules forbid wall clocks.
#pragma once

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace perfbench {

using HostClock = std::chrono::steady_clock;

inline int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             HostClock::now().time_since_epoch())
      .count();
}

/// CPU time this thread has consumed, ns. The benchmark is single-threaded,
/// so this is the host cost of the work itself; unlike wall time it does not
/// grow while other processes hold the CPU.
inline int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// The calibration loop: kCalibIters steps of a dependent integer chain
/// (multiply, add, shift, xor). It costs a fixed number of core cycles and
/// touches no memory, so its CPU time follows the core clock alone, which on
/// a shared host drops by up to a third while other tenants load it.
/// Host times are reported at the reference clock, the one at which the
/// loop takes kCalibRefNs: a time t measured next to a loop that took c ns
/// reads t * kCalibRefNs / c.
constexpr int kCalibIters = 20000;
constexpr double kCalibRefNs = 40000.0;  // the loop on a quiet 4-vCPU Xeon VM

/// CPU ns of one pass of the calibration loop.
inline int64_t calibration_ns() {
  static volatile uint64_t seed = 1;
  uint64_t x = seed;
  asm volatile("" : "+r"(x));  // keep the loop between the two clock reads
  const int64_t t0 = cpu_ns();
  for (int i = 0; i < kCalibIters; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    x ^= x >> 29;
    asm volatile("" : "+r"(x));
  }
  const int64_t t1 = cpu_ns();
  seed = x;
  return t1 - t0;
}

/// The CPUs this process may run on.
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Moves this (single-threaded) process onto `cpu`.
inline void pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Peak resident set of this process, MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Nearest-rank percentile of `v` (p in [0, 100]); 0 for an empty sample.
template <typename T>
double percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size() - 1) + 0.5);
  return static_cast<double>(v[std::min(rank, v.size() - 1)]);
}

template <typename T>
double median(std::vector<T> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? static_cast<double>(v[n / 2])
                    : (static_cast<double>(v[n / 2 - 1]) +
                       static_cast<double>(v[n / 2])) / 2.0;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
/// Ordered by name so the printed report is stable.
using Metrics = std::map<std::string, Metric>;

/// One recorded span. Client-op spans carry the op's (client, seq) id and
/// modeled-clock bounds; host spans carry CPU-time or wall-clock bounds.
/// Names, parents and clocks are string literals.
struct Span {
  const char* name = "";
  const char* parent = "";  // the span that caused it ("" = root)
  const char* clock = "sim_us";  // or "cpu_ns", "wall_ns"
  praft::NodeId client = praft::kNoNode;
  uint64_t seq = 0;
  int64_t start = 0;
  int64_t end = 0;
};

/// In-memory span recorder for the traced run. Keeps at most `cap` spans per
/// name (and counts every span) so memory stays bounded on long windows,
/// and writes them out once, at exit.
class Tracer {
 public:
  explicit Tracer(size_t cap_per_name = 20000) : cap_(cap_per_name) {}

  void span(const Span& s) {
    size_t& n = seen_[s.name];
    if (n++ < cap_) spans_.push_back(s);
  }
  /// A span timed with cpu_ns().
  void cpu_span(const char* name, int64_t start_ns, int64_t end_ns,
                const char* parent = "") {
    span(Span{name, parent, "cpu_ns", praft::kNoNode, 0, start_ns, end_ns});
  }

  /// Writes one JSON object per span and one count record per name;
  /// returns false when `path` cannot be opened.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"parent\": \"%s\", \"clock\": \"%s\", "
                   "\"id\": [%d, %llu], \"start\": %lld, \"end\": %lld}\n",
                   s.name, s.parent, s.clock,
                   s.client, static_cast<unsigned long long>(s.seq),
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end));
    }
    std::map<std::string, size_t> by_name;
    for (const auto& [name, n] : seen_) by_name[name] += n;
    for (const auto& [name, n] : by_name) {
      std::fprintf(f, "{\"name\": \"%s\", \"count\": %zu}\n", name.c_str(),
                   n);
    }
    std::fclose(f);
    return true;
  }

 private:
  size_t cap_;
  std::vector<Span> spans_;
  std::map<const char*, size_t> seen_;  // keyed by literal address
};

/// Order-sensitive 64-bit fold (splitmix finalizer over a running state).
inline uint64_t fold(uint64_t h, uint64_t v) {
  uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench

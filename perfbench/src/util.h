// Small shared pieces of the benchmark: named metrics, medians, clocks and
// process resource samples.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// Median of the samples (mean of the middle two for an even count); 0 when
// there are none.
inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

inline double TimevalMs(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
}

// User + system CPU of this process plus its reaped children (the forked
// engines' map workers are reaped inside each engine call).
inline double ProcessCpuMs() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return TimevalMs(self.ru_utime) + TimevalMs(self.ru_stime) +
         TimevalMs(children.ru_utime) + TimevalMs(children.ru_stime);
}

// Peak resident set so far, in MB: the larger of this process and its
// largest reaped child.
inline double PeakRssMb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_

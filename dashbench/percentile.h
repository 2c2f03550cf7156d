// Order statistics for latency samples: the median and the tail rule.
//
// The tail is reported as the highest percentile on a fixed ladder that
// still has at least ten samples strictly beyond it, so a reported p99 is
// never the maximum of a handful of samples. A fixed ladder (rather than
// "the 11th-largest sample") keeps the reported statistic identical from run
// to run as long as the sample count stays inside one ladder band.
#ifndef DASHBENCH_PERCENTILE_H_
#define DASHBENCH_PERCENTILE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace dashbench {

/// 1-based nearest rank of percentile p (in (0, 100]) among n > 0 samples.
/// The epsilon absorbs binary rounding of p (99.9% of 10000 is rank 9990).
inline size_t Rank(size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  return std::clamp<size_t>(static_cast<size_t>(std::ceil(exact - 1e-9)), 1, n);
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
inline double NearestRank(const std::vector<double>& sorted, double p) {
  return sorted[Rank(sorted.size(), p) - 1];
}

/// Samples strictly beyond the nearest-rank position of percentile p.
inline size_t SamplesBeyond(size_t n, double p) { return n - Rank(n, p); }

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Tail {
  double percentile = 50;  ///< which ladder rung was reported
  double value = 0;
  size_t samples = 0;      ///< total samples
  size_t beyond = 0;       ///< samples strictly beyond the reported rung
};

// Rungs are far apart so that run-to-run changes in the sample count rarely
// move a workload from one rung to the next: [20, 39] samples report p50,
// [40, 99] p75, [100, 999] p90, and 1000 or more p99.
inline constexpr double kTailLadder[] = {50, 75, 90, 99};
inline constexpr size_t kMinBeyond = 10;

/// Highest ladder percentile with >= kMinBeyond samples beyond it. Below
/// 2 * kMinBeyond samples no rung qualifies and the median is reported.
inline Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  for (double p : kTailLadder) {
    if (SamplesBeyond(values.size(), p) >= kMinBeyond) tail.percentile = p;
  }
  tail.value = NearestRank(values, tail.percentile);
  tail.beyond = SamplesBeyond(values.size(), tail.percentile);
  return tail;
}

}  // namespace dashbench

#endif  // DASHBENCH_PERCENTILE_H_

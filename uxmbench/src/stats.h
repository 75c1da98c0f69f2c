// Order statistics for benchmark samples.
#ifndef UXMBENCH_STATS_H_
#define UXMBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace uxmbench {

/// Nearest-rank percentile of `v` (p in [0, 100]); 0 for an empty input.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Median (the mean of the two middle values for an even count).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A tail percentile that still has at least ten samples beyond it: p99
/// when there are enough samples, otherwise the highest nearest-rank
/// percentile that leaves ten samples above it (the maximum when there
/// are ten samples or fewer).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< The percentile actually reported.
};

inline Tail TailPercentile(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const size_t p99_rank =
      static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n)));
  size_t rank = p99_rank;
  if (n <= 10) {
    rank = n;
  } else if (n - p99_rank < 10) {
    rank = n - 10;
  }
  rank = std::max<size_t>(rank, 1);
  t.value = v[rank - 1];
  t.percentile = rank == p99_rank ? 99.0
                                  : 100.0 * static_cast<double>(rank) /
                                        static_cast<double>(n);
  return t;
}

inline double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

}  // namespace uxmbench

#endif  // UXMBENCH_STATS_H_

#ifndef DSSDDI_BENCH_E2E_STATS_H_
#define DSSDDI_BENCH_E2E_STATS_H_

// Order statistics shared by bench_e2e and its self-test.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

namespace dssddi::e2e {

/// Nearest-rank percentile: the ceil(q * n)-th smallest value (1-based),
/// q in [0, 1]. Takes the vector by value because nth_element reorders
/// it. 0 for an empty sample.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::max<size_t>(rank, 1) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

/// The median over windows of `values[i] * speed[i]^power`: what window i
/// measured while the host ran at `speed[i]` times the reference speed,
/// brought to the reference speed. A time grows as the host slows, a rate
/// shrinks: `power` is their elasticity to the host's speed, positive for
/// times and negative for rates.
inline double MedianAtReferenceSpeed(const std::vector<double>& values,
                                     const std::vector<double>& speed, double power) {
  std::vector<double> adjusted;
  for (size_t i = 0; i < values.size() && i < speed.size(); ++i) {
    adjusted.push_back(values[i] * std::pow(speed[i], power));
  }
  return Percentile(adjusted, 0.5);
}

/// Samples strictly above the q-th percentile; a tail percentile read
/// from fewer than ten of them says little.
inline size_t SamplesBeyond(const std::vector<double>& values, double q) {
  const double cut = Percentile(values, q);
  return static_cast<size_t>(
      std::count_if(values.begin(), values.end(), [cut](double v) { return v > cut; }));
}

}  // namespace dssddi::e2e

#endif  // DSSDDI_BENCH_E2E_STATS_H_

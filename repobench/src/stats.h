#ifndef REPOBENCH_STATS_H_
#define REPOBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace repobench {

/// Nearest-rank percentile: the smallest sample such that at least p% of
/// the samples are at or below it (p in (0, 100]). Selection, not a full
/// sort; selftest.cc checks it against a sort. Empty input gives 0.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const double n = static_cast<double>(samples.size());
  // p * n is exact for the sample counts used here; the epsilon keeps a
  // rank such as 99 * 1000 / 100 from rounding up to 991.
  size_t rank = static_cast<size_t>(std::ceil(p * n / 100.0 - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Ratio with a zero denominator reading as 0 (a layer that did no work).
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace repobench

#endif  // REPOBENCH_STATS_H_

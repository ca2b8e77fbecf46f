#include "bench/stats.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/error.hpp"

namespace candle::bench {

RepeatStats summarize(const std::vector<double>& values) {
  RepeatStats s;
  if (values.empty()) return s;
  s.n = static_cast<int>(values.size());
  s.min = *std::min_element(values.begin(), values.end());
  s.max = *std::max_element(values.begin(), values.end());
  double sum = 0.0;
  for (const double v : values) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  if (s.n > 1) {
    double ss = 0.0;
    for (const double v : values) ss += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(ss / static_cast<double>(s.n - 1));
  }
  if (s.mean != 0.0) s.rel_spread = (s.max - s.min) / std::abs(s.mean);
  return s;
}

double nearest_rank(std::vector<double> samples, double q) {
  CANDLE_CHECK(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  return samples[rank - 1];
}

}  // namespace candle::bench

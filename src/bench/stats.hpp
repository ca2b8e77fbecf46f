// Run-to-run statistics for seeded benchmark repeats: the MLPerf-HPC
// discipline reports every timed result as mean/min/max over N seeded runs
// plus a dispersion measure, and the regression gate judges changes against
// that measured dispersion instead of a bare threshold.
#pragma once

#include <vector>

namespace candle::bench {

struct RepeatStats {
  int n = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// Sample standard deviation (n-1 denominator); 0 when n < 2.
  double stddev = 0.0;
  /// Run-to-run variance envelope: (max - min) / |mean|, 0 when mean == 0.
  /// This is the quantity the regression gate widens its threshold by.
  double rel_spread = 0.0;
};

/// Summarize one metric's seeded repeats.  Empty input yields a zero struct.
RepeatStats summarize(const std::vector<double>& values);

/// Quantile q in [0, 1] of raw samples by nearest rank: the
/// max(1, ceil(q * n))-th smallest sample (0 when there are none).
double nearest_rank(std::vector<double> samples, double q);

}  // namespace candle::bench

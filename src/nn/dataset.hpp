// Dataset container + batching utilities shared by trainers, workload
// generators, and the HPO campaign driver.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/tensor.hpp"
#include "runtime/rng.hpp"

namespace candle {

/// A supervised dataset: features `x` (first dim = samples) and targets `y`
/// (first dim = samples; rank depends on the task).
struct Dataset {
  Tensor x;
  Tensor y;

  Index size() const { return x.ndim() > 0 ? x.dim(0) : 0; }

  /// Per-sample feature shape (x shape without the leading dim).
  Shape sample_shape() const {
    Shape s = x.shape();
    CANDLE_CHECK(!s.empty(), "dataset has no samples");
    s.erase(s.begin());
    return s;
  }
};

/// Rows [lo, hi) of a dataset (copies).
Dataset slice(const Dataset& d, Index lo, Index hi);

/// Rows selected by `idx`, in order (copies).
Dataset gather(const Dataset& d, std::span<const Index> idx);

/// Deterministic shuffled split into (first, second) with `first_fraction`
/// of the rows in the first part.
std::pair<Dataset, Dataset> split(const Dataset& d, double first_fraction,
                                  std::uint64_t seed);

/// Iterate a dataset in mini-batches, optionally reshuffling every epoch.
/// Serial fit() and the parameter-server trainer draw their batches here;
/// the data-parallel step loop reads the ingest reader's (seed, epoch)-pure
/// order instead (data/sample_list), so one seed gives them different orders.
class BatchIterator {
 public:
  BatchIterator(const Dataset& data, Index batch_size, bool shuffle,
                std::uint64_t seed);

  /// Number of batches per epoch (last batch may be short).
  Index batches_per_epoch() const;

  /// Next mini-batch; wraps to a new epoch (reshuffling if enabled) when the
  /// current one is exhausted.
  Dataset next();

  /// Which epoch the *next* batch belongs to (starts at 0).
  Index epoch() const { return epoch_; }

 private:
  void reshuffle();

  const Dataset* data_;
  Index batch_size_;
  bool shuffle_;
  Pcg32 rng_;
  std::vector<Index> order_;
  Index cursor_ = 0;
  Index epoch_ = 0;
};

/// Per-feature standardization parameters fit on a training set.
struct Standardizer {
  std::vector<float> mean;
  std::vector<float> stddev;

  /// Fit on the rows of a rank-2 feature tensor.
  static Standardizer fit(const Tensor& x);
  /// Apply in place ((x - mean)/stddev per column).
  void apply(Tensor& x) const;
};

}  // namespace candle

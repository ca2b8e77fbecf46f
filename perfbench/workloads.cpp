#include "workloads.hpp"

#include "nn/layer.hpp"

namespace perfbench {

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      // GEMMs dominate: a wide MLP, every sample resident in the store and
      // free to fetch, so the data layer idles in both stages.
      {"train_compute", {2048, 1024}, 1, true, 1.0, 0.0},
      // Ingest dominates: a small MLP fed through a store that holds half
      // the dataset, with a busy cost per fetch.  The epoch scan is cyclic,
      // so the LRU store misses on every training fetch.
      {"train_ingest", {128}, 4, false, 0.5, 100e-6},
      // Scoring dominates: a store holding a quarter of the Zipf-skewed id
      // space in front of a priced source makes it a hot-set lookup cache.
      {"serve_openloop", {2048, 1024}, 1, true, 0.25, 50e-6},
  };
  return all;
}

candle::Model build_model(Index features, const std::vector<Index>& hidden) {
  candle::Model m;
  for (const Index h : hidden) {
    m.add(candle::make_dense(h)).add(candle::make_relu());
  }
  m.add(candle::make_dense(1));
  m.build({features}, kModelSeed);
  return m;
}

std::size_t store_budget_bytes(const WorkloadSpec& w, const candle::Dataset& d) {
  const double row_bytes =
      4.0 * static_cast<double>(d.x.numel() + d.y.numel()) /
      static_cast<double>(d.size());
  return static_cast<std::size_t>(w.store_fraction * row_bytes *
                                  static_cast<double>(d.size())) +
         static_cast<std::size_t>(row_bytes);
}

}  // namespace perfbench

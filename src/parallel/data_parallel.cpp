// train_data_parallel itself is defined beside the one step loop it enters,
// in resilient.cpp; this file holds the fabric-model helpers.
#include "parallel/data_parallel.hpp"

namespace candle::parallel {

double modeled_allreduce_seconds(const hpcsim::Fabric& fabric,
                                 hpcsim::AllReduceAlgo algo,
                                 Index participants, double grad_bytes) {
  CANDLE_CHECK(participants >= 1, "need at least one participant");
  return hpcsim::allreduce_time_s(fabric, algo, participants, grad_bytes);
}

void annotate_with_fabric(DataParallelResult& result,
                          const hpcsim::Fabric& fabric,
                          hpcsim::AllReduceAlgo algo, Index replicas) {
  result.modeled_comm_seconds_per_step = modeled_allreduce_seconds(
      fabric, algo, replicas, result.grad_bytes_per_step);
}

}  // namespace candle::parallel

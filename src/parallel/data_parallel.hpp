// Synchronous data-parallel training over virtual nodes (threads).
//
// Each replica owns a full model copy (built from the same seed, hence
// bit-identical), consumes its shard of every global batch, and the
// replicas average gradients with a *real* ring all-reduce before applying
// identical optimizer steps.  This is exactly the synchronous SGD the
// CANDLE benchmarks ran over MPI; the fabric wall-clock at scale is
// reported alongside from the hpcsim model, while the numerics here are
// measured, not modeled.
//
// train_data_parallel is the plain entry point to the one data-parallel
// step loop, which lives beside its fault-tolerant entry point
// train_resilient (parallel/resilient): it runs that loop with an empty
// fault schedule, no checkpoint file and the communicator's default
// timeout.  Every batch comes through the ingest reader (src/data), whose
// sample list drops the tail that does not fill a global batch.
#pragma once

#include <functional>
#include <vector>

#include "hpcsim/fabric.hpp"
#include "hpcsim/machine.hpp"
#include "nn/dataset.hpp"
#include "nn/model.hpp"
#include "nn/trainer.hpp"

namespace candle::parallel {

/// Builds one model replica; must be deterministic (same layers, same
/// build seed) so replicas start in sync.
using ModelFactory = std::function<Model()>;
/// Builds one optimizer instance per replica (identical hyperparameters).
using OptimizerFactory = std::function<std::unique_ptr<Optimizer>()>;

/// How the step loop's one input path (src/data) is configured: (seed,
/// epoch)-pure sharded sample lists, a concurrent bounded sample store with
/// background fetchers, and a prefetch reader that assembles the next
/// global batch while the current step computes.  The sample order depends
/// only on (seed, epoch, width), so no field below changes one bit of
/// training: not `enabled`, the depth, the fetch threads or the budget.
struct IngestOptions {
  /// true runs the reader with the four fields below.  false (the default)
  /// ignores them and runs it in memory and synchronously: the training set
  /// as a source with no fetch cost, a store budget that holds all of it,
  /// no fetch threads and prefetch depth 1, so each batch is assembled
  /// inline and no thread is started.
  bool enabled = false;
  /// Batch slots assembled ahead (1 = synchronous assembly, no producer
  /// thread — the baseline bench_e13 compares against).
  Index prefetch_depth = 2;
  /// Background store fetch threads (0 = every miss resolves inline).  The
  /// reader's producer fetches beside them, so N threads give N + 1 fetch
  /// streams while a batch is assembled ahead (prefetch_depth >= 2).
  Index fetch_threads = 1;
  /// Sample-store cache budget in bytes.  The store evicts the sample whose
  /// next read in the (known) training order is farthest away.
  std::size_t store_byte_budget = std::size_t{64} << 20;
  /// Per-sample busy-spin modeling an expensive generator/decompressor
  /// (benchmarking hook; 0 for real workloads).
  double synthetic_fetch_cost_s = 0.0;
};

struct DataParallelOptions {
  Index replicas = 4;
  Index epochs = 5;
  Index batch_per_replica = 32;  // global batch = replicas * this
  std::uint64_t seed = 0;
  PrecisionPolicy precision;
  bool shuffle = true;
  /// Top-k gradient sparsification with error feedback: each replica sends
  /// only this fraction of its gradient entries per step (1.0 = dense).
  /// With bucketing, compression runs per bucket (each bucket keeps its top
  /// fraction and carries its own residual).
  double gradient_topk_fraction = 1.0;
  /// DDP-style gradient bucketing: pack layers (in reverse, gradient-
  /// production order) into buckets of at least this many bytes and
  /// all-reduce each bucket separately over the matching window of the flat
  /// gradient.  0 = monolithic (one all-reduce of the whole gradient after
  /// backward).  Dense results are bit-identical either way — ring chunks
  /// are anchored to global gradient positions (see collectives.hpp).
  Index bucket_bytes = 0;
  /// Launch each bucket's all-reduce the moment backward finishes producing
  /// it (nonblocking ring), overlapping communication with the remaining
  /// backward compute.  Requires bucket_bytes > 0.
  bool overlap_comm = false;
  /// Input path configuration (disabled = the reader in memory, inline).
  IngestOptions ingest;
};

struct DataParallelResult {
  std::vector<float> epoch_loss;   // per epoch: mean of the per-step means
  Index steps = 0;                 // optimizer steps committed
  double measured_seconds = 0.0;   // wall-clock of the threaded run
  double grad_bytes_per_step = 0.0;  // wire bytes (after compression)
  /// Modeled per-step wire time of the gradient all-reduce at this replica
  /// count on `fabric` (filled by annotate_with_fabric, 0 otherwise).
  double modeled_comm_seconds_per_step = 0.0;

  // Measured overlap instrumentation (rank-0 means per executed step).
  // busy is the comm engine's execution time; exposed is the part not
  // hidden behind backward compute (what the step actually waits for).  For
  // monolithic and non-overlapped runs busy == exposed and the overlap
  // fraction is 0.
  Index buckets_per_step = 1;
  double measured_backward_s = 0.0;      // backward compute, comm excluded
  double measured_comm_busy_s = 0.0;     // total all-reduce execution
  double measured_exposed_comm_s = 0.0;  // comm the critical path waited on
  double measured_overlap_fraction = 0.0;  // 1 - exposed/busy, in [0,1]

  /// Samples per epoch excluded because they do not fill a full global
  /// batch (up to global_batch - 1; logged once when non-zero).
  Index dropped_tail_samples = 0;

  // Ingest instrumentation (means per executed step).  busy is total
  // batch-assembly work wherever it ran; exposed is the part the step loop
  // actually waited on.  At prefetch depth 1 (ingest disabled, or enabled
  // with depth 1) busy == exposed: assembly runs inline on the training
  // thread.
  double measured_ingest_busy_s = 0.0;
  double measured_exposed_ingest_s = 0.0;
  double measured_ingest_overlap_fraction = 0.0;  // 1 - exposed/busy
};

/// Run synchronous data-parallel training.  Returns per-epoch global loss.
/// Replica models remain in sync; the final weights land in `out_model`
/// (built via `factory` and overwritten with the trained weights).  Throws
/// candle::Error if the reduced gradient turns non-finite (divergence).
DataParallelResult train_data_parallel(const ModelFactory& factory,
                                       const OptimizerFactory& opt_factory,
                                       const Dataset& train, const Loss& loss,
                                       const DataParallelOptions& options,
                                       Model* out_model = nullptr);

/// Modeled wire time of one gradient all-reduce among `participants` ranks
/// (0 when a single rank participates).  The partial-collective case
/// (participants < replicas) prices the quorum commit of the resilient
/// trainer's backup-worker and bounded-staleness modes.
double modeled_allreduce_seconds(const hpcsim::Fabric& fabric,
                                 hpcsim::AllReduceAlgo algo,
                                 Index participants, double grad_bytes);

/// Fill `result.modeled_comm_seconds_per_step` for the given fabric/algo.
void annotate_with_fabric(DataParallelResult& result,
                          const hpcsim::Fabric& fabric,
                          hpcsim::AllReduceAlgo algo, Index replicas);

}  // namespace candle::parallel

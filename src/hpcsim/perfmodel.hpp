// Training-step performance model: combines the node roofline, the fabric
// collective model, and a parallel decomposition into a per-step time /
// energy / efficiency estimate at any scale.
//
// This is the instrument behind experiments E1 (modeled speedups), E3
// (strong vs weak scaling), E4 (hybrid model+data+search decompositions)
// and E5 (data-motion energy).  The key structural facts it encodes:
//
//   * Compute shrinks with the local batch, but GEMM efficiency also
//     *drops* with the local batch (small matrices can't fill the machine)
//     — the first mechanism behind "DNNs do not have good strong scaling".
//   * Data-parallel gradient all-reduce cost is independent of the batch,
//     so at fixed global batch the communication fraction grows with p —
//     the second mechanism.
//   * Model parallelism exchanges activations (which shrink with shard
//     count) inside small groups, trading parameter traffic for latency-
//     sensitive fine-grained messages — why the paper wants high-bandwidth
//     fabric between "modest scale groups".
#pragma once

#include "hpcsim/fabric.hpp"
#include "hpcsim/machine.hpp"
#include "hpcsim/resilience.hpp"

namespace candle::hpcsim {

/// Static description of one training workload (extracted from an nn::Model
/// via `workload_from_model` in src/parallel, or filled by hand).
struct TrainingWorkload {
  std::string name;
  double flops_per_sample = 0.0;       // forward MACs*2
  double parameters = 0.0;             // trainable scalar count
  double bytes_per_sample = 0.0;       // input record size
  double activation_bytes_per_sample = 0.0;  // peak inter-layer activations
};

/// A parallel decomposition of one training job.
struct ParallelPlan {
  Index data_replicas = 1;   // gradient-averaged copies
  Index model_shards = 1;    // layer/tensor shards per replica
  Index batch_per_replica = 32;
  Precision precision = Precision::FP32;
  AllReduceAlgo allreduce = AllReduceAlgo::Ring;
  /// Bytes per gradient element on the wire (2 = fp16-compressed comms).
  double gradient_wire_bytes = 4.0;
  /// DDP-style bucketed all-reduce with comm/compute overlap: the gradient
  /// ships in ceil(grad_bytes / bucket_bytes) buckets, each launched as the
  /// backward pass produces it, so wire time hides behind the remaining
  /// backward compute and only the unhidden remainder is exposed on the
  /// step's critical path (StepEstimate::dp_comm_exposed_s).  0 = the
  /// monolithic synchronous all-reduce (fully exposed), the default.
  double bucket_bytes = 0.0;

  Index total_nodes() const { return data_replicas * model_shards; }
};

/// Per-step estimate at the modeled scale.
struct StepEstimate {
  double compute_s = 0.0;   // GEMM time on the critical path
  double memory_s = 0.0;    // weight/activation traffic time
  double dp_comm_s = 0.0;   // data-parallel gradient all-reduce (wire time)
  /// The part of dp_comm_s the step actually waits for.  Equal to dp_comm_s
  /// for the monolithic all-reduce; with bucketing (plan.bucket_bytes > 0)
  /// it is max(0, bucket wire time - remaining overlappable backward
  /// compute), from the drain simulation in overlapped_exposed_comm_s.
  double dp_comm_exposed_s = 0.0;
  /// Fraction of dp_comm_s hidden behind backward compute, in [0,1].
  double overlap_fraction = 0.0;
  double mp_comm_s = 0.0;   // model-parallel activation exchange
  /// Per-step batch-assembly (ingest) work and the part of it the step
  /// actually waits for.  Zero unless filled by estimate_step_with_ingest;
  /// the defaults keep plain estimate_step results bit-identical.
  double ingest_s = 0.0;
  double ingest_exposed_s = 0.0;
  double step_s = 0.0;      // total (compute/memory overlap, comm exposed)
  double energy_j = 0.0;    // whole-machine energy for the step
  double samples_per_s = 0.0;
  double flops_utilization = 0.0;  // achieved / peak over all nodes
  /// True when the per-shard working set (weights x3 for master/grad/opt +
  /// activations) exceeds the nearest tier's capacity: traffic is then
  /// priced at the next tier's bandwidth (capacity-induced spill).
  bool spills_nearest_tier = false;
};

/// Exposed communication time of a bucketed all-reduce overlapped with the
/// backward pass, by discrete drain simulation: bucket i of `buckets`
/// becomes ready at backward_s * (i+1)/buckets (gradients are produced
/// roughly uniformly through backward), a single serial comm engine
/// processes each bucket in `bucket_comm_s`, and the exposed time is how
/// long the engine keeps running after backward finishes.  Monotone in
/// bucket_comm_s; 0 when the wire time fully hides behind compute.
double overlapped_exposed_comm_s(Index buckets, double bucket_comm_s,
                                 double backward_s);

/// Exposed ingest time per step of a double-buffered prefetch pipeline
/// (src/data), under the same drain law as overlapped_exposed_comm_s but
/// running *ahead* of the consumer instead of behind the producer: a single
/// background assembler spends `assemble_s` per batch, a ring of `depth`
/// slots decouples it from the consumer (slot i is reusable once batch
/// i-depth finishes computing), and each step's exposed ingest is how long
/// the consumer waits for its slot beyond the previous step's compute.
/// Returns the mean over `steps` steps (the first batch is always fully
/// exposed — the pipeline fill — so the mean approaches the steady state
/// from above as steps grows).  Closed forms the tests pin:
///   depth == 1            ->  assemble_s every step (synchronous);
///   depth >= 2, steady    ->  max(0, assemble_s - compute_s).
double ingest_exposed_s_per_step(double assemble_s, double compute_s,
                                 Index depth, Index steps);

/// Ingest configuration for estimate_step_with_ingest.
struct IngestModel {
  double assemble_s_per_step = 0.0;  ///< batch-assembly work per step
  Index prefetch_depth = 2;          ///< slot ring depth (1 = synchronous)
  Index steps = 256;                 ///< steps simulated (amortizes fill)
};

/// GEMM efficiency as a function of the per-shard batch: saturating curve
/// eff = b / (b + b_half), calibrated so batch 256 reaches ~89% of peak.
/// Exposed so tests can pin the curve's shape.
double gemm_efficiency(Index local_batch);

/// Estimate one synchronous training step (fwd + bwd + update + gradient
/// reduction) for the workload under the plan on the machine.
StepEstimate estimate_step(const NodeSpec& node, const Fabric& fabric,
                           const TrainingWorkload& workload,
                           const ParallelPlan& plan);

/// estimate_step plus the ingest pipeline: the compute/comm step from
/// estimate_step is the consumer, the ingest drain law prices how much of
/// the per-step assembly work stays exposed, and step_s grows by exactly
/// that exposed part.  bench_e13 pins this against the measured reader.
StepEstimate estimate_step_with_ingest(const NodeSpec& node,
                                       const Fabric& fabric,
                                       const TrainingWorkload& workload,
                                       const ParallelPlan& plan,
                                       const IngestModel& ingest);

/// One row of a scaling study.
struct ScalingPoint {
  Index nodes = 1;
  double step_s = 0.0;
  double speedup = 1.0;     // vs 1 node
  double efficiency = 1.0;  // speedup / nodes
  double comm_fraction = 0.0;
  double samples_per_s = 0.0;
};

/// Strong scaling: fixed global batch, replicas = nodes (data parallel).
std::vector<ScalingPoint> strong_scaling(const NodeSpec& node,
                                         const Fabric& fabric,
                                         const TrainingWorkload& workload,
                                         Index global_batch,
                                         const std::vector<Index>& node_counts,
                                         Precision prec = Precision::FP32);

/// Weak scaling: fixed per-replica batch, global batch grows with nodes.
std::vector<ScalingPoint> weak_scaling(const NodeSpec& node,
                                       const Fabric& fabric,
                                       const TrainingWorkload& workload,
                                       Index batch_per_replica,
                                       const std::vector<Index>& node_counts,
                                       Precision prec = Precision::FP32);

/// A scaling sweep re-anchored on a single measured point: the MLPerf-HPC
/// discipline of reporting modeled multi-node numbers only relative to a
/// wall-clock measurement on the hardware at hand.
struct AnchoredScaling {
  /// measured_anchor_step_s / modeled step at the anchor point.  The whole
  /// sweep's step times are multiplied by this ratio (throughputs divided),
  /// so the anchor row reproduces the measurement exactly while speedup,
  /// efficiency and comm_fraction keep their modeled shape (the ratio
  /// cancels out of every step-time quotient).
  double anchor_ratio = 1.0;
  std::vector<ScalingPoint> points;
};

/// strong_scaling re-anchored so the node_counts.front() row's step time
/// equals `measured_anchor_step_s` (a wall-clock measurement at that scale).
AnchoredScaling anchored_strong_scaling(
    const NodeSpec& node, const Fabric& fabric,
    const TrainingWorkload& workload, Index global_batch,
    const std::vector<Index>& node_counts, double measured_anchor_step_s,
    Precision prec = Precision::FP32);

/// weak_scaling re-anchored the same way.
AnchoredScaling anchored_weak_scaling(
    const NodeSpec& node, const Fabric& fabric,
    const TrainingWorkload& workload, Index batch_per_replica,
    const std::vector<Index>& node_counts, double measured_anchor_step_s,
    Precision prec = Precision::FP32);

/// Expected per-step time of the workload under the plan when ranks stall
/// per the heavy-tailed `straggler` model, for a given mitigation mode: the
/// fabric-modeled synchronous step (estimate_step) stretched by the tail
/// expectation from hpcsim::resilience.  This is the planning-level view of
/// what the executable `parallel/resilient` mitigation modes measure.
double estimate_step_with_stragglers(const NodeSpec& node, const Fabric& fabric,
                                     const TrainingWorkload& workload,
                                     const ParallelPlan& plan,
                                     const StragglerModel& straggler,
                                     StragglerMitigation mode,
                                     Index backup_workers,
                                     Index staleness_bound);

/// Search over (data_replicas, model_shards) factorizations of `nodes` for
/// the plan with the highest samples/s; used by E4 together with search
/// parallelism (splitting `nodes` across concurrent HPO trainings).
ParallelPlan best_hybrid_plan(const NodeSpec& node, const Fabric& fabric,
                              const TrainingWorkload& workload, Index nodes,
                              Index global_batch,
                              Precision prec = Precision::FP32);

// ---- inference serving ------------------------------------------------------

/// Deployment description for the serving estimator — mirrors
/// serve::SupervisedOptions + serve::BatchPolicy so a modeled configuration
/// maps one-to-one onto a runnable engine.
struct ServingPlan {
  Index workers = 2;
  Index max_batch = 32;
  double batch_timeout_s = 2e-3;
  Index queue_capacity = 1024;
  Precision precision = Precision::FP32;
  /// Measured seconds to serve one full `max_batch` batch.  When > 0 it
  /// replaces the roofline estimate — this is how the bench pins the model
  /// against the real engine (the same calibrate-then-project idiom as
  /// calibrate_host for training).  0 = derive from the node roofline.
  double measured_batch_service_s = 0.0;
};

/// Modeled behaviour of a serving deployment at one offered load.
struct ServingEstimate {
  double batch_service_s = 0.0;  ///< one full-batch forward pass
  double capacity_rps = 0.0;     ///< workers * max_batch / batch_service_s
  double utilization = 0.0;      ///< offered / capacity (rho, may exceed 1)
  double batch_fill_wait_s = 0.0;  ///< mean coalescing wait at this load
  double queue_wait_s = 0.0;     ///< mean queueing delay (saturates at cap)
  double mean_latency_s = 0.0;   ///< fill wait + queue wait + service
  double shed_fraction = 0.0;    ///< arrivals rejected once rho > 1
  double throughput_rps = 0.0;   ///< goodput: min(offered, capacity)
};

/// Estimate a serving deployment (forward-only inference, dynamic batching
/// as in serve::DynamicBatcher) at `offered_rps` open-loop load.  Capacity
/// comes from the full-batch service time — roofline-derived, or the
/// measured override; waiting time combines the batch-coalescing window
/// with an M/D/c-style congestion term that saturates at the bounded
/// queue's worth of delay once rho >= 1.
ServingEstimate estimate_serving(const NodeSpec& node,
                                 const TrainingWorkload& workload,
                                 const ServingPlan& plan, double offered_rps);

/// Modeled behaviour of a *continuous-batching* deployment
/// (serve::BatchPolicy::continuous: an idle worker takes whatever is
/// queued, up to max_batch rows, with no fill window) at one offered load.  Capacity is identical to the
/// coalescing estimator — continuous batching changes *when* rows join a
/// batch, not how fast a full batch computes — but the latency structure
/// differs: there is no fill-wait term at all (batch_timeout_s never enters
/// this model), and iterations run at the modeled slot occupancy instead of
/// the full max_batch.
struct ContinuousServingEstimate {
  double batch_service_s = 0.0;  ///< one full-capacity iteration
  double row_service_s = 0.0;    ///< batch_service_s / max_batch
  double mean_batch_rows = 0.0;  ///< modeled slot occupancy per iteration
  double iteration_s = 0.0;      ///< mean_batch_rows * row_service_s
  double capacity_rps = 0.0;     ///< workers * max_batch / batch_service_s
  double utilization = 0.0;      ///< offered / capacity (rho, may exceed 1)
  double admit_wait_s = 0.0;     ///< wait for the in-progress iteration
  double queue_wait_s = 0.0;     ///< congestion (saturates at full queue)
  double mean_latency_s = 0.0;   ///< admit + queue + iteration
  double shed_fraction = 0.0;    ///< arrivals rejected once rho > 1
  double throughput_rps = 0.0;   ///< goodput: min(offered, capacity)
};

/// Estimate a continuous-batching deployment at `offered_rps` open-loop
/// load.  Shares the full-batch service time (roofline or measured
/// override) with estimate_serving, so the two estimators are directly
/// comparable at the same ServingPlan; the serving bench pins the low-load
/// latency gap between them against the measured engine in both modes.
ContinuousServingEstimate estimate_serving_continuous(
    const NodeSpec& node, const TrainingWorkload& workload,
    const ServingPlan& plan, double offered_rps);

/// estimate_serving under failures: the pool's delivered capacity is priced
/// by the serving fault model (crash/MTTR availability, hang drag, hedging
/// duplicate work — see hpcsim/resilience.hpp) with `failed_workers` dead
/// and not yet replaced.
struct DegradedServingEstimate {
  ServingEstimate base;         ///< queueing estimate at degraded capacity
  double availability = 1.0;    ///< per-slot live fraction mtbf/(mtbf+mttr)
  double efficiency = 1.0;      ///< per-slot useful fraction (hang/hedge)
  double capacity_ratio = 1.0;  ///< delivered / nominal capacity
};

/// Model a serving deployment with `failed_workers` of `plan.workers` dead
/// and the survivors degraded per `faults`.  The healthy batch service time
/// comes from `plan` (measured or roofline, as estimate_serving); the fault
/// model's own batch_service_s is overwritten with it so the two stay
/// consistent.  bench_e12 pins the capacity_ratio of this estimate against
/// the measured chaos engine.
DegradedServingEstimate estimate_degraded_serving(
    const NodeSpec& node, const TrainingWorkload& workload,
    const ServingPlan& plan, double offered_rps, ServingFaultModel faults,
    Index failed_workers = 0);

}  // namespace candle::hpcsim

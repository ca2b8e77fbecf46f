#include "hpcsim/perfmodel.hpp"

#include <algorithm>
#include <cmath>

namespace candle::hpcsim {

double overlapped_exposed_comm_s(Index buckets, double bucket_comm_s,
                                 double backward_s) {
  CANDLE_CHECK(buckets >= 1, "need at least one bucket");
  CANDLE_CHECK(bucket_comm_s >= 0.0 && backward_s >= 0.0,
               "negative time in overlap model");
  // Drain simulation: the engine can start bucket i once backward has
  // produced it AND the previous bucket finished; the exposed tail is
  // whatever runs past the end of backward.
  double engine_free = 0.0;
  for (Index i = 0; i < buckets; ++i) {
    const double ready = backward_s * static_cast<double>(i + 1) /
                         static_cast<double>(buckets);
    engine_free = std::max(engine_free, ready) + bucket_comm_s;
  }
  return std::max(0.0, engine_free - backward_s);
}

double ingest_exposed_s_per_step(double assemble_s, double compute_s,
                                 Index depth, Index steps) {
  CANDLE_CHECK(depth >= 1, "need at least one prefetch slot");
  CANDLE_CHECK(steps >= 1, "need at least one step");
  CANDLE_CHECK(assemble_s >= 0.0 && compute_s >= 0.0,
               "negative time in ingest model");
  // Drain simulation, mirror image of overlapped_exposed_comm_s: the
  // assembler runs ahead of the consumer, gated by slot reuse (batch i's
  // slot frees when batch i-depth finishes computing), and each step's
  // exposed ingest is the gap between the previous compute ending and the
  // next batch being ready.
  std::vector<double> consume_end(static_cast<std::size_t>(steps), 0.0);
  double assembler_free = 0.0;
  double exposed = 0.0;
  for (Index i = 0; i < steps; ++i) {
    const double slot_free =
        i >= depth ? consume_end[static_cast<std::size_t>(i - depth)] : 0.0;
    const double ready =
        std::max(assembler_free, slot_free) + assemble_s;
    assembler_free = ready;
    const double prev_end =
        i > 0 ? consume_end[static_cast<std::size_t>(i - 1)] : 0.0;
    exposed += std::max(0.0, ready - prev_end);
    consume_end[static_cast<std::size_t>(i)] =
        std::max(ready, prev_end) + compute_s;
  }
  return exposed / static_cast<double>(steps);
}

StepEstimate estimate_step_with_ingest(const NodeSpec& node,
                                       const Fabric& fabric,
                                       const TrainingWorkload& workload,
                                       const ParallelPlan& plan,
                                       const IngestModel& ingest) {
  StepEstimate e = estimate_step(node, fabric, workload, plan);
  e.ingest_s = ingest.assemble_s_per_step;
  e.ingest_exposed_s = ingest_exposed_s_per_step(
      ingest.assemble_s_per_step, e.step_s, ingest.prefetch_depth,
      ingest.steps);
  e.step_s += e.ingest_exposed_s;
  return e;
}

double gemm_efficiency(Index local_batch) {
  CANDLE_CHECK(local_batch >= 0, "negative batch");
  if (local_batch == 0) return 0.0;
  const double b = static_cast<double>(local_batch);
  const double b_half = 32.0;  // batch at 50% of peak
  return b / (b + b_half);
}

StepEstimate estimate_step(const NodeSpec& node, const Fabric& fabric,
                           const TrainingWorkload& workload,
                           const ParallelPlan& plan) {
  CANDLE_CHECK(plan.data_replicas >= 1 && plan.model_shards >= 1,
               "invalid parallel plan");
  CANDLE_CHECK(plan.batch_per_replica >= 1, "empty replica batch");
  CANDLE_CHECK(workload.flops_per_sample > 0.0 && workload.parameters > 0.0,
               "workload not populated");

  StepEstimate e;
  const double b = static_cast<double>(plan.batch_per_replica);
  const double shards = static_cast<double>(plan.model_shards);
  const double replicas = static_cast<double>(plan.data_replicas);

  // --- compute: fwd + 2 backward GEMMs = 3x forward flops; work divides
  // across model shards; efficiency depends on per-shard batch volume.
  const double step_flops = 3.0 * workload.flops_per_sample * b / shards;
  const double eff = gemm_efficiency(plan.batch_per_replica);
  const double peak = node.peak_gflops(plan.precision) * 1e9;
  e.compute_s = step_flops / (peak * std::max(1e-6, eff));

  // --- memory: weights read 3x (fwd, bwd, update) + activations written
  // and re-read once each; from the nearest tier unless the resident
  // working set (weights + grads + optimizer state + activations) exceeds
  // its capacity, in which case traffic spills to the next tier.
  const double weight_bytes = workload.parameters / shards * 4.0 * 3.0;
  const double act_bytes = workload.activation_bytes_per_sample * b / shards * 2.0;
  const double input_bytes = workload.bytes_per_sample * b;
  const double mem_bytes = weight_bytes + act_bytes + input_bytes;
  const double resident_gb =
      (workload.parameters / shards * 4.0 * 3.0 +
       workload.activation_bytes_per_sample * b / shards) /
      1e9;
  std::size_t tier_index = 0;
  if (resident_gb > node.nearest().capacity_gb && node.tiers.size() > 1) {
    tier_index = 1;
    e.spills_nearest_tier = true;
  }
  e.memory_s = mem_bytes / (node.tier(tier_index).bandwidth_gbs * 1e9);

  // --- data-parallel gradient all-reduce across replicas.
  const double grad_bytes =
      workload.parameters / shards * plan.gradient_wire_bytes;
  e.dp_comm_s = plan.data_replicas > 1
                    ? allreduce_time_s(fabric, plan.allreduce,
                                       plan.data_replicas, grad_bytes)
                    : 0.0;

  // --- model-parallel activation exchange: each of the shard boundaries
  // passes the boundary activations forward and gradients back, with
  // latency paid per microbatch message inside the (modest) group.
  if (plan.model_shards > 1) {
    const double boundary_bytes =
        workload.activation_bytes_per_sample * b / shards;
    const double alpha = fabric.message_latency_s(1.0);  // tight group
    const double per_boundary =
        2.0 * (alpha + boundary_bytes * fabric.seconds_per_byte());
    e.mp_comm_s = (shards - 1.0) * per_boundary;
  }

  // --- assembly: compute overlaps memory (roofline max).  Monolithic
  // collectives are fully exposed (synchronous SGD); with bucketing the
  // gradient ships in size-targeted buckets launched as backward produces
  // them, and only the drain tail past the end of backward is exposed.
  // Backward is ~2/3 of the math time (2 of the 3 GEMM passes), the window
  // the bucket stream can hide behind.
  const double math_s = std::max(e.compute_s, e.memory_s);
  e.dp_comm_exposed_s = e.dp_comm_s;
  if (plan.bucket_bytes > 0.0 && plan.data_replicas > 1) {
    const double nb_d = std::ceil(grad_bytes / plan.bucket_bytes);
    const Index nb = std::max<Index>(1, static_cast<Index>(nb_d));
    const double bucket_comm_s = allreduce_time_s(
        fabric, plan.allreduce, plan.data_replicas,
        grad_bytes / static_cast<double>(nb));
    e.dp_comm_s = static_cast<double>(nb) * bucket_comm_s;
    const double backward_s = math_s * (2.0 / 3.0);
    e.dp_comm_exposed_s =
        overlapped_exposed_comm_s(nb, bucket_comm_s, backward_s);
  }
  e.overlap_fraction =
      e.dp_comm_s > 0.0
          ? std::clamp(1.0 - e.dp_comm_exposed_s / e.dp_comm_s, 0.0, 1.0)
          : 0.0;
  e.step_s = math_s + e.dp_comm_exposed_s + e.mp_comm_s;

  // --- energy across the whole allocation.
  const double nodes = replicas * shards;
  const double flop_energy = step_flops * shards *  // per-replica total
                             node.pj_per_flop(plan.precision) * 1e-12;
  const double mem_energy = mem_bytes * shards *
                            node.nearest().pj_per_byte * 1e-12;
  const double wire_bytes =
      allreduce_bytes_on_wire(plan.allreduce, plan.data_replicas, grad_bytes) +
      (plan.model_shards > 1
           ? 2.0 * (shards - 1.0) * workload.activation_bytes_per_sample * b /
                 shards
           : 0.0);
  const double net_energy = fabric.transfer_energy_j(wire_bytes);
  e.energy_j = replicas * (flop_energy + mem_energy) + replicas * net_energy;

  const double global_batch = b * replicas;
  e.samples_per_s = global_batch / e.step_s;
  const double total_peak = peak * nodes;
  e.flops_utilization =
      (3.0 * workload.flops_per_sample * global_batch / e.step_s) / total_peak;
  return e;
}

namespace {

ScalingPoint make_point(const StepEstimate& est, Index nodes,
                        double base_step_s, double base_nodes_ratio) {
  ScalingPoint p;
  p.nodes = nodes;
  p.step_s = est.step_s;
  p.speedup = base_step_s / est.step_s * base_nodes_ratio;
  p.efficiency = p.speedup / static_cast<double>(nodes);
  p.comm_fraction = (est.dp_comm_s + est.mp_comm_s) / est.step_s;
  p.samples_per_s = est.samples_per_s;
  return p;
}

}  // namespace

std::vector<ScalingPoint> strong_scaling(
    const NodeSpec& node, const Fabric& fabric,
    const TrainingWorkload& workload, Index global_batch,
    const std::vector<Index>& node_counts, Precision prec) {
  CANDLE_CHECK(global_batch >= 1, "empty global batch");
  std::vector<ScalingPoint> out;
  double base_step = 0.0;
  for (Index n : node_counts) {
    CANDLE_CHECK(n >= 1, "invalid node count");
    ParallelPlan plan;
    plan.data_replicas = n;
    plan.batch_per_replica = std::max<Index>(1, global_batch / n);
    plan.precision = prec;
    const StepEstimate est = estimate_step(node, fabric, workload, plan);
    if (out.empty()) base_step = est.step_s;
    out.push_back(make_point(est, n, base_step,
                             static_cast<double>(node_counts.front())));
  }
  return out;
}

std::vector<ScalingPoint> weak_scaling(const NodeSpec& node,
                                       const Fabric& fabric,
                                       const TrainingWorkload& workload,
                                       Index batch_per_replica,
                                       const std::vector<Index>& node_counts,
                                       Precision prec) {
  std::vector<ScalingPoint> out;
  double base_step = 0.0;
  for (Index n : node_counts) {
    CANDLE_CHECK(n >= 1, "invalid node count");
    ParallelPlan plan;
    plan.data_replicas = n;
    plan.batch_per_replica = batch_per_replica;
    plan.precision = prec;
    const StepEstimate est = estimate_step(node, fabric, workload, plan);
    if (out.empty()) base_step = est.step_s;
    // Weak-scaling speedup counts the growing work: speedup = n * t1/tn.
    ScalingPoint p;
    p.nodes = n;
    p.step_s = est.step_s;
    p.speedup = static_cast<double>(n) * base_step / est.step_s *
                static_cast<double>(node_counts.front());
    p.efficiency = base_step / est.step_s;
    p.comm_fraction = (est.dp_comm_s + est.mp_comm_s) / est.step_s;
    p.samples_per_s = est.samples_per_s;
    out.push_back(p);
  }
  return out;
}

namespace {

AnchoredScaling anchor_sweep(std::vector<ScalingPoint> points,
                             double measured_anchor_step_s) {
  CANDLE_CHECK(!points.empty(), "empty scaling sweep");
  CANDLE_CHECK(measured_anchor_step_s > 0.0,
               "anchor step time must be positive");
  AnchoredScaling out;
  out.anchor_ratio = measured_anchor_step_s / points.front().step_s;
  // Speedup/efficiency/comm_fraction are step-time quotients, so the
  // constant ratio cancels: only absolute step times and throughputs move.
  for (ScalingPoint& p : points) {
    p.step_s *= out.anchor_ratio;
    p.samples_per_s /= out.anchor_ratio;
  }
  out.points = std::move(points);
  return out;
}

}  // namespace

AnchoredScaling anchored_strong_scaling(
    const NodeSpec& node, const Fabric& fabric,
    const TrainingWorkload& workload, Index global_batch,
    const std::vector<Index>& node_counts, double measured_anchor_step_s,
    Precision prec) {
  return anchor_sweep(
      strong_scaling(node, fabric, workload, global_batch, node_counts, prec),
      measured_anchor_step_s);
}

AnchoredScaling anchored_weak_scaling(
    const NodeSpec& node, const Fabric& fabric,
    const TrainingWorkload& workload, Index batch_per_replica,
    const std::vector<Index>& node_counts, double measured_anchor_step_s,
    Precision prec) {
  return anchor_sweep(weak_scaling(node, fabric, workload, batch_per_replica,
                                   node_counts, prec),
                      measured_anchor_step_s);
}

ParallelPlan best_hybrid_plan(const NodeSpec& node, const Fabric& fabric,
                              const TrainingWorkload& workload, Index nodes,
                              Index global_batch, Precision prec) {
  CANDLE_CHECK(nodes >= 1, "invalid node count");
  ParallelPlan best;
  double best_rate = -1.0;
  for (Index shards = 1; shards <= nodes; shards *= 2) {
    if (nodes % shards != 0) continue;
    const Index replicas = nodes / shards;
    if (replicas > global_batch) continue;  // cannot split the batch further
    ParallelPlan plan;
    plan.data_replicas = replicas;
    plan.model_shards = shards;
    plan.batch_per_replica = std::max<Index>(1, global_batch / replicas);
    plan.precision = prec;
    plan.allreduce = best_allreduce_algo(
        fabric, replicas, workload.parameters / static_cast<double>(shards) *
                              plan.gradient_wire_bytes);
    const StepEstimate est = estimate_step(node, fabric, workload, plan);
    if (est.samples_per_s > best_rate) {
      best_rate = est.samples_per_s;
      best = plan;
    }
  }
  CANDLE_CHECK(best_rate > 0.0, "no feasible hybrid plan");
  return best;
}

double estimate_step_with_stragglers(const NodeSpec& node, const Fabric& fabric,
                                     const TrainingWorkload& workload,
                                     const ParallelPlan& plan,
                                     const StragglerModel& straggler,
                                     StragglerMitigation mode,
                                     Index backup_workers,
                                     Index staleness_bound) {
  const StepEstimate est = estimate_step(node, fabric, workload, plan);
  return expected_straggler_step_s(straggler, mode, est.step_s,
                                   plan.data_replicas, backup_workers,
                                   staleness_bound);
}

namespace {

// Full-max_batch forward service time shared by both serving estimators:
// the measured engine calibration when provided, else the forward-only
// roofline (1x the forward flops, weights read once, activations
// written+read once).
double serving_batch_service_s(const NodeSpec& node,
                               const TrainingWorkload& workload,
                               const ServingPlan& plan) {
  if (plan.measured_batch_service_s > 0.0) {
    return plan.measured_batch_service_s;
  }
  CANDLE_CHECK(workload.flops_per_sample > 0.0, "workload not populated");
  const double b = static_cast<double>(plan.max_batch);
  const double flops = workload.flops_per_sample * b;
  const double eff = gemm_efficiency(plan.max_batch);
  const double peak = node.peak_gflops(plan.precision) * 1e9;
  const double compute_s = flops / (peak * std::max(1e-6, eff));
  const double mem_bytes = workload.parameters * 4.0 +
                           workload.activation_bytes_per_sample * b * 2.0 +
                           workload.bytes_per_sample * b;
  const double memory_s = mem_bytes / (node.nearest().bandwidth_gbs * 1e9);
  return std::max(compute_s, memory_s);
}

}  // namespace

ServingEstimate estimate_serving(const NodeSpec& node,
                                 const TrainingWorkload& workload,
                                 const ServingPlan& plan, double offered_rps) {
  CANDLE_CHECK(plan.workers >= 1 && plan.max_batch >= 1,
               "invalid serving plan");
  CANDLE_CHECK(plan.batch_timeout_s >= 0.0 && plan.queue_capacity >= 1,
               "invalid serving plan");
  CANDLE_CHECK(offered_rps >= 0.0, "negative offered load");

  ServingEstimate e;
  const double b = static_cast<double>(plan.max_batch);
  e.batch_service_s = serving_batch_service_s(node, workload, plan);

  e.capacity_rps = static_cast<double>(plan.workers) * b / e.batch_service_s;
  e.utilization = offered_rps > 0.0 ? offered_rps / e.capacity_rps : 0.0;

  // --- batch coalescing wait: an average admitted request sits out half
  // the time the window takes to fill, capped by the batcher's timeout (low
  // load closes batches on the clock, not the count).  Batches fill at the
  // *admitted* rate — above capacity the surplus is shed on arrival and
  // never joins a batch.
  const double fill_rps = std::min(offered_rps, e.capacity_rps);
  e.batch_fill_wait_s =
      fill_rps > 0.0
          ? std::min(plan.batch_timeout_s, (b - 1.0) / (2.0 * fill_rps))
          : 0.0;

  // --- congestion: M/D/c-style mean wait rho/(1-rho) * service/(2*workers),
  // saturating at a full bounded queue's worth of sojourn once rho -> 1
  // (beyond that the admission controller sheds instead of queueing).
  const double full_queue_wait_s =
      std::ceil(static_cast<double>(plan.queue_capacity) / b) *
      e.batch_service_s / static_cast<double>(plan.workers);
  if (e.utilization < 1.0) {
    const double rho = e.utilization;
    const double mdc_wait = rho / (1.0 - rho) * e.batch_service_s /
                            (2.0 * static_cast<double>(plan.workers));
    e.queue_wait_s = std::min(mdc_wait, full_queue_wait_s);
  } else {
    e.queue_wait_s = full_queue_wait_s;
  }
  e.mean_latency_s = e.batch_fill_wait_s + e.queue_wait_s + e.batch_service_s;

  e.throughput_rps = std::min(offered_rps, e.capacity_rps);
  e.shed_fraction =
      offered_rps > 0.0
          ? std::max(0.0, 1.0 - e.capacity_rps / offered_rps)
          : 0.0;
  return e;
}

ContinuousServingEstimate estimate_serving_continuous(
    const NodeSpec& node, const TrainingWorkload& workload,
    const ServingPlan& plan, double offered_rps) {
  CANDLE_CHECK(plan.workers >= 1 && plan.max_batch >= 1,
               "invalid serving plan");
  CANDLE_CHECK(plan.queue_capacity >= 1, "invalid serving plan");
  CANDLE_CHECK(offered_rps >= 0.0, "negative offered load");

  ContinuousServingEstimate e;
  const double b = static_cast<double>(plan.max_batch);
  e.batch_service_s = serving_batch_service_s(node, workload, plan);
  e.row_service_s = e.batch_service_s / b;
  e.capacity_rps = static_cast<double>(plan.workers) * b / e.batch_service_s;
  e.utilization = offered_rps > 0.0 ? offered_rps / e.capacity_rps : 0.0;

  // --- slot occupancy: the scheduler admits whatever is queued into free
  // slots at every iteration, so mean occupancy tracks utilization (rho of
  // the capacity slots busy) — never below the one row being served, never
  // above max_batch.
  const double rho = std::min(1.0, e.utilization);
  e.mean_batch_rows = std::clamp(rho * b, 1.0, b);
  e.iteration_s = e.mean_batch_rows * e.row_service_s;

  // --- admit wait: there is NO fill window (the defining cut vs the
  // coalescing estimator — batch_timeout_s never enters this model).  An
  // arrival finding every worker mid-iteration waits on average half an
  // iteration for the next admit point; with probability ~(1 - rho) some
  // worker is idle and admits immediately.
  e.admit_wait_s = rho * e.iteration_s / 2.0;

  // --- congestion beyond the admit point: the same M/D/c shape as the
  // coalescing estimator at iteration granularity, saturating at the
  // bounded queue's sojourn — queued rows drain one row at a time across
  // the pool, not a batch at a time.
  const double full_queue_wait_s = static_cast<double>(plan.queue_capacity) *
                                   e.row_service_s /
                                   static_cast<double>(plan.workers);
  if (e.utilization < 1.0) {
    const double mdc_wait = e.utilization / (1.0 - e.utilization) *
                            e.iteration_s /
                            (2.0 * static_cast<double>(plan.workers));
    e.queue_wait_s = std::min(mdc_wait, full_queue_wait_s);
  } else {
    e.queue_wait_s = full_queue_wait_s;
  }
  e.mean_latency_s = e.admit_wait_s + e.queue_wait_s + e.iteration_s;

  e.throughput_rps = std::min(offered_rps, e.capacity_rps);
  e.shed_fraction =
      offered_rps > 0.0
          ? std::max(0.0, 1.0 - e.capacity_rps / offered_rps)
          : 0.0;
  return e;
}

DegradedServingEstimate estimate_degraded_serving(
    const NodeSpec& node, const TrainingWorkload& workload,
    const ServingPlan& plan, double offered_rps, ServingFaultModel faults,
    Index failed_workers) {
  CANDLE_CHECK(failed_workers >= 0 && failed_workers < plan.workers,
               "failed workers must leave a non-empty pool");
  // Healthy service time first (measured or roofline), so the fault model
  // prices hangs/hedges relative to the same batch the queue model uses.
  const ServingEstimate healthy =
      estimate_serving(node, workload, plan, offered_rps);
  faults.workers = plan.workers;
  faults.batch_service_s = healthy.batch_service_s;

  DegradedServingEstimate d;
  d.availability = serving_availability(faults);
  d.efficiency = serving_efficiency(faults);
  const double live =
      static_cast<double>(plan.workers - failed_workers) /
      static_cast<double>(plan.workers);
  d.capacity_ratio = live * d.availability * d.efficiency;

  // Re-run the queueing estimate with the degradation folded into an
  // effective (slower) batch service over the shrunken pool: capacity and
  // congestion then degrade together, the way the real engine's admission
  // controller sees it.
  ServingPlan degraded = plan;
  degraded.workers = plan.workers - failed_workers;
  degraded.measured_batch_service_s =
      healthy.batch_service_s / (d.availability * d.efficiency);
  d.base = estimate_serving(node, workload, degraded, offered_rps);
  return d;
}

}  // namespace candle::hpcsim

// Shared fixture of the serving benches (bench_e11_serving, bench_e12_chaos
// and bench_suite's serving adapters): calibrate the batch service time at
// deployment concurrency and replay a seeded arrival trace open-loop,
// keeping the raw per-request latencies for bench::nearest_rank.
#pragma once

#include <vector>

#include "nn/model.hpp"
#include "serve/request.hpp"
#include "serve/supervisor.hpp"

namespace candle::bench {

/// Median wall time of one full `max_batch`-row run of the engine's
/// InferencePlan, measured at deployment concurrency — `workers` threads
/// running it simultaneously, each on its own scratch, exactly as the
/// engine's workers do.  A single-stream measurement would overstate
/// capacity: concurrent workers contend for the kernel thread pool, and the
/// per-batch service time under contention is what the admission controller
/// and the capacity model actually see.  The serving counterpart of
/// calibrate_host: measure once, project the sweep.  Each thread times
/// `reps` runs after one untimed warm-up (pools, arenas).
double measure_batch_service_s(const Model& m, Index max_batch, Index workers,
                               int reps);

/// Replay `trace` open-loop against `engine`: request i (a copy of `input`
/// with `deadline_s`) is submitted at trace.at_s[i] however the engine is
/// doing — the load does not politely back off when the server saturates.
/// Then drains the engine, so every future resolves and engine.stats() is
/// final, and returns Response::latency_s of each completed request in
/// submission order.
std::vector<double> replay_open_loop(serve::SupervisedEngine& engine,
                                     const serve::ArrivalTrace& trace,
                                     const std::vector<float>& input,
                                     double deadline_s);

}  // namespace candle::bench

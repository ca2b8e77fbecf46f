// Typed inference requests and seeded open-loop arrival generation.
//
// The serving half of the CANDLE story (drug-response scoring, treatment-
// strategy queries, AMR surveillance lookups) is a stream of small latency-
// bounded queries, not an epoch over a dataset.  This header defines the
// request/response types the engine trades in, and deterministic arrival-
// trace generators for benchmarking it open-loop: arrivals are generated
// ahead of time from a seed (Poisson for steady load, a two-state MMPP for
// bursty load), so a load sweep is replayable bit-for-bit — the same
// determinism contract the training-side fault schedules follow.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/tensor.hpp"

namespace candle::serve {

/// One inference query: a flattened feature vector plus a latency budget.
struct Request {
  std::uint64_t id = 0;
  /// Per-sample features, flattened to the model's input sample numel.
  std::vector<float> input;
  /// Relative latency budget from submit time.  The admission controller
  /// sheds the request on arrival when its predicted sojourn already
  /// exceeds this budget; infinity = never shed on deadline.
  double deadline_s = std::numeric_limits<double>::infinity();
};

/// Why a request left the engine.
enum class Outcome {
  Completed,      ///< served; `output` holds the model prediction
  ShedQueueFull,  ///< rejected on arrival: bounded queue at capacity
  ShedDeadline,   ///< rejected on arrival: predicted wait exceeds deadline
  ShedShutdown,   ///< rejected: submitted after drain began
  ShedBrownout,   ///< rejected on arrival by brownout-tightened admission
                  ///< (shrunken effective queue / default-priced deadline)
  Failed,         ///< admitted but lost: its batch was abandoned by crashed
                  ///< workers more times than the retry budget allows
};

const char* outcome_name(Outcome o);

/// The engine's answer.  Shed requests resolve immediately with their shed
/// outcome and an empty output, so overload degrades to explicit rejections
/// the client observes, never to unbounded latency.
struct Response {
  std::uint64_t id = 0;
  Outcome outcome = Outcome::ShedShutdown;
  std::vector<float> output;
  double queue_wait_s = 0.0;  ///< submit -> a worker acquires it
  double latency_s = 0.0;     ///< submit -> response ready (admitted only)
  double service_s = 0.0;     ///< a worker acquires it -> response ready
  Index batch_rows = 0;       ///< rows in the batch it rode in
};

// ---- open-loop arrival traces -----------------------------------------------

/// A replayable arrival schedule: offsets (seconds, nondecreasing) from the
/// start of the run at which requests enter the engine.
struct ArrivalTrace {
  double duration_s = 0.0;
  std::vector<double> at_s;

  double offered_rps() const {
    return duration_s > 0.0
               ? static_cast<double>(at_s.size()) / duration_s
               : 0.0;
  }
};

/// Homogeneous Poisson arrivals at `rate_rps` over `duration_s`, i.i.d.
/// exponential gaps drawn from Pcg32(seed) — identical traces for identical
/// (rate, duration, seed).
ArrivalTrace poisson_trace(double rate_rps, double duration_s,
                           std::uint64_t seed);

/// Two-state Markov-modulated Poisson process: dwell times in the base and
/// burst states are exponential with the given means, and arrivals within a
/// state are Poisson at that state's rate.  Models the flash-crowd traffic
/// a clinical scoring service sees, with the same seeded determinism.
struct BurstyTraffic {
  double base_rps = 100.0;
  double burst_rps = 1000.0;
  double mean_base_dwell_s = 0.5;
  double mean_burst_dwell_s = 0.1;
};

ArrivalTrace mmpp_trace(const BurstyTraffic& traffic, double duration_s,
                        std::uint64_t seed);

}  // namespace candle::serve

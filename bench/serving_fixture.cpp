#include "serving_fixture.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>

#include "nn/plan.hpp"
#include "runtime/rng.hpp"

namespace candle::bench {

using Clock = std::chrono::steady_clock;

double measure_batch_service_s(const Model& m, Index max_batch, Index workers,
                               int reps) {
  const InferencePlan plan(m, max_batch);
  Shape shape = m.input_shape();
  shape.insert(shape.begin(), max_batch);
  Tensor batch(std::move(shape));
  Pcg32 rng(7);
  for (float& v : batch.flat()) v = static_cast<float>(rng.normal());
  std::vector<std::vector<double>> per_thread(
      static_cast<std::size_t>(workers));
  std::vector<std::thread> threads;
  for (Index w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      InferencePlan::Scratch scratch = plan.make_scratch();
      for (int r = 0; r < reps + 1; ++r) {  // first rep warms pools/arenas
        const auto t0 = Clock::now();
        (void)plan.run(batch, scratch);
        const auto t1 = Clock::now();
        if (r > 0) {
          per_thread[static_cast<std::size_t>(w)].push_back(
              std::chrono::duration<double>(t1 - t0).count());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<double> times;
  for (const auto& v : per_thread) times.insert(times.end(), v.begin(), v.end());
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

std::vector<double> replay_open_loop(serve::SupervisedEngine& engine,
                                     const serve::ArrivalTrace& trace,
                                     const std::vector<float>& input,
                                     double deadline_s) {
  std::vector<std::future<serve::Response>> futures;
  futures.reserve(trace.at_s.size());
  const auto start = Clock::now();
  for (std::size_t i = 0; i < trace.at_s.size(); ++i) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(trace.at_s[i]));
    // Sleep-based pacing: OS wakeup overshoot (tens of us) turns dense
    // stretches into small catch-up bursts, which preserves the offered
    // rate.  Spin-waiting instead would burn a core the calibration did
    // not account for and depress the measured capacity.
    if (due > Clock::now()) std::this_thread::sleep_until(due);
    serve::Request req;
    req.id = i;
    req.input = input;
    req.deadline_s = deadline_s;
    futures.push_back(engine.submit(std::move(req)));
  }
  engine.drain();
  std::vector<double> latencies;
  latencies.reserve(futures.size());
  for (auto& f : futures) {
    const serve::Response r = f.get();
    if (r.outcome == serve::Outcome::Completed) {
      latencies.push_back(r.latency_s);
    }
  }
  return latencies;
}

}  // namespace candle::bench

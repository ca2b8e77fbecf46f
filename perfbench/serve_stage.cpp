// Serving stage: an open-loop scoring client in front of SupervisedEngine.
//
// One generator thread (the client thread) walks a seeded Poisson schedule.  It
// sleeps until each request is due (never spins, so it does not take a core
// from the engine), fetches the request's features through FeatureService,
// and submits.  Latency is timed from the due time, so a late send or a slow
// fetch counts against the request, and a stall counts against every
// request queued behind it.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <thread>

#include "serve/supervisor.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace candle;

serve::SupervisedOptions engine_options() {
  serve::SupervisedOptions o;
  o.workers = kWorkers;
  o.batch.max_batch = kMaxBatch;
  o.batch.continuous = true;
  o.calibration_probe = true;
  return o;
}

data::SampleStoreOptions store_options(const WorkloadSpec& w,
                                       const Dataset& train) {
  data::SampleStoreOptions o;
  o.byte_budget = store_budget_bytes(w, train);
  o.fetch_threads = kFetchThreads;
  return o;
}

/// Poisson arrival offsets (seconds) over [0, duration_s).
std::vector<double> poisson_arrivals(double rps, double duration_s,
                                     SplitMix& rng) {
  std::vector<double> at;
  at.reserve(static_cast<std::size_t>(rps * duration_s * 1.2) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rps;
    if (t >= duration_s) return at;
    at.push_back(t);
  }
}

/// One request in flight, as the client saw it.
struct Sent {
  Index sample = 0;
  std::uint64_t request = 0, span = 0;
  Clock::time_point due, fetch_start, submit_start, submit_end;
  std::future<serve::Response> response;
};

// One offered rate in one round.  Short segments give many rounds, and the
// median over rounds sets aside the few a host stall lands in.
constexpr double kSegmentSeconds = 0.5;

}  // namespace

ServingFixture::ServingFixture(const WorkloadSpec& w, const Dataset& train,
                               std::uint64_t seed, const Model& model)
    : train_(train),
      source_(train, w.fetch_cost_s),
      store_(source_, store_options(w, train)),
      features_(store_) {
  const Index n = train.size();
  zipf_cdf_.resize(static_cast<std::size_t>(n));
  double acc = 0.0;
  for (Index r = 0; r < n; ++r) {
    acc += std::pow(static_cast<double>(r + 1), -kZipfExponent);
    zipf_cdf_[static_cast<std::size_t>(r)] = acc;
  }
  for (double& c : zipf_cdf_) c /= acc;
  // Popularity rank -> sample id: a seeded Fisher-Yates permutation, so the
  // hot set is scattered over the id space.
  rank_to_sample_.resize(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) rank_to_sample_[static_cast<std::size_t>(i)] = i;
  SplitMix perm(seed ^ 0x7a697066ULL);
  for (Index i = n - 1; i > 0; --i) {
    const auto j = static_cast<Index>(perm.next() % static_cast<std::uint64_t>(i + 1));
    std::swap(rank_to_sample_[static_cast<std::size_t>(i)],
              rank_to_sample_[static_cast<std::size_t>(j)]);
  }
  // Pre-fault as much of the hot set as the store holds.
  const std::size_t row_bytes =
      static_cast<std::size_t>(store_.x_elems() + store_.y_elems()) * 4;
  const auto hot = static_cast<std::size_t>(std::min<Index>(
      n, static_cast<Index>(store_budget_bytes(w, train) / row_bytes)));
  features_.warm(std::span<const Index>(rank_to_sample_.data(), hot));
  // Start, warm and drain one engine.
  serve::SupervisedEngine engine(model, engine_options());
  SplitMix rng(seed ^ 0x7761726dULL);
  std::vector<std::future<serve::Response>> warm;
  for (std::uint64_t i = 0; i < 128; ++i) {
    warm.push_back(engine.submit(
        features_.make_request(i, draw_sample(rng), kSloSeconds * 100)));
  }
  for (auto& f : warm) (void)f.get();
  engine.drain();
}

Index ServingFixture::draw_sample(SplitMix& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  const auto rank = std::min<std::size_t>(
      static_cast<std::size_t>(it - zipf_cdf_.begin()), zipf_cdf_.size() - 1);
  return rank_to_sample_[rank];
}

ServeOutcome ServingFixture::run(const Model& model, double budget_s,
                                 std::uint64_t seed, ClientThread& client,
                                 Tracer& tracer,
                                 bool alternate_tracing,
                                 const BreakSwitches& breaks) {
  ServeOutcome out;
  const bool tracing = tracer.enabled();
  const Index dim = features_.feature_dim();
  const data::SampleStoreStats store_before = store_.stats();
  const Index rounds = std::max<Index>(
      1, static_cast<Index>(std::lround(budget_s / (3 * kSegmentSeconds))));
  const double segment_s = budget_s / static_cast<double>(3 * rounds);
  std::vector<std::pair<Index, std::vector<float>>> outputs;
  std::uint64_t next_request = 1;

  for (Index round = 0; round < rounds; ++round) {
    const bool traced = tracing && !(alternate_tracing && round % 2 == 1);
    tracer.set_enabled(traced);
    for (int ri = 0; ri < 3; ++ri) {
      RateSamples& rs = out.rate[ri];
      SplitMix rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(
                                                       round * 3 + ri + 1));
      const std::vector<double> at =
          poisson_arrivals(kRates[ri].rps, segment_s, rng);
      std::vector<Sent> sent(at.size());
      for (Sent& s : sent) s.sample = draw_sample(rng);

      serve::SupervisedEngine engine(model, engine_options());
      client.run([&] {
        const auto t0 = Clock::now() + std::chrono::milliseconds(1);
        for (std::size_t i = 0; i < at.size(); ++i) {
          Sent& s = sent[i];
          s.due = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(at[i]));
          if (Clock::now() < s.due) std::this_thread::sleep_until(s.due);
          s.request = next_request++;
          s.span = tracer.begin();
          s.fetch_start = Clock::now();
          serve::Request req;
          req.id = s.request;
          req.input.resize(static_cast<std::size_t>(dim));
          features_.fetch_features(s.sample, req.input);
          s.submit_start = Clock::now();
          req.deadline_s = std::max(
              1e-6, kSloSeconds - seconds_between(s.due, s.submit_start));
          s.response = engine.submit(std::move(req));
          s.submit_end = Clock::now();
        }
      });

      std::vector<double> segment_latency;
      long long segment_good = 0;
      const long long completed_before = rs.completed;
      const long long shed_before = rs.shed;
      const long long failed_before = rs.engine_failed;
      for (Sent& s : sent) {
        serve::Response r = s.response.get();
        rs.gen_lag_ms.push_back(1e3 * seconds_between(s.due, s.fetch_start));
        rs.submit_us.push_back(1e6 * seconds_between(s.submit_start, s.submit_end));
        out.fetch_us.push_back(1e6 * seconds_between(s.fetch_start, s.submit_start));
        Clock::time_point done = s.submit_end;
        if (r.outcome == serve::Outcome::Completed) {
          done = s.submit_start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(r.latency_s));
          const double lat = seconds_between(s.due, done);
          segment_latency.push_back(1e3 * lat);
          rs.queue_wait_ms.push_back(1e3 * r.queue_wait_s);
          rs.service_ms.push_back(1e3 * r.service_s);
          ++rs.completed;
          if (lat <= kSloSeconds) {
            ++segment_good;
          } else {
            ++rs.late;
          }
          outputs.emplace_back(s.sample, std::move(r.output));
        } else if (r.outcome == serve::Outcome::Failed) {
          ++rs.engine_failed;
        } else {
          ++rs.shed;
        }
        if (traced) {
          tracer.record(s.span, "client.request", "client", s.due, done, 0,
                        s.request);
          tracer.record(0, "data.fetch_features", "data", s.fetch_start,
                        s.submit_start, s.span, s.request);
          tracer.record(0, "serve.submit", "serve", s.submit_start,
                        s.submit_end, s.span, s.request);
          if (done > s.submit_end) {
            tracer.record(0, "serve.resolve", "serve", s.submit_end, done,
                          s.span, s.request);
          }
        }
      }
      engine.drain();
      serve::EngineStats st = engine.stats();
      if (breaks.ledger) ++st.submitted;
      // The engine's ledger must close and agree with what the client saw.
      if (st.accounting_gap() != 0 || st.inflight_rows != 0 ||
          st.submitted != sent.size() ||
          st.completed != static_cast<std::uint64_t>(rs.completed - completed_before) ||
          st.shed_total() != static_cast<std::uint64_t>(rs.shed - shed_before) ||
          st.failed != static_cast<std::uint64_t>(rs.engine_failed - failed_before)) {
        ++out.ledger_violations;
      }
      rs.sent += static_cast<long long>(sent.size());
      rs.iterations += st.batches;
      rs.hedges += st.hedges_launched;
      rs.hedge_losses += st.hedge_losses;
      rs.recomputes += st.corruption_retries;
      rs.peak_queue_depth = std::max(rs.peak_queue_depth, st.peak_queue_depth);
      rs.p50_ms.push_back(quantile(segment_latency, 0.5));
      rs.p99_ms.push_back(quantile(segment_latency, 0.99));
      rs.goodput_rps.push_back(static_cast<double>(segment_good) / segment_s);
      (traced ? rs.traced_p50_ms : rs.untraced_p50_ms)
          .push_back(quantile(segment_latency, 0.5));
      ++rs.rounds;
    }
  }
  tracer.set_enabled(tracing);

  const data::SampleStoreStats store_after = store_.stats();
  out.store_hits = store_after.hits - store_before.hits;
  out.store_misses = store_after.misses - store_before.misses;

  // Every completed response must equal serial Model::predict on the same
  // sample's features, bit for bit.
  std::vector<Index> distinct;
  distinct.reserve(outputs.size());
  for (const auto& o : outputs) distinct.push_back(o.first);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  if (!distinct.empty()) {
    const Dataset rows = gather(train_, distinct);
    const Tensor ref = model.predict(rows.x);
    const Index width = ref.numel() / static_cast<Index>(distinct.size());
    if (breaks.serve_output) outputs.front().second.front() += 1.0f;
    for (const auto& [sample, y] : outputs) {
      const auto pos = static_cast<Index>(
          std::lower_bound(distinct.begin(), distinct.end(), sample) -
          distinct.begin());
      ++out.checked;
      if (static_cast<Index>(y.size()) != width ||
          std::memcmp(y.data(), ref.data() + pos * width,
                      static_cast<std::size_t>(width) * sizeof(float)) != 0) {
        ++out.wrong;
      }
    }
  }
  return out;
}

}  // namespace perfbench

// Tests for the benchmark-suite harness (src/bench): the shared Args
// parser, repeat statistics, the registry, the suite runner's determinism
// contract, the BENCH_suite.ci.json schema round trip, the variance-
// envelope regression gate, the suite_main exit-code contract, and the
// anchored scaling sweeps the suite's scaling adapter rests on.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench/args.hpp"
#include "bench/gate.hpp"
#include "bench/registry.hpp"
#include "bench/schema.hpp"
#include "bench/stats.hpp"
#include "bench/suite.hpp"
#include "hpcsim/machine.hpp"
#include "hpcsim/perfmodel.hpp"
#include "runtime/error.hpp"

namespace {

using namespace candle;
using namespace candle::bench;

// ---- Args -------------------------------------------------------------------

bool parse(Args& args, std::initializer_list<const char*> argv_tail) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), argv_tail.begin(), argv_tail.end());
  return args.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgs, FlagAndOptionRoundTrip) {
  Args args;
  args.flag("smoke").option("json", "default.json");
  ASSERT_TRUE(parse(args, {"--smoke", "--json=out.json"}));
  EXPECT_TRUE(args.has("smoke"));
  EXPECT_TRUE(args.has("json"));
  EXPECT_EQ(args.get("json"), "out.json");
}

TEST(BenchArgs, AbsentOptionUsesDefault) {
  Args args;
  args.flag("smoke").option("json", "default.json");
  ASSERT_TRUE(parse(args, {}));
  EXPECT_FALSE(args.has("smoke"));
  EXPECT_FALSE(args.has("json"));
  EXPECT_EQ(args.get("json"), "default.json");
}

TEST(BenchArgs, UnknownFlagIsError) {
  Args args;
  args.flag("smoke");
  EXPECT_FALSE(parse(args, {"--bogus"}));
  EXPECT_NE(args.error().find("--bogus"), std::string::npos);
}

TEST(BenchArgs, MissingOptionValueIsError) {
  Args args;
  args.option("json", "d.json");
  EXPECT_FALSE(parse(args, {"--json"}));
  EXPECT_NE(args.error().find("--json"), std::string::npos);
  Args args2;
  args2.option("json", "d.json");
  EXPECT_FALSE(parse(args2, {"--json="}));
}

TEST(BenchArgs, RepeatedFlagIsError) {
  Args args;
  args.flag("smoke");
  EXPECT_FALSE(parse(args, {"--smoke", "--smoke"}));
  EXPECT_NE(args.error().find("twice"), std::string::npos);
}

TEST(BenchArgs, ValueOnBooleanFlagIsError) {
  Args args;
  args.flag("smoke");
  EXPECT_FALSE(parse(args, {"--smoke=yes"}));
}

TEST(BenchArgs, SoftOptionBareAndValued) {
  Args bare;
  bare.soft_option("json", "BENCH.json");
  ASSERT_TRUE(parse(bare, {"--json"}));
  EXPECT_TRUE(bare.has("json"));
  EXPECT_EQ(bare.get("json"), "BENCH.json");

  Args valued;
  valued.soft_option("json", "BENCH.json");
  ASSERT_TRUE(parse(valued, {"--json=custom.json"}));
  EXPECT_EQ(valued.get("json"), "custom.json");

  Args absent;
  absent.soft_option("json", "BENCH.json");
  ASSERT_TRUE(parse(absent, {}));
  EXPECT_FALSE(absent.has("json"));
}

TEST(BenchArgs, AllowUnknownCollectsPassthrough) {
  Args args;
  args.option("json", "d.json").allow_unknown();
  ASSERT_TRUE(parse(args, {"--benchmark_filter=GEMM", "--json=x.json",
                           "positional"}));
  EXPECT_EQ(args.get("json"), "x.json");
  ASSERT_EQ(args.unparsed().size(), 2u);
  EXPECT_EQ(args.unparsed()[0], "--benchmark_filter=GEMM");
  EXPECT_EQ(args.unparsed()[1], "positional");
}

// ---- RepeatStats ------------------------------------------------------------

TEST(BenchStats, SummarizeBasics) {
  const RepeatStats s = summarize({2.0, 4.0, 6.0});
  EXPECT_EQ(s.n, 3);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);  // sample stddev of {2,4,6}
  EXPECT_DOUBLE_EQ(s.rel_spread, 1.0);
}

TEST(BenchStats, ZeroVarianceAndEmpty) {
  const RepeatStats z = summarize({5.0, 5.0, 5.0});
  EXPECT_DOUBLE_EQ(z.stddev, 0.0);
  EXPECT_DOUBLE_EQ(z.rel_spread, 0.0);
  const RepeatStats e = summarize({});
  EXPECT_EQ(e.n, 0);
  EXPECT_DOUBLE_EQ(e.mean, 0.0);
}

TEST(BenchStats, NearestRankIsTheCeilRankSample) {
  const std::vector<double> v{5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_EQ(nearest_rank(v, 0.0), 1.0);  // rank clamps up to 1
  EXPECT_EQ(nearest_rank(v, 0.5), 3.0);  // ceil(2.5) = 3rd smallest
  EXPECT_EQ(nearest_rank(v, 0.8), 4.0);  // ceil(4.0) = 4th, no interpolation
  EXPECT_EQ(nearest_rank(v, 1.0), 5.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_EQ(nearest_rank(hundred, 0.99), 99.0);  // p99 is a sample, not max
  EXPECT_EQ(nearest_rank({}, 0.99), 0.0);
  EXPECT_THROW(nearest_rank(v, 1.5), Error);
}

// ---- Registry ---------------------------------------------------------------

std::unique_ptr<Benchmark> toy(const std::string& name, Direction dir,
                               std::function<double(const RunContext&)> f) {
  return make_benchmark({name, "metric_" + name, "u", dir},
                        [f = std::move(f)](const RunContext& ctx) {
                          RunResult r;
                          r.metric = f(ctx);
                          return r;
                        });
}

TEST(BenchRegistry, RoundTripAndOrder) {
  Registry reg;
  reg.add(toy("alpha", Direction::LowerIsBetter,
              [](const RunContext&) { return 1.0; }));
  reg.add(toy("beta", Direction::HigherIsBetter,
              [](const RunContext&) { return 2.0; }));
  EXPECT_EQ(reg.size(), 2u);
  const auto names = reg.names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "beta");
  EXPECT_EQ(reg.benchmarks()[1]->info().metric, "metric_beta");
}

TEST(BenchRegistry, RejectsDuplicateAndEmptyNames) {
  Registry reg;
  reg.add(toy("alpha", Direction::LowerIsBetter,
              [](const RunContext&) { return 1.0; }));
  EXPECT_THROW(reg.add(toy("alpha", Direction::LowerIsBetter,
                           [](const RunContext&) { return 1.0; })),
               Error);
  EXPECT_THROW(reg.add(toy("", Direction::LowerIsBetter,
                           [](const RunContext&) { return 1.0; })),
               Error);
}

// ---- run_suite + determinism contract ---------------------------------------

Registry deterministic_registry() {
  Registry reg;
  reg.add(toy("seeded", Direction::LowerIsBetter, [](const RunContext& ctx) {
    return 1.0 + static_cast<double>(ctx.seed % 17) * 0.25;
  }));
  reg.add(make_benchmark(
      {"pinned", "pin_metric", "x", Direction::HigherIsBetter},
      [](const RunContext& ctx) {
        RunResult r;
        r.metric = 10.0 + static_cast<double>(ctx.rep);
        r.model_pin_ratio = 1.01;
        r.aux["extra"] = static_cast<double>(ctx.seed);
        return r;
      }));
  return reg;
}

TEST(BenchSuite, SeededRepeatScheduleAndStats) {
  Registry reg = deterministic_registry();
  SuiteOptions opt;
  opt.repeats = 3;
  opt.base_seed = 100;
  const SuiteReport rep = run_suite(reg, opt);
  ASSERT_EQ(rep.benchmarks.size(), 2u);
  const BenchmarkReport& b = rep.benchmarks[0];
  ASSERT_EQ(b.seeds.size(), 3u);
  EXPECT_EQ(b.seeds[0], 100u);
  EXPECT_EQ(b.seeds[2], 102u);
  ASSERT_EQ(b.values.size(), 3u);
  EXPECT_DOUBLE_EQ(b.values[0], 1.0 + (100 % 17) * 0.25);
  EXPECT_EQ(b.stats.n, 3);
  EXPECT_DOUBLE_EQ(b.stats.mean,
                   (b.values[0] + b.values[1] + b.values[2]) / 3.0);
}

TEST(BenchSuite, SameSeedsBitIdenticalJsonModuloWallclock) {
  SuiteOptions opt;
  opt.repeats = 4;
  opt.base_seed = 8061;
  Registry a = deterministic_registry();
  Registry b = deterministic_registry();
  const std::string ja = to_json(run_suite(a, opt));
  const std::string jb = to_json(run_suite(b, opt));
  EXPECT_NE(ja, jb);  // wall-clock fields differ between runs...
  EXPECT_EQ(strip_wallclock_fields(ja), strip_wallclock_fields(jb));

  // ...and a different base seed changes the payload, so the strip is not
  // simply deleting everything that matters.
  Registry c = deterministic_registry();
  opt.base_seed = 8999;
  const std::string jc = to_json(run_suite(c, opt));
  EXPECT_NE(strip_wallclock_fields(ja), strip_wallclock_fields(jc));
}

TEST(BenchSuite, FilterSelectsSubset) {
  Registry reg = deterministic_registry();
  SuiteOptions opt;
  opt.repeats = 2;
  opt.filter = "pinned";
  const SuiteReport rep = run_suite(reg, opt);
  ASSERT_EQ(rep.benchmarks.size(), 1u);
  EXPECT_EQ(rep.benchmarks[0].name, "pinned");
  EXPECT_DOUBLE_EQ(rep.benchmarks[0].model_pin_ratio, 1.01);
}

// ---- schema: serialize / parse / validate -----------------------------------

TEST(BenchSchema, WriteParseRoundTrip) {
  Registry reg = deterministic_registry();
  SuiteOptions opt;
  opt.repeats = 3;
  opt.base_seed = 42;
  opt.smoke = true;
  const SuiteReport rep = run_suite(reg, opt);
  const SuiteReport back = parse_suite_json(to_json(rep));
  EXPECT_EQ(back.schema, kSuiteSchema);
  EXPECT_EQ(back.repeats, 3);
  EXPECT_EQ(back.base_seed, 42u);
  EXPECT_TRUE(back.smoke);
  ASSERT_EQ(back.benchmarks.size(), rep.benchmarks.size());
  for (std::size_t i = 0; i < back.benchmarks.size(); ++i) {
    const BenchmarkReport& x = back.benchmarks[i];
    const BenchmarkReport& y = rep.benchmarks[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.metric, y.metric);
    EXPECT_EQ(x.direction, y.direction);
    EXPECT_EQ(x.seeds, y.seeds);
    EXPECT_EQ(x.values, y.values);  // shortest-round-trip doubles: exact
    EXPECT_DOUBLE_EQ(x.stats.mean, y.stats.mean);
    EXPECT_DOUBLE_EQ(x.model_pin_ratio, y.model_pin_ratio);
    EXPECT_EQ(x.perf_gate_active, y.perf_gate_active);
    EXPECT_EQ(x.aux, y.aux);
  }
  EXPECT_TRUE(validate(back).empty()) << validate(back);
}

TEST(BenchSchema, MalformedJsonThrows) {
  EXPECT_THROW(parse_suite_json("not json at all"), Error);
  EXPECT_THROW(parse_suite_json("{\"schema\": \"candle-bench-suite/v1\""),
               Error);
  EXPECT_THROW(parse_suite_json("{}"), Error);
}

TEST(BenchSchema, ValidateCatchesCorruption) {
  Registry reg = deterministic_registry();
  SuiteOptions opt;
  opt.repeats = 2;
  const SuiteReport good = run_suite(reg, opt);
  ASSERT_TRUE(validate(good).empty());

  SuiteReport wrong_schema = good;
  wrong_schema.schema = "candle-bench-suite/v999";
  EXPECT_FALSE(validate(wrong_schema).empty());

  SuiteReport short_seeds = good;
  short_seeds.benchmarks[0].seeds.pop_back();
  EXPECT_FALSE(validate(short_seeds).empty());

  SuiteReport cooked_stats = good;
  cooked_stats.benchmarks[0].stats.mean += 1.0;
  EXPECT_FALSE(validate(cooked_stats).empty());

  SuiteReport dup = good;
  dup.benchmarks.push_back(dup.benchmarks[0]);
  EXPECT_FALSE(validate(dup).empty());

  SuiteReport nan_value = good;
  nan_value.benchmarks[0].values[0] = std::nan("");
  nan_value.benchmarks[0].stats =
      summarize(nan_value.benchmarks[0].values);
  EXPECT_FALSE(validate(nan_value).empty());

  SuiteReport empty = good;
  empty.benchmarks.clear();
  EXPECT_FALSE(validate(empty).empty());
}

// ---- regression gate math ---------------------------------------------------

SuiteReport one_bench_report(const std::string& name, Direction dir,
                             std::vector<double> values,
                             bool gate_active = true) {
  SuiteReport rep;
  rep.repeats = static_cast<int>(values.size());
  rep.base_seed = 1;
  BenchmarkReport b;
  b.name = name;
  b.metric = "m";
  b.unit = "u";
  b.direction = dir;
  for (std::size_t i = 0; i < values.size(); ++i) b.seeds.push_back(1 + i);
  b.values = values;
  b.stats = summarize(values);
  b.perf_gate_active = gate_active;
  if (!gate_active) b.honesty_note = "core-starved host";
  rep.benchmarks.push_back(std::move(b));
  return rep;
}

TEST(BenchGate, SelfComparisonPasses) {
  const SuiteReport r =
      one_bench_report("a", Direction::LowerIsBetter, {1.0, 1.1, 0.9});
  const GateReport g = gate_against_baseline(r, r);
  ASSERT_EQ(g.findings.size(), 1u);
  EXPECT_EQ(g.findings[0].status, GateStatus::Ok);
  EXPECT_TRUE(g.pass());
}

TEST(BenchGate, RegressionOutsideEnvelopeFails) {
  // rel_spread = 0.2/1.0 = 0.2 -> allowed = 2 * 0.2 = 0.4; +60% regresses.
  const SuiteReport base =
      one_bench_report("a", Direction::LowerIsBetter, {0.9, 1.0, 1.1});
  const SuiteReport cur =
      one_bench_report("a", Direction::LowerIsBetter, {1.5, 1.6, 1.7});
  const GateReport g = gate_against_baseline(cur, base);
  ASSERT_EQ(g.findings.size(), 1u);
  EXPECT_EQ(g.findings[0].status, GateStatus::Regressed);
  EXPECT_GT(g.findings[0].rel_change, g.findings[0].allowed);
  EXPECT_FALSE(g.pass());
}

TEST(BenchGate, ChangeInsideEnvelopePasses) {
  // Same spread, +30% change < 40% envelope.
  const SuiteReport base =
      one_bench_report("a", Direction::LowerIsBetter, {0.9, 1.0, 1.1});
  const SuiteReport cur =
      one_bench_report("a", Direction::LowerIsBetter, {1.2, 1.3, 1.4});
  const GateReport g = gate_against_baseline(cur, base);
  EXPECT_EQ(g.findings[0].status, GateStatus::Ok);
  EXPECT_TRUE(g.pass());
}

TEST(BenchGate, ZeroVarianceUsesFloorMargin) {
  const SuiteReport base =
      one_bench_report("a", Direction::LowerIsBetter, {1.0, 1.0, 1.0});
  // +4% sits under the 5% floor even with zero measured variance...
  const SuiteReport small =
      one_bench_report("a", Direction::LowerIsBetter, {1.04, 1.04, 1.04});
  EXPECT_TRUE(gate_against_baseline(small, base).pass());
  // ...but +8% does not.
  const SuiteReport big =
      one_bench_report("a", Direction::LowerIsBetter, {1.08, 1.08, 1.08});
  const GateReport g = gate_against_baseline(big, base);
  EXPECT_EQ(g.findings[0].status, GateStatus::Regressed);
  EXPECT_DOUBLE_EQ(g.findings[0].allowed, 0.05);
}

TEST(BenchGate, DirectionNormalizesSign) {
  // Higher-is-better: a DROP is the regression.
  const SuiteReport base =
      one_bench_report("a", Direction::HigherIsBetter, {100.0, 100.0, 100.0});
  const SuiteReport drop =
      one_bench_report("a", Direction::HigherIsBetter, {80.0, 80.0, 80.0});
  const SuiteReport rise =
      one_bench_report("a", Direction::HigherIsBetter, {120.0, 120.0, 120.0});
  EXPECT_EQ(gate_against_baseline(drop, base).findings[0].status,
            GateStatus::Regressed);
  EXPECT_EQ(gate_against_baseline(rise, base).findings[0].status,
            GateStatus::Improved);
  EXPECT_TRUE(gate_against_baseline(rise, base).pass());
}

TEST(BenchGate, MissingBenchmarkFailsNewPasses) {
  const SuiteReport base =
      one_bench_report("old", Direction::LowerIsBetter, {1.0, 1.0});
  const SuiteReport cur =
      one_bench_report("new", Direction::LowerIsBetter, {1.0, 1.0});
  const GateReport g = gate_against_baseline(cur, base);
  ASSERT_EQ(g.findings.size(), 2u);
  EXPECT_EQ(g.findings[0].status, GateStatus::Missing);
  EXPECT_EQ(g.findings[1].status, GateStatus::New);
  EXPECT_EQ(g.missing, 1);
  EXPECT_FALSE(g.pass());
}

TEST(BenchGate, HonestyFlagMakesFindingInformational) {
  // A 10x regression on a gate-inactive benchmark must not fail the gate.
  const SuiteReport base =
      one_bench_report("a", Direction::LowerIsBetter, {1.0, 1.0}, false);
  const SuiteReport cur =
      one_bench_report("a", Direction::LowerIsBetter, {10.0, 10.0}, false);
  const GateReport g = gate_against_baseline(cur, base);
  EXPECT_EQ(g.findings[0].status, GateStatus::Informational);
  EXPECT_TRUE(g.pass());
}

TEST(BenchGate, MetricRedefinitionTreatedAsNew) {
  SuiteReport base =
      one_bench_report("a", Direction::LowerIsBetter, {1.0, 1.0});
  SuiteReport cur =
      one_bench_report("a", Direction::HigherIsBetter, {1.0, 1.0});
  const GateReport g = gate_against_baseline(cur, base);
  EXPECT_EQ(g.findings[0].status, GateStatus::New);
  EXPECT_TRUE(g.pass());
}

// ---- suite_main exit-code contract ------------------------------------------

struct MainResult {
  int exit_code = 0;
  std::string out;
  std::string err;
};

MainResult drive(std::initializer_list<std::string> argv_tail) {
  Registry reg = deterministic_registry();
  std::vector<std::string> storage{"bench_suite"};
  storage.insert(storage.end(), argv_tail.begin(), argv_tail.end());
  std::vector<const char*> argv;
  argv.reserve(storage.size());
  for (const std::string& s : storage) argv.push_back(s.c_str());
  std::ostringstream out, err;
  MainResult r;
  r.exit_code = suite_main(reg, static_cast<int>(argv.size()), argv.data(),
                           out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

class SuiteMainTest : public ::testing::Test {
 protected:
  std::string path(const std::string& leaf) const {
    return (std::filesystem::temp_directory_path() / leaf).string();
  }
  void TearDown() override {
    for (const std::string& p : cleanup_) std::filesystem::remove(p);
  }
  std::vector<std::string> cleanup_;
};

TEST_F(SuiteMainTest, SelfcheckPassesAndBaselineAgainstSelfExitsZero) {
  const std::string json = path("bench_harness_a.json");
  cleanup_.push_back(json);
  const MainResult first =
      drive({"--smoke", "--selfcheck", "--json=" + json});
  EXPECT_EQ(first.exit_code, kExitOk) << first.err;
  EXPECT_NE(first.out.find("self-check"), std::string::npos);

  const MainResult second =
      drive({"--smoke", "--json=" + json, "--baseline=" + json});
  EXPECT_EQ(second.exit_code, kExitOk) << second.err;
  EXPECT_NE(second.out.find("gate: PASS"), std::string::npos);
}

TEST_F(SuiteMainTest, DegradedBaselineExitsNonzero) {
  const std::string json = path("bench_harness_b.json");
  const std::string baseline = path("bench_harness_b_base.json");
  cleanup_.push_back(json);
  cleanup_.push_back(baseline);
  ASSERT_EQ(drive({"--smoke", "--json=" + json}).exit_code, kExitOk);

  // Synthetically improve the baseline far beyond the envelope: the current
  // run then reads as a regression and the gate must fail the build.
  SuiteReport base = parse_suite_json([&] {
    std::ifstream in(json);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }());
  for (BenchmarkReport& b : base.benchmarks) {
    for (double& v : b.values) {
      v = b.direction == Direction::LowerIsBetter ? v * 0.5 : v * 2.0;
    }
    b.stats = summarize(b.values);
  }
  {
    std::ofstream out(baseline);
    write_json(base, out);
  }
  const MainResult r =
      drive({"--smoke", "--json=" + json, "--baseline=" + baseline});
  EXPECT_EQ(r.exit_code, kExitRegression);
  EXPECT_NE(r.out.find("REGRESSED"), std::string::npos);
}

TEST_F(SuiteMainTest, MissingBaselineFileIsFirstRunPass) {
  const std::string json = path("bench_harness_c.json");
  cleanup_.push_back(json);
  const MainResult r = drive(
      {"--smoke", "--json=" + json, "--baseline=" + path("nope_missing.json")});
  EXPECT_EQ(r.exit_code, kExitOk);
  EXPECT_NE(r.out.find("no baseline"), std::string::npos);
}

TEST_F(SuiteMainTest, MalformedBaselineIsUsageError) {
  const std::string json = path("bench_harness_d.json");
  const std::string baseline = path("bench_harness_d_base.json");
  cleanup_.push_back(json);
  cleanup_.push_back(baseline);
  {
    std::ofstream out(baseline);
    out << "{ definitely not a suite artifact ]";
  }
  const MainResult r =
      drive({"--smoke", "--json=" + json, "--baseline=" + baseline});
  EXPECT_EQ(r.exit_code, kExitUsage);
}

TEST_F(SuiteMainTest, UsageErrors) {
  EXPECT_EQ(drive({"--bogus"}).exit_code, kExitUsage);
  EXPECT_EQ(drive({"--seeds=abc"}).exit_code, kExitUsage);
  EXPECT_EQ(drive({"--seeds=0"}).exit_code, kExitUsage);
  const std::string json = path("bench_harness_e.json");
  cleanup_.push_back(json);
  EXPECT_EQ(drive({"--filter=no_such_bench", "--json=" + json}).exit_code,
            kExitUsage);
  EXPECT_EQ(drive({"--json=/nonexistent-dir/x/y.json"}).exit_code,
            kExitUsage);
}

TEST_F(SuiteMainTest, SeedsFlagControlsRepeatCount) {
  const std::string json = path("bench_harness_f.json");
  cleanup_.push_back(json);
  ASSERT_EQ(drive({"--smoke", "--seeds=5", "--seed=7", "--json=" + json})
                .exit_code,
            kExitOk);
  std::ifstream in(json);
  std::ostringstream buf;
  buf << in.rdbuf();
  const SuiteReport rep = parse_suite_json(buf.str());
  EXPECT_EQ(rep.repeats, 5);
  EXPECT_EQ(rep.base_seed, 7u);
  ASSERT_FALSE(rep.benchmarks.empty());
  EXPECT_EQ(rep.benchmarks[0].seeds.size(), 5u);
  EXPECT_EQ(rep.benchmarks[0].seeds[0], 7u);
}

// ---- anchored scaling sweeps ------------------------------------------------

TEST(AnchoredScaling, AnchorRowReproducesMeasurementShapeInvariant) {
  const auto node = hpcsim::summit_node();
  const auto fabric = hpcsim::fat_tree_fabric();
  hpcsim::TrainingWorkload w;
  w.name = "toy";
  w.flops_per_sample = 2e9;
  w.parameters = 5e7;
  w.bytes_per_sample = 6e4;
  w.activation_bytes_per_sample = 4e5;
  const std::vector<hpcsim::Index> counts = {1, 4, 16, 64};
  const double measured = 0.125;

  const auto plain =
      hpcsim::strong_scaling(node, fabric, w, 4096, counts);
  const auto anchored = hpcsim::anchored_strong_scaling(
      node, fabric, w, 4096, counts, measured);
  ASSERT_EQ(anchored.points.size(), plain.size());
  EXPECT_NEAR(anchored.anchor_ratio, measured / plain.front().step_s, 1e-12);
  EXPECT_NEAR(anchored.points.front().step_s, measured, 1e-12);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    // Quotient shape is anchor-invariant; absolutes scale by the ratio.
    EXPECT_NEAR(anchored.points[i].speedup, plain[i].speedup, 1e-9);
    EXPECT_NEAR(anchored.points[i].efficiency, plain[i].efficiency, 1e-9);
    EXPECT_NEAR(anchored.points[i].comm_fraction, plain[i].comm_fraction,
                1e-9);
    EXPECT_NEAR(anchored.points[i].step_s,
                plain[i].step_s * anchored.anchor_ratio, 1e-12);
    EXPECT_NEAR(anchored.points[i].samples_per_s,
                plain[i].samples_per_s / anchored.anchor_ratio, 1e-9);
  }

  const auto weak = hpcsim::anchored_weak_scaling(node, fabric, w, 256,
                                                  counts, measured);
  EXPECT_NEAR(weak.points.front().step_s, measured, 1e-12);
  EXPECT_THROW(hpcsim::anchored_strong_scaling(node, fabric, w, 4096, counts,
                                               0.0),
               Error);
}

}  // namespace

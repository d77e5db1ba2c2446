// Tests for the run observatory: metrics registry semantics, the engine
// probe events (via real runs), trace sinks (JSONL + Chrome trace-event
// export), and the machine-readable report schema.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "channel/del_channel.hpp"
#include "channel/dup_channel.hpp"
#include "channel/schedulers.hpp"
#include "fault/plan.hpp"
#include "net/trace_sinks.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/sinks.hpp"
#include "stp/runner.hpp"
#include "stp/soak.hpp"
#include "util/expect.hpp"

namespace stpx::obs {
namespace {

stp::SystemSpec repfree_dup_spec(int m) {
  stp::SystemSpec spec;
  spec.protocols = [m] { return proto::make_repfree_dup(m); };
  spec.channel = [](std::uint64_t) {
    return std::make_unique<channel::DupChannel>();
  };
  spec.scheduler = [](std::uint64_t seed) {
    return std::make_unique<channel::FairRandomScheduler>(seed);
  };
  spec.engine.max_steps = 300000;
  return spec;
}

stp::SystemSpec repfree_del_spec(int m) {
  stp::SystemSpec spec;
  spec.protocols = [m] { return proto::make_repfree_del(m); };
  spec.channel = [](std::uint64_t seed) {
    return std::make_unique<channel::DelChannel>(0.0, seed);
  };
  spec.scheduler = [](std::uint64_t seed) {
    return std::make_unique<channel::FairRandomScheduler>(seed);
  };
  spec.engine.max_steps = 300000;
  return spec;
}

seq::Sequence iota(int n) {
  seq::Sequence x(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) x[static_cast<std::size_t>(i)] = i;
  return x;
}

// --- instruments --------------------------------------------------------

TEST(Metrics, CounterAndGauge) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);

  Gauge g;
  g.add(3);
  g.add(-5);
  EXPECT_EQ(g.value(), -2);
  EXPECT_EQ(g.max(), 3);  // high-water survives the drop
}

TEST(Metrics, HistogramBucketsAndQuantiles) {
  Histogram h({1, 2, 4, 8});  // + overflow
  for (std::uint64_t s : {1u, 1u, 2u, 3u, 5u, 20u}) h.observe(s);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 32u);
  EXPECT_EQ(h.max_seen(), 20u);
  EXPECT_DOUBLE_EQ(h.mean(), 32.0 / 6.0);
  // Quantiles report bucket upper bounds; the top quantile past the last
  // bound reports the exact max.
  EXPECT_EQ(h.quantile(0.5), 2u);
  EXPECT_EQ(h.quantile(1.0), 20u);
  EXPECT_EQ(h.quantile(0.0), 1u);
}

TEST(Metrics, LogLinearQuantileReadsAtMostOneSixteenthHigh) {
  const auto bounds = log_linear_bounds(24);
  const auto p50_of = [&bounds](std::uint64_t v) {
    Histogram h(bounds);
    h.observe(v);
    return h.quantile(0.5);
  };
  for (std::uint64_t v = 1; v <= (std::uint64_t{1} << 16); ++v) {
    const std::uint64_t q = p50_of(v);
    ASSERT_GE(q, v);
    ASSERT_LE(q, v + v / 16) << "v = " << v;
  }
  for (const std::uint64_t edge : bounds) {
    if (edge <= (std::uint64_t{1} << 16)) continue;
    for (const std::uint64_t v : {edge, edge + 1}) {
      const std::uint64_t q = p50_of(v);
      ASSERT_GE(q, v);
      ASSERT_LE(q, v + v / 16) << "v = " << v;
    }
  }
}

TEST(Metrics, HistogramMergeEqualsObservingTheUnion) {
  const std::vector<std::uint64_t> a_samples = {0, 1, 17, 250, 1402, 9000};
  const std::vector<std::uint64_t> b_samples = {3, 17, 2048, 70000, 1u << 30};
  Histogram a(log_linear_bounds(24));
  Histogram b(log_linear_bounds(24));
  Histogram all(log_linear_bounds(24));
  for (const std::uint64_t v : a_samples) a.observe(v);
  for (const std::uint64_t v : b_samples) b.observe(v);
  for (const std::uint64_t v : a_samples) all.observe(v);
  for (const std::uint64_t v : b_samples) all.observe(v);
  a.merge(b);
  EXPECT_EQ(a.bucket_counts(), all.bucket_counts());
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.sum(), all.sum());
  EXPECT_EQ(a.max_seen(), all.max_seen());
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a.quantile(q), all.quantile(q)) << "q = " << q;
  }
}

TEST(Metrics, HistogramMergeWithUnequalBoundsIsAContractError) {
  Histogram a(log_linear_bounds(24));
  EXPECT_THROW(a.merge(Histogram({1, 2, 4, 8})), ContractError);
  EXPECT_THROW(a.merge(Histogram(log_linear_bounds(23))), ContractError);
}

TEST(Metrics, RegistryIsStableAndSerializable) {
  MetricsRegistry reg;
  reg.counter("b").inc(2);
  reg.counter("a").inc();
  EXPECT_EQ(&reg.counter("a"), &reg.counter("a"));  // same instrument
  EXPECT_EQ(reg.counter_value("a"), 1u);
  EXPECT_EQ(reg.counter_value("missing"), 0u);
  reg.gauge("g").set(7);
  reg.histogram("h", {1, 2, 4}).observe(2);

  const std::string json = reg.to_json();
  EXPECT_TRUE(json_valid(json)) << json;
  // Lexicographic order => deterministic serialization.
  EXPECT_LT(json.find("\"a\""), json.find("\"b\""));
}

// --- engine hooks via real runs -----------------------------------------

TEST(MetricsProbe, CountsSendsDeliversWritesOnCleanRun) {
  MetricsRegistry reg;
  MetricsProbe probe(&reg);
  stp::SystemSpec spec = repfree_dup_spec(4);
  spec.engine.probe = &probe;

  const auto r = stp::run_one(spec, iota(4), 7);
  ASSERT_TRUE(r.completed);

  EXPECT_EQ(reg.counter_value("runs"), 1u);
  EXPECT_EQ(reg.counter_value("steps"), r.stats.steps);
  EXPECT_EQ(reg.counter_value("sends.sr"), r.stats.sent[0]);
  EXPECT_EQ(reg.counter_value("sends.rs"), r.stats.sent[1]);
  EXPECT_EQ(reg.counter_value("delivers.sr"), r.stats.delivered[0]);
  EXPECT_EQ(reg.counter_value("writes"), 4u);
  EXPECT_EQ(reg.counter_value("verdict.completed"), 1u);
  // The dup channel re-delivers: replays must be visible.
  EXPECT_GT(reg.counter_value("dup_replays.sr") +
                reg.counter_value("dup_replays.rs"),
            0u);
  const auto& lat = reg.histograms().at("write_latency");
  EXPECT_EQ(lat.count(), 4u);
  EXPECT_GT(reg.histograms().at("occupancy.sr").count(), 0u);
}

TEST(MetricsProbe, SweepAccumulatesAcrossTrialsAndFaults) {
  // The acceptance-criteria scenario: a repfree_dup sweep with a chaos plan
  // attached — counters, latency percentiles, and fault events all nonzero.
  MetricsRegistry reg;
  MetricsProbe probe(&reg);
  stp::SystemSpec spec = repfree_dup_spec(4);
  spec.engine.probe = &probe;
  // A dup burst is harmless on a dup channel (delivery never consumes), so
  // every trial still completes while the fault stream stays nonempty.
  const auto plan =
      fault::plan_from_text("dup @step 40 dir SR count 2 match *\n");
  const stp::SystemSpec chaotic = stp::with_chaos(spec, plan);

  const auto result = stp::sweep_input(chaotic, iota(4), {1, 2, 3});
  EXPECT_EQ(result.trials, 3u);

  EXPECT_EQ(reg.counter_value("runs"), 3u);
  EXPECT_GT(reg.counter_value("sends.sr"), 0u);
  EXPECT_GT(reg.counter_value("delivers.sr"), 0u);
  EXPECT_GT(reg.counter_value("delivers.rs"), 0u);
  EXPECT_EQ(reg.counter_value("writes"), 12u);
  EXPECT_EQ(reg.counter_value("faults.dup"), 3u);  // once per trial
  EXPECT_EQ(reg.histograms().at("write_latency").count(), 12u);
  EXPECT_GT(reg.histograms().at("write_latency").quantile(0.99), 0u);
  EXPECT_GT(reg.histograms().at("ack_rtt").count(), 0u);
}

TEST(MetricsProbe, RecordsStallAndCrashVerdicts) {
  // A blackout covering the whole run starves the send-once protocol; the
  // watchdog must convert that into a stall the probe can see.
  MetricsRegistry reg;
  MetricsProbe probe(&reg);
  stp::SystemSpec spec = repfree_dup_spec(2);
  spec.engine.max_steps = 50000;
  spec.engine.stall_window = 500;
  spec.engine.probe = &probe;
  const auto plan =
      fault::plan_from_text("blackout @step 0 dir SR len 100000 match *\n");
  const auto r = stp::run_one(stp::with_chaos(spec, plan), iota(2), 3);

  EXPECT_EQ(r.verdict, sim::RunVerdict::kStalled);
  EXPECT_EQ(reg.counter_value("stalls"), 1u);
  EXPECT_EQ(reg.counter_value("verdict.stalled"), 1u);
  EXPECT_EQ(reg.counter_value("faults.blackout"), 1u);

  // Crash faults land in the crash counters.
  MetricsRegistry reg2;
  MetricsProbe probe2(&reg2);
  stp::SystemSpec spec2 = repfree_del_spec(4);
  spec2.engine.probe = &probe2;
  const auto crash_plan = fault::plan_from_text("crash-sender @writes 1\n");
  stp::run_one(stp::with_chaos(spec2, crash_plan), iota(4), 11);
  EXPECT_EQ(reg2.counter_value("crashes.sender"), 1u);
}

TEST(MultiProbe, FansOutToEveryProbe) {
  MetricsRegistry a, b;
  MetricsProbe pa(&a), pb(&b);
  MultiProbe multi;
  multi.add(&pa);
  multi.add(&pb);
  multi.add(nullptr);  // ignored

  stp::SystemSpec spec = repfree_dup_spec(2);
  spec.engine.probe = &multi;
  const auto r = stp::run_one(spec, iota(2), 5);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(a.counter_value("steps"), b.counter_value("steps"));
  EXPECT_EQ(a.counter_value("steps"), r.stats.steps);
}

// --- sinks --------------------------------------------------------------

TEST(JsonValid, AcceptsAndRejects) {
  EXPECT_TRUE(json_valid("{}"));
  EXPECT_TRUE(json_valid("{\"a\":[1,2.5,-3e2,true,false,null,\"s\\n\"]}"));
  EXPECT_FALSE(json_valid(""));
  EXPECT_FALSE(json_valid("{"));
  EXPECT_FALSE(json_valid("{\"a\":1,}"));
  EXPECT_FALSE(json_valid("{} trailing"));
  EXPECT_FALSE(json_valid("{'a':1}"));
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(JsonlSink, EveryLineIsValidJson) {
  std::ostringstream out;
  net::JsonlSink sink(out);
  stp::SystemSpec spec = repfree_dup_spec(2);
  spec.engine.probe = &sink;
  const auto r = stp::run_one(spec, iota(2), 9);
  ASSERT_TRUE(r.completed);

  std::istringstream lines(out.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_TRUE(json_valid(line)) << "line " << n << ": " << line;
  }
  // At minimum: run-begin, one object per step, run-end.
  EXPECT_GT(n, r.stats.steps);
  EXPECT_NE(out.str().find("\"ev\":\"send\""), std::string::npos);
  EXPECT_NE(out.str().find("\"ev\":\"write\""), std::string::npos);
}

TEST(ChromeTraceSink, ExportIsValidAndBalanced) {
  net::ChromeTraceSink sink;
  MetricsRegistry reg;
  MetricsProbe metrics(&reg);
  MultiProbe multi({&metrics, &sink});

  // The retransmitting protocol rides out the blackout window, so the run
  // still completes with both fault spans on the trace.
  stp::SystemSpec spec = repfree_del_spec(3);
  spec.engine.max_steps = 50000;
  spec.engine.probe = &multi;
  const auto plan = fault::plan_from_text(
      "blackout @step 5 dir SR len 15 match *\n"
      "freeze @step 3 len 4\n");
  const auto r = stp::run_one(stp::with_chaos(spec, plan), iota(3), 13);
  ASSERT_TRUE(r.completed);

  const std::string json = sink.to_json();
  EXPECT_TRUE(json_valid(json)) << json.substr(0, 400);

  // Fault windows must export as balanced B/E pairs.
  auto count = [&json](const std::string& needle) {
    std::size_t n = 0, pos = 0;
    while ((pos = json.find(needle, pos)) != std::string::npos) {
      ++n;
      pos += needle.size();
    }
    return n;
  };
  const std::size_t begins = count("\"ph\":\"B\"");
  const std::size_t ends = count("\"ph\":\"E\"");
  EXPECT_EQ(begins, 2u);
  EXPECT_EQ(begins, ends);
  EXPECT_NE(json.find("\"blackout\""), std::string::npos);
  EXPECT_NE(json.find("\"freeze\""), std::string::npos);
  // Track metadata names the lanes.
  EXPECT_NE(json.find("\"sender\""), std::string::npos);
  EXPECT_NE(json.find("\"receiver\""), std::string::npos);

  sink.clear();
  EXPECT_EQ(sink.to_json().find("\"ph\":\"B\""), std::string::npos);
}

// --- reports ------------------------------------------------------------

TEST(Report, PercentilesNearestRank) {
  std::vector<std::uint64_t> s;
  for (std::uint64_t i = 1; i <= 100; ++i) s.push_back(i);
  const Percentiles p = percentiles_u64(s);
  EXPECT_EQ(p.count, 100u);
  EXPECT_DOUBLE_EQ(p.p50, 50.0);
  EXPECT_DOUBLE_EQ(p.p90, 90.0);
  EXPECT_DOUBLE_EQ(p.p99, 99.0);
  EXPECT_EQ(percentiles_u64({}).count, 0u);
}

TEST(Report, RunReportFromRun) {
  stp::SystemSpec spec = repfree_dup_spec(3);
  const auto r = stp::run_one(spec, iota(3), 21);
  ASSERT_TRUE(r.completed);
  const RunReport rep = make_run_report("unit", r);
  EXPECT_EQ(rep.verdict, sim::RunVerdict::kCompleted);
  EXPECT_EQ(rep.items_written, 3u);
  EXPECT_EQ(rep.steps, r.stats.steps);
  EXPECT_EQ(rep.write_latency.count, 3u);
  EXPECT_TRUE(json_valid(rep.to_json())) << rep.to_json();

  const auto lats = write_latencies_of(r.stats);
  ASSERT_EQ(lats.size(), 3u);
  EXPECT_EQ(lats[0], r.stats.write_step[0]);
  EXPECT_EQ(lats[1], r.stats.write_step[1] - r.stats.write_step[0]);
}

TEST(Report, SweepReportSchemaAndVerdictSplit) {
  // A healthy sweep plus one budget-starved sweep: the report must keep the
  // stalled / budget-exhausted split visible.
  const auto good = stp::sweep_input(repfree_dup_spec(3), iota(3), {1, 2});

  stp::SystemSpec starved = repfree_dup_spec(3);
  starved.engine.max_steps = 4;  // cannot finish
  const auto bad = stp::sweep_input(starved, iota(3), {1});
  EXPECT_EQ(bad.exhausted, 1u);
  EXPECT_EQ(bad.stalled, 0u);
  ASSERT_EQ(bad.failures.size(), 1u);
  EXPECT_EQ(bad.failures[0].verdict, sim::RunVerdict::kBudgetExhausted);
  EXPECT_NE(bad.failures[0].detail.find("budget-exhausted"),
            std::string::npos);

  stp::SweepResult merged = good;
  merged.merge(bad);
  SweepReport rep = stp::report_of("unit_sweep", merged);
  rep.params.emplace_back("m", "3");
  EXPECT_EQ(rep.trials, 3u);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.verdicts.completed, 2u);
  EXPECT_EQ(rep.verdicts.budget_exhausted, 1u);
  EXPECT_EQ(rep.verdicts.stalled, 0u);
  EXPECT_GT(rep.write_latency().count, 0u);

  const std::string json = rep.to_json();
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"name\":\"unit_sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"budget-exhausted\":1"), std::string::npos);
}

TEST(Report, PerfFiguresSerializeAsNumbersWithUnits) {
  SweepReport rep;
  rep.name = "unit_perf";
  EXPECT_EQ(rep.to_json().find("\"perf\""), std::string::npos);
  rep.perf.push_back({"n64.items_per_s", 1500.5, "1/s"});
  rep.perf.push_back({"n64.cpu_s", std::numeric_limits<double>::infinity(),
                      "s"});
  const std::string json = rep.to_json();
  EXPECT_TRUE(json_valid(json)) << json;
  // A non-finite figure is written as null, which validate_bench_json
  // rejects, never as a token JSON cannot parse.
  EXPECT_NE(json.find("\"perf\":{\"n64.items_per_s\":{\"value\":1500.5,"
                      "\"unit\":\"1/s\"},\"n64.cpu_s\":{\"value\":null,"
                      "\"unit\":\"s\"}}"),
            std::string::npos)
      << json;
}

TEST(Report, StalledTrialsSplitFromExhausted) {
  stp::SystemSpec spec = repfree_dup_spec(2);
  spec.engine.max_steps = 50000;
  spec.engine.stall_window = 500;
  const auto plan =
      fault::plan_from_text("blackout @step 0 dir SR len 100000 match *\n");
  const auto r = stp::sweep_input(stp::with_chaos(spec, plan), iota(2), {4});
  EXPECT_EQ(r.stalled, 1u);
  EXPECT_EQ(r.exhausted, 0u);
  EXPECT_EQ(r.incomplete, 1u);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].verdict, sim::RunVerdict::kStalled);
}

TEST(Report, SoakReportCarriesObservabilityAggregates) {
  stp::SoakConfig cfg;
  cfg.seeds = {1, 2, 3};
  const auto rep =
      stp::soak_sweep("repfree-del", repfree_del_spec(4), {iota(4)}, cfg);
  EXPECT_GT(rep.trials, 0u);
  EXPECT_GT(rep.total_steps, 0u);
  EXPECT_EQ(rep.trial_steps.size(), rep.trials);

  const SweepReport sweep = stp::report_of(rep);
  EXPECT_EQ(sweep.trials, rep.trials);
  EXPECT_TRUE(json_valid(sweep.to_json()));
}

}  // namespace
}  // namespace stpx::obs

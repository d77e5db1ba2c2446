// Machine-readable run/sweep reports.
//
// A RunReport condenses one sim::RunResult; a SweepReport aggregates many
// trials (a stp sweep, a soak, or a whole bench binary) into the schema the
// BENCH_<name>.json trajectory records:
//
//   {"name":..., "params":{...}, "trials":N, "ok":true,
//    "verdicts":{"completed":...,"safety-violation":...,"stalled":...,
//                "budget-exhausted":...},
//    "avg_steps":..., "msgs_per_trial":...,
//    "write_latency":{"p50":...,"p90":...,"p99":...},
//    "trial_steps":{"p50":...,"p90":...,"p99":...},
//    "metrics":{...}}                        // optional registry snapshot
//
// Percentiles here are exact (nearest-rank over the raw samples), unlike
// the bucketed approximations a live obs::Histogram reports.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace stpx::obs {

struct Percentiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::uint64_t count = 0;
};

/// Nearest-rank percentiles of a sample (all-zero for an empty sample).
Percentiles percentiles_u64(std::vector<std::uint64_t> samples);

/// Per-verdict trial counts.
struct VerdictCounts {
  std::uint64_t completed = 0;
  std::uint64_t safety_violation = 0;
  std::uint64_t recovery_violation = 0;
  std::uint64_t stabilization_violation = 0;
  std::uint64_t stalled = 0;
  std::uint64_t budget_exhausted = 0;

  void add(sim::RunVerdict v, std::uint64_t n = 1);
  std::uint64_t total() const {
    return completed + safety_violation + recovery_violation +
           stabilization_violation + stalled + budget_exhausted;
  }
  std::string to_json() const;
};

/// One run, condensed.
struct RunReport {
  std::string name;
  sim::RunVerdict verdict = sim::RunVerdict::kBudgetExhausted;
  std::uint64_t steps = 0;
  std::uint64_t sent[2] = {0, 0};       // indexed by Dir
  std::uint64_t delivered[2] = {0, 0};  // indexed by Dir
  std::uint64_t crashes[2] = {0, 0};    // indexed by Proc
  std::size_t items_written = 0;
  std::size_t items_total = 0;
  Percentiles write_latency;  // steps between consecutive writes

  std::string to_json() const;
};

RunReport make_run_report(const std::string& name, const sim::RunResult& r);

/// The per-item write latencies of one run: gaps between consecutive
/// write steps (the first item's latency counts from step 0).
std::vector<std::uint64_t> write_latencies_of(const sim::RunStats& stats);

/// Many trials, aggregated.  Build one via stp::report_of() or fold trials
/// in with add_trial().
struct SweepReport {
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;
  std::uint64_t trials = 0;
  VerdictCounts verdicts;
  std::uint64_t total_steps = 0;
  std::uint64_t total_msgs_sent = 0;
  bool ok = true;
  /// Raw samples; percentiles are computed at serialization time.
  std::vector<std::uint64_t> write_latency_samples;
  std::vector<std::uint64_t> trial_step_samples;
  /// Optional metrics snapshot (a MetricsRegistry::to_json() document).
  std::string metrics_json;
  /// Named numeric figures of merit, serialized as the "perf" object:
  /// {"<name>":{"value":<number>,"unit":"<unit>"},...}.
  struct Figure {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Figure> perf;

  void add_trial(const sim::RunResult& r);
  double avg_steps() const;
  double msgs_per_trial() const;
  Percentiles write_latency() const;
  Percentiles trial_steps() const;

  std::string to_json() const;
  /// Serialize to `path` (overwrites); throws util::ContractError on I/O
  /// failure.
  void write_json_file(const std::string& path) const;
};

}  // namespace stpx::obs

#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "obs/sinks.hpp"
#include "util/expect.hpp"

namespace stpx::obs {

namespace {

double nearest_rank(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(rank);
  if (static_cast<double>(idx) < rank) ++idx;  // ceil
  if (idx > 0) --idx;                          // 1-based rank -> index
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return static_cast<double>(sorted[idx]);
}

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

std::string percentiles_json(const Percentiles& p) {
  std::ostringstream os;
  os << "{\"count\":" << p.count << ",\"p50\":" << fmt(p.p50)
     << ",\"p90\":" << fmt(p.p90) << ",\"p99\":" << fmt(p.p99) << '}';
  return os.str();
}

}  // namespace

Percentiles percentiles_u64(std::vector<std::uint64_t> samples) {
  Percentiles p;
  p.count = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  p.p50 = nearest_rank(samples, 0.50);
  p.p90 = nearest_rank(samples, 0.90);
  p.p99 = nearest_rank(samples, 0.99);
  return p;
}

void VerdictCounts::add(sim::RunVerdict v, std::uint64_t n) {
  switch (v) {
    case sim::RunVerdict::kCompleted: completed += n; break;
    case sim::RunVerdict::kSafetyViolation: safety_violation += n; break;
    case sim::RunVerdict::kRecoveryViolation: recovery_violation += n; break;
    case sim::RunVerdict::kStabilizationViolation:
      stabilization_violation += n;
      break;
    case sim::RunVerdict::kStalled: stalled += n; break;
    case sim::RunVerdict::kBudgetExhausted: budget_exhausted += n; break;
  }
}

std::string VerdictCounts::to_json() const {
  std::ostringstream os;
  os << "{\"completed\":" << completed
     << ",\"safety-violation\":" << safety_violation
     << ",\"recovery-violation\":" << recovery_violation
     << ",\"stabilization-violation\":" << stabilization_violation
     << ",\"stalled\":" << stalled
     << ",\"budget-exhausted\":" << budget_exhausted << '}';
  return os.str();
}

std::vector<std::uint64_t> write_latencies_of(const sim::RunStats& stats) {
  std::vector<std::uint64_t> gaps;
  gaps.reserve(stats.write_step.size());
  std::uint64_t prev = 0;
  for (const std::uint64_t s : stats.write_step) {
    gaps.push_back(s - prev);
    prev = s;
  }
  return gaps;
}

RunReport make_run_report(const std::string& name, const sim::RunResult& r) {
  RunReport rep;
  rep.name = name;
  rep.verdict = r.verdict;
  rep.steps = r.stats.steps;
  for (int i = 0; i < 2; ++i) {
    rep.sent[i] = r.stats.sent[i];
    rep.delivered[i] = r.stats.delivered[i];
    rep.crashes[i] = r.stats.crashes[i];
  }
  rep.items_written = r.output.size();
  rep.items_total = r.input.size();
  rep.write_latency = percentiles_u64(write_latencies_of(r.stats));
  return rep;
}

std::string RunReport::to_json() const {
  std::ostringstream os;
  os << "{\"name\":\"" << json_escape(name) << "\",\"verdict\":\""
     << sim::to_cstr(verdict) << "\",\"steps\":" << steps
     << ",\"sent\":{\"sr\":" << sent[0] << ",\"rs\":" << sent[1]
     << "},\"delivered\":{\"sr\":" << delivered[0] << ",\"rs\":" << delivered[1]
     << "},\"crashes\":{\"sender\":" << crashes[0]
     << ",\"receiver\":" << crashes[1] << "},\"items_written\":" << items_written
     << ",\"items_total\":" << items_total
     << ",\"write_latency\":" << percentiles_json(write_latency) << '}';
  return os.str();
}

void SweepReport::add_trial(const sim::RunResult& r) {
  ++trials;
  verdicts.add(r.verdict);
  total_steps += r.stats.steps;
  total_msgs_sent += r.stats.sent[0] + r.stats.sent[1];
  trial_step_samples.push_back(r.stats.steps);
  const auto gaps = write_latencies_of(r.stats);
  write_latency_samples.insert(write_latency_samples.end(), gaps.begin(),
                               gaps.end());
}

double SweepReport::avg_steps() const {
  return trials == 0 ? 0.0
                     : static_cast<double>(total_steps) /
                           static_cast<double>(trials);
}

double SweepReport::msgs_per_trial() const {
  return trials == 0 ? 0.0
                     : static_cast<double>(total_msgs_sent) /
                           static_cast<double>(trials);
}

Percentiles SweepReport::write_latency() const {
  return percentiles_u64(write_latency_samples);
}

Percentiles SweepReport::trial_steps() const {
  return percentiles_u64(trial_step_samples);
}

std::string SweepReport::to_json() const {
  std::ostringstream os;
  os << "{\"name\":\"" << json_escape(name) << "\",\"params\":{";
  bool first = true;
  for (const auto& [k, v] : params) {
    os << (first ? "" : ",") << '"' << json_escape(k) << "\":\""
       << json_escape(v) << '"';
    first = false;
  }
  os << "},\"trials\":" << trials << ",\"ok\":" << (ok ? "true" : "false")
     << ",\"verdicts\":" << verdicts.to_json()
     << ",\"avg_steps\":" << fmt(avg_steps())
     << ",\"msgs_per_trial\":" << fmt(msgs_per_trial())
     << ",\"write_latency\":" << percentiles_json(write_latency())
     << ",\"trial_steps\":" << percentiles_json(trial_steps());
  if (!metrics_json.empty()) os << ",\"metrics\":" << metrics_json;
  if (!perf.empty()) {
    os << ",\"perf\":{";
    for (std::size_t i = 0; i < perf.size(); ++i) {
      const Figure& f = perf[i];
      os << (i == 0 ? "" : ",") << '"' << json_escape(f.name)
         << "\":{\"value\":" << (std::isfinite(f.value) ? fmt(f.value) : "null")
         << ",\"unit\":\"" << json_escape(f.unit) << "\"}";
    }
    os << '}';
  }
  os << '}';
  return os.str();
}

void SweepReport::write_json_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  STPX_EXPECT(out.good(), "SweepReport: cannot open " + path);
  out << to_json() << '\n';
  out.close();
  STPX_EXPECT(out.good(), "SweepReport: write failed for " + path);
}

}  // namespace stpx::obs

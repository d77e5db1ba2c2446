// TracePipeline — composable one-pass analysis over drained wire traces.
//
// An ActionList-style registry (cf. cpptraj's ActionList, see ROADMAP):
// independently authored analyzers are add()ed to a pipeline, and run()
// streams every TraceEvent through every analyzer in ONE pass —
// begin(ctx) → on_event(ev)* → finish(ctx, report).  Analyzers never see
// each other; they compose by each contributing namespaced keys to the
// shared TraceReport.  Adding an analyzer never changes another's output,
// which is what makes the report equality-comparable across runs.
//
// All report values are integers (microseconds, counts, per-mille ratios,
// 0/1 flags) precisely so `TraceReport::operator==` is exact: the golden
// round-trip test drains a live trace, archives it through JSONL, re-runs
// the pipeline on the parsed archive, and asserts the two reports are
// identical — no epsilon, no float formatting hazards.
//
// The flagship analyzer is the prefix-safety attestor: it re-derives the
// acceptance criterion of the STP paper (every receiver output is a
// prefix of the input sequence; completed sessions delivered exactly
// their sequence) from the trace alone, independently of the live
// per-session checks the mux tests run.  A trace that attests clean is
// end-to-end evidence; one that does not names the session and index
// where order first broke.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/trace_sinks.hpp"
#include "obs/metrics.hpp"

namespace stpx::analysis {

/// Out-of-band facts an analyzer may need beside the event stream.
struct TraceContext {
  /// Per-session expected item count (the input sequence length).  Empty
  /// map = completeness is not attested, only prefix order.
  std::map<std::uint32_t, std::size_t> expected_items;
  /// Fault windows rebased onto the trace clock (net::to_trace_spans).
  std::vector<net::TraceSpan> fault_windows;
  /// Trace horizon; 0 = the last event's timestamp.
  std::uint64_t trace_end_us = 0;
};

/// The merged analysis result: namespaced integer values plus free-form
/// notes, equality-comparable field by field.
struct TraceReport {
  std::map<std::string, std::int64_t> values;
  std::map<std::string, std::string> notes;
  bool ok = true;  // AND of every analyzer's verdict

  std::int64_t value(const std::string& key) const;  // 0 when absent

  /// {"ok":…,"values":{…},"notes":{…}} — deterministic (lexicographic).
  std::string to_json() const;

  friend bool operator==(const TraceReport&, const TraceReport&) = default;
};

class ITraceAnalyzer {
 public:
  virtual ~ITraceAnalyzer() = default;
  /// Namespace prefix of the keys this analyzer writes (e.g. "ack_rtt").
  virtual std::string name() const = 0;
  virtual void begin(const TraceContext& ctx) { (void)ctx; }
  virtual void on_event(const obs::TraceEvent& ev) = 0;
  /// Contribute keys to `out`; clear `out.ok` to veto the overall verdict.
  virtual void finish(const TraceContext& ctx, TraceReport& out) = 0;
};

class TracePipeline {
 public:
  TracePipeline& add(std::unique_ptr<ITraceAnalyzer> analyzer);
  std::size_t size() const { return analyzers_.size(); }

  /// One pass: every analyzer sees every event in stream order.
  TraceReport run(const std::vector<obs::TraceEvent>& events,
                  const TraceContext& ctx = {});

 private:
  std::vector<std::unique_ptr<ITraceAnalyzer>> analyzers_;
};

// --- the standard analyzers ------------------------------------------------

/// ack_rtt.* — sender-side data send → next inbound frame per session, the
/// offline analogue of the mux's live net.ack_rtt_us histogram.
std::unique_ptr<ITraceAnalyzer> make_ack_rtt_analyzer();

/// item_latency.* — gaps between consecutive accepted items per session.
std::unique_ptr<ITraceAnalyzer> make_item_latency_analyzer();

/// goodput.* — items vs data frames sent: retransmission overhead per
/// mille, duration, items/s.
std::unique_ptr<ITraceAnalyzer> make_goodput_analyzer();

/// prefix.* — the prefix-safety attestor (see file header).
std::unique_ptr<ITraceAnalyzer> make_prefix_attestor();

/// faultcorr.* — attributes sheds / rejects / suppressed sends to fault
/// windows (inside vs outside ctx.fault_windows).
std::unique_ptr<ITraceAnalyzer> make_fault_correlator();

/// stall.* — longest silent gap, gaps past `stall_threshold_us`, and a
/// livelock flag (>= `livelock_frames` frame events after the last item
/// while sessions remain incomplete).
std::unique_ptr<ITraceAnalyzer> make_stall_detector(
    std::uint64_t stall_threshold_us = 100'000,
    std::uint64_t livelock_frames = 1'000);

/// rehydrate.* — rehydration → first subsequent item latency per session.
std::unique_ptr<ITraceAnalyzer> make_rehydration_analyzer();

/// All seven standard analyzers, in a fixed order.
TracePipeline make_standard_pipeline();

/// Mirror every report value into `reg` as gauge "trace.<key>", plus the
/// verdict as gauge "trace.ok".
void publish_trace_report(const TraceReport& report, obs::MetricsRegistry& reg);

}  // namespace stpx::analysis

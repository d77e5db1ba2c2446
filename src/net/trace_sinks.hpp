// The trace codec and every trace sink, for engine runs and wire runs
// alike: both report the one obs::TraceEvent record.
//
//   * to_jsonl / parse_jsonl — the lossless JSONL line codec:
//     parse_jsonl(to_jsonl(ev)) == ev for every valid event, which is what
//     lets an offline analysis re-derive the exact TraceReport a live
//     drain produced (the golden-trace tests pin both directions).  Each
//     kind's keys come from one table that both directions walk.
//   * write_trace_jsonl / read_trace_jsonl — a stream of those lines.
//   * JsonlSink — a probe that writes each event as it arrives; the
//     grep/jq-friendly archive of an engine run.
//   * ChromeTraceSink — a probe that buffers an engine run and exports it
//     as Chrome trace-event JSON (Perfetto / chrome://tracing).  Sender,
//     receiver and the two channel directions render as threads of one
//     process; sends/deliveries/writes/crashes are instants on their
//     track; process steps are 1-step complete events; chaos fault
//     windows (blackout/freeze) are balanced B/E pairs on the fault lanes.
//   * write_wire_chrome_trace — the Chrome export of a drained wire
//     stream: one thread track per session carrying its frame/item/state
//     instants, checkpoint flushes as complete ("X") slices with their
//     measured duration, rejects on their own track (they are
//     unattributable to a session by construction), and fault/blackout
//     windows as B/E pairs on stacked fault lanes.
//
// Both Chrome exports go through obs::write_chrome_trace, so the two trace
// families look alike in the viewer.  Engine timestamps are steps, written
// as microseconds (1 step = 1 µs); wire timestamps are the recorder's
// epoch-relative microseconds.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "obs/probe.hpp"
#include "obs/sinks.hpp"

namespace stpx::net {

/// A named wall-clock interval overlaid on a wire trace (fault windows from
/// the loopback transport, or any caller-supplied annotation).  Times share
/// the recorder's epoch-relative microsecond clock.
struct TraceSpan {
  std::string name;
  std::uint64_t begin_us = 0;
  std::uint64_t end_us = 0;

  friend bool operator==(const TraceSpan&, const TraceSpan&) = default;
};

/// One JSON object, no trailing newline:
///   {"ts":12,"seq":3,"ev":"frame-sent","session":7,"kind":"data",
///    "dir":"S->R","msg":5}
/// The keys after "ev" depend on the kind (docs/OBSERVABILITY.md lists
/// them).  A nonzero `backend` is appended as a trailing ,"backend":N —
/// zero (the single-process case) emits nothing.
std::string to_jsonl(const obs::TraceEvent& ev);

/// Parse one JSONL line (as emitted by to_jsonl).  Returns std::nullopt on
/// anything malformed — never throws, mirroring the frame codec's
/// reject-don't-throw convention.
std::optional<obs::TraceEvent> parse_jsonl(const std::string& line);

/// Write one JSONL line per event, in stream order.
void write_trace_jsonl(std::ostream& out,
                       const std::vector<obs::TraceEvent>& evs);

/// Parse a JSONL stream back into events.  Blank lines are skipped; any
/// malformed non-blank line fails the whole read (nullopt) — an archive is
/// either intact or it is not trustworthy for re-analysis.
std::optional<std::vector<obs::TraceEvent>> read_trace_jsonl(
    std::istream& in);

/// Streams one JSONL line per event as the run executes.
class JsonlSink final : public obs::IProbe {
 public:
  /// `out` is non-owning and must outlive the sink's use.
  explicit JsonlSink(std::ostream& out) : out_(&out) {}

  void record(const obs::TraceEvent& ev) override;

 private:
  std::ostream* out_;
};

/// Buffers an engine run and exports a Chrome trace-event JSON document.
/// It renders runs, steps, sends, deliveries, writes, crashes, restarts,
/// stalls and faults; the other kinds are not drawn.
class ChromeTraceSink final : public obs::IProbe {
 public:
  void record(const obs::TraceEvent& ev) override;

  /// Render everything buffered so far as {"traceEvents":[...]}.
  void write_to(std::ostream& out) const;
  std::string to_json() const;
  void clear();

 private:
  std::vector<obs::ChromeEvent> instants_;
  std::vector<obs::ChromeSpan> spans_;  // fault windows
};

/// Export a drained wire stream (plus optional fault windows, already
/// rebased onto the recorder's clock — see to_trace_spans) as a Chrome
/// trace-event JSON document.
void write_wire_chrome_trace(std::ostream& out,
                             const std::vector<obs::TraceEvent>& evs,
                             const std::vector<TraceSpan>& windows = {});

}  // namespace stpx::net

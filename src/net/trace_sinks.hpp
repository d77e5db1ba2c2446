// Trace sinks for drained flight-recorder streams.
//
//   * write_trace_jsonl / read_trace_jsonl — the archival form: one JSON
//     object per line via the lossless TraceEvent codec.  A drained trace
//     written out and read back is event-for-event identical, so offline
//     analysis of an archived trace reproduces the live TraceReport
//     exactly (the golden round-trip tests pin this).
//   * write_wire_chrome_trace — Chrome trace-event JSON (Perfetto /
//     chrome://tracing) rendering of a drained stream: one thread track
//     per session carrying its frame/item/state instants, checkpoint
//     flushes as complete ("X") slices with their measured duration,
//     rejects on their own track (they are unattributable to a session by
//     construction), and fault/blackout windows as balanced B/E span
//     pairs on stacked fault lanes — written by obs::write_chrome_trace,
//     the writer obs::ChromeTraceSink uses, so the two trace families
//     look alike in the viewer.
//
// Timestamps are the recorder's epoch-relative microseconds, which is
// natively what the Chrome trace format wants.
#pragma once

#include <iosfwd>
#include <optional>
#include <vector>

#include "net/trace_event.hpp"

namespace stpx::net {

/// Write one JSONL line per event, in stream order.
void write_trace_jsonl(std::ostream& out, const std::vector<TraceEvent>& evs);

/// Parse a JSONL stream back into events.  Blank lines are skipped; any
/// malformed non-blank line fails the whole read (nullopt) — an archive is
/// either intact or it is not trustworthy for re-analysis.
std::optional<std::vector<TraceEvent>> read_trace_jsonl(std::istream& in);

/// Export a drained stream (plus optional fault windows, already rebased
/// onto the recorder's clock — see to_trace_spans) as a Chrome trace-event
/// JSON document.
void write_wire_chrome_trace(std::ostream& out,
                             const std::vector<TraceEvent>& evs,
                             const std::vector<TraceSpan>& windows = {});

}  // namespace stpx::net

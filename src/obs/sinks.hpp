// JSON helpers and the one Chrome trace-event document writer.
//
//   * json_escape / json_valid — string escaping for hand-rendered JSON,
//     and a structural validity check the tests and reports lean on.
//   * write_chrome_trace — the Chrome trace-event JSON writer (the format
//     Perfetto and chrome://tracing load) behind both trace exports in
//     net/trace_sinks.hpp: engine runs (net::ChromeTraceSink) and drained
//     wire streams (net::write_wire_chrome_trace).  Instants and complete
//     slices sit on named thread tracks; fault windows are balanced B/E
//     duration pairs on stacked fault lanes (place_fault_lanes), so a
//     schedule's blind spots show as shaded spans over the traffic they
//     suppressed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace stpx::obs {

/// Escape a string for embedding in a JSON string literal.
std::string json_escape(const std::string& s);

/// Structural validity check (objects/arrays/strings/numbers/bools/null,
/// complete input).  Not a full RFC 8259 parser — enough to guarantee a
/// report or trace round-trips through a real one.
bool json_valid(const std::string& text);

/// One record on a Chrome trace track: an instant ("i") when `dur` is 0,
/// a complete slice ("X") otherwise.
struct ChromeEvent {
  std::uint64_t ts = 0;
  int tid = 0;
  std::string name;
  std::string args;       // pre-rendered JSON object body, may be empty
  std::uint64_t dur = 0;
};

/// A window rendered as a balanced B/E pair (args on the B record).
struct ChromeSpan {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::string name;
  std::string args;
  int tid = 0;  // set by place_fault_lanes
};

/// A named thread track.
struct ChromeTrack {
  int tid = 0;
  std::string name;
};

/// Sort `spans` by begin (stable) and put each on the first lane, counting
/// tids up from `first_tid`, whose previous window has ended — so every
/// lane carries disjoint B/E pairs.  Returns the lanes' tracks: "faults",
/// then "faults (overflow lane)".
std::vector<ChromeTrack> place_fault_lanes(std::vector<ChromeSpan>& spans,
                                           int first_tid);

/// Write {"displayTimeUnit":"ms","traceEvents":[...]}: the process name,
/// the thread name of each track in order, then every event and span
/// record by timestamp — at equal timestamps span begins, then events,
/// then span ends, each group in input order.
void write_chrome_trace(std::ostream& out, const std::string& process,
                        const std::vector<ChromeTrack>& tracks,
                        const std::vector<ChromeEvent>& events,
                        const std::vector<ChromeSpan>& spans);

}  // namespace stpx::obs

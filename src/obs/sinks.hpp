// Trace sinks: probes that serialize the event stream.
//
//   * JsonlSink — one JSON object per line, streamed to an ostream as the
//     run executes; the grep/jq-friendly archival form.
//   * ChromeTraceSink — buffers the run and exports Chrome trace-event JSON
//     (the format Perfetto and chrome://tracing load).  Sender, receiver,
//     and the two channel directions render as threads of one process;
//     sends/deliveries/writes/crashes are instant events on their track;
//     process steps are 1-step complete events; chaos fault *windows*
//     (blackout/freeze) are balanced B/E duration pairs on a dedicated
//     faults track, so a schedule's blind spots are visible as shaded
//     spans over the traffic they suppressed.
//   * write_chrome_trace — the one Chrome trace-event document writer,
//     shared by ChromeTraceSink and the wire flight recorder's export
//     (net::write_wire_chrome_trace).
//
// Trace timestamps are engine steps, written as microseconds (1 step =
// 1 us) — Perfetto needs a time unit and steps are the only clock the
// model has.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/probe.hpp"

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

/// Streams one JSON object per event line:
///   {"ev":"send","step":12,"dir":"S->R","msg":3}
class JsonlSink final : public IProbe {
 public:
  /// `out` is non-owning and must outlive the sink's use.
  explicit JsonlSink(std::ostream& out);

  void on_run_begin(std::size_t items_total) override;
  void on_step(std::uint64_t step, const sim::Action& a) override;
  void on_send(std::uint64_t step, sim::Dir dir, sim::MsgId msg) override;
  void on_deliver(std::uint64_t step, sim::Dir dir, sim::MsgId msg) override;
  void on_write(std::uint64_t step, std::size_t index,
                seq::DataItem item) override;
  void on_crash(std::uint64_t step, sim::Proc who) override;
  void on_restart(std::uint64_t step, sim::Proc who, bool rehydrated,
                  std::uint64_t records_replayed) override;
  void on_stall(std::uint64_t step) override;
  void on_run_end(std::uint64_t steps, sim::RunVerdict verdict) override;
  void on_fault(const FaultEvent& ev) override;

 private:
  std::ostream* out_;
};

/// Buffers events and exports a Chrome trace-event JSON document.
class ChromeTraceSink final : public IProbe {
 public:
  void on_run_begin(std::size_t items_total) override;
  void on_step(std::uint64_t step, const sim::Action& a) override;
  void on_send(std::uint64_t step, sim::Dir dir, sim::MsgId msg) override;
  void on_deliver(std::uint64_t step, sim::Dir dir, sim::MsgId msg) override;
  void on_write(std::uint64_t step, std::size_t index,
                seq::DataItem item) override;
  void on_crash(std::uint64_t step, sim::Proc who) override;
  void on_restart(std::uint64_t step, sim::Proc who, bool rehydrated,
                  std::uint64_t records_replayed) override;
  void on_stall(std::uint64_t step) override;
  void on_fault(const FaultEvent& ev) override;

  /// Render everything buffered so far as {"traceEvents":[...]}.
  void write_to(std::ostream& out) const;
  std::string to_json() const;
  void clear();

 private:
  std::vector<ChromeEvent> instants_;
  std::vector<ChromeSpan> spans_;  // fault windows
};

}  // namespace stpx::obs

// TraceEvent — the compact wire-level flight-recorder record.
//
// One TraceEvent is one INetProbe hook firing, flattened into a fixed-size
// POD the recorder can write into a lock-free ring without allocating:
//
//   ts_us    monotonic microseconds since the recorder's epoch
//   seq      per-producer-shard write index (merge tiebreak: two events
//            with equal timestamps from one producer keep their order)
//   msg      kind-dependent payload: protocol MsgId (frame events), item
//            index (kItem), restored position (kRehydrate), records
//            committed (kCheckpointFlush)
//   aux      kind-dependent extra: flush duration in microseconds
//            (kCheckpointFlush); zero elsewhere
//   session  owning session id (kCheckpointFlush: the shard index;
//            kFrameRejected: unattributable, always 0)
//   kind     which hook fired
//   detail   kind-dependent enum byte: FrameKind (frame send/receive),
//            RejectReason (kFrameRejected), SessionState (kSessionState,
//            kRehydrate)
//   dir      frame direction (frame send/receive only)
//
// The JSONL line codec (to_jsonl / parse_jsonl) is a lossless round-trip:
// parse_jsonl(to_jsonl(ev)) == ev for every valid event, which is what
// lets an offline analysis re-derive the exact TraceReport a live drain
// produced (the golden-trace tests pin both directions).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/frame.hpp"
#include "net/mux.hpp"
#include "sim/types.hpp"

namespace stpx::net {

enum class TraceEventKind : std::uint8_t {
  kFrameSent = 0,
  kFrameReceived,
  kFrameRejected,
  kFrameShed,
  kItem,
  kSessionState,
  kRehydrate,
  kCheckpointFlush,
  kProbeAnswered,  // fabric heartbeat echoed; msg carries the nonce
};

constexpr const char* to_cstr(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kFrameSent: return "frame-sent";
    case TraceEventKind::kFrameReceived: return "frame-received";
    case TraceEventKind::kFrameRejected: return "frame-rejected";
    case TraceEventKind::kFrameShed: return "frame-shed";
    case TraceEventKind::kItem: return "item";
    case TraceEventKind::kSessionState: return "session-state";
    case TraceEventKind::kRehydrate: return "rehydrate";
    case TraceEventKind::kCheckpointFlush: return "checkpoint-flush";
    case TraceEventKind::kProbeAnswered: return "probe-answered";
  }
  return "?";
}

/// Number of TraceEventKind values.
inline constexpr std::size_t kTraceEventKindCount = 9;

struct TraceEvent {
  std::uint64_t ts_us = 0;
  std::uint64_t seq = 0;
  std::int64_t msg = 0;
  std::uint64_t aux = 0;
  std::uint32_t session = 0;
  /// Which fabric backend recorded the event (0 = unattributed /
  /// single-process).  Stamped by the recorder, so traces drained from
  /// several backend processes stay attributable after a merge.
  std::uint32_t backend = 0;
  TraceEventKind kind = TraceEventKind::kFrameSent;
  std::uint8_t detail = 0;
  sim::Dir dir = sim::Dir::kSenderToReceiver;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// A named wall-clock interval overlaid on a trace (fault windows from the
/// loopback transport, or any caller-supplied annotation).  Times share the
/// recorder's epoch-relative microsecond clock.
struct TraceSpan {
  std::string name;
  std::uint64_t begin_us = 0;
  std::uint64_t end_us = 0;

  friend bool operator==(const TraceSpan&, const TraceSpan&) = default;
};

/// One JSON object, no trailing newline:
///   {"ts":12,"seq":3,"ev":"frame-sent","session":7,"kind":"data",
///    "dir":"S->R","msg":5}
/// Field sets are kind-dependent (see trace_event.cpp); every emitted
/// line parses back to the identical event.  A nonzero `backend` is
/// appended as a trailing ,"backend":N — zero (the single-process case)
/// emits nothing, so pre-fabric golden lines stay byte-identical.
std::string to_jsonl(const TraceEvent& ev);

/// Parse one JSONL line (as emitted by to_jsonl).  Returns std::nullopt on
/// anything malformed — never throws, mirroring the frame codec's
/// reject-don't-throw convention.
std::optional<TraceEvent> parse_jsonl(const std::string& line);

}  // namespace stpx::net

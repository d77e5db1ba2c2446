#include "net/trace_sinks.hpp"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>

#include "obs/sinks.hpp"

namespace stpx::net {

void write_trace_jsonl(std::ostream& out,
                       const std::vector<TraceEvent>& evs) {
  for (const TraceEvent& ev : evs) out << to_jsonl(ev) << '\n';
}

std::optional<std::vector<TraceEvent>> read_trace_jsonl(std::istream& in) {
  std::vector<TraceEvent> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto ev = parse_jsonl(line);
    if (!ev) return std::nullopt;
    out.push_back(*ev);
  }
  return out;
}

namespace {

// Track (tid) layout inside the single trace process:
//   1                      rejects (session-unattributable)
//   2 .. 2+lanes-1         fault-window lanes (stacked like obs sink)
//   then one per shard     checkpoint flushes
//   then one per session   everything session-scoped
constexpr int kTidRejects = 1;
constexpr int kTidFaultBase = 2;

std::string instant_name(const TraceEvent& ev) {
  std::ostringstream os;
  switch (ev.kind) {
    case TraceEventKind::kFrameSent:
      os << "send " << to_cstr(static_cast<FrameKind>(ev.detail)) << ' '
         << ev.msg;
      break;
    case TraceEventKind::kFrameReceived:
      os << "recv " << to_cstr(static_cast<FrameKind>(ev.detail)) << ' '
         << ev.msg;
      break;
    case TraceEventKind::kFrameShed:
      os << "shed";
      break;
    case TraceEventKind::kItem:
      os << "item[" << ev.msg << ']';
      break;
    case TraceEventKind::kSessionState:
      os << to_cstr(static_cast<SessionState>(ev.detail));
      break;
    case TraceEventKind::kRehydrate:
      os << "rehydrate@" << ev.msg;
      break;
    case TraceEventKind::kFrameRejected:
      os << "reject " << to_cstr(static_cast<RejectReason>(ev.detail));
      break;
    case TraceEventKind::kCheckpointFlush:
      os << "flush " << ev.msg;
      break;
    case TraceEventKind::kProbeAnswered:
      os << "probe-ack " << ev.msg;
      break;
  }
  return os.str();
}

std::string instant_args(const TraceEvent& ev) {
  std::ostringstream os;
  switch (ev.kind) {
    case TraceEventKind::kFrameSent:
    case TraceEventKind::kFrameReceived:
      os << "\"dir\":\"" << sim::to_cstr(ev.dir) << "\",\"msg\":" << ev.msg;
      break;
    case TraceEventKind::kItem:
      os << "\"index\":" << ev.msg;
      break;
    case TraceEventKind::kRehydrate:
      os << "\"position\":" << ev.msg << ",\"state\":\""
         << to_cstr(static_cast<SessionState>(ev.detail)) << '"';
      break;
    case TraceEventKind::kCheckpointFlush:
      os << "\"records\":" << ev.msg << ",\"dur_us\":" << ev.aux;
      break;
    default:
      break;
  }
  return os.str();
}

}  // namespace

void write_wire_chrome_trace(std::ostream& out,
                             const std::vector<TraceEvent>& evs,
                             const std::vector<TraceSpan>& windows) {
  std::vector<obs::ChromeSpan> spans;
  spans.reserve(windows.size());
  for (const TraceSpan& w : windows) {
    spans.push_back({w.begin_us, w.end_us, w.name, ""});
  }
  std::vector<obs::ChromeTrack> tracks = {{kTidRejects, "rejects"}};
  const auto lanes = obs::place_fault_lanes(spans, kTidFaultBase);
  tracks.insert(tracks.end(), lanes.begin(), lanes.end());

  // Census of shards (flush tracks) and sessions, numbered after the lanes.
  std::set<std::uint32_t> shards;
  std::set<std::uint32_t> sessions;
  for (const TraceEvent& ev : evs) {
    if (ev.kind == TraceEventKind::kCheckpointFlush) {
      shards.insert(ev.session);
    } else if (ev.kind != TraceEventKind::kFrameRejected) {
      sessions.insert(ev.session);
    }
  }
  int next_tid = kTidFaultBase + static_cast<int>(lanes.size());
  std::map<std::uint32_t, int> shard_tid;
  for (const std::uint32_t s : shards) {
    shard_tid.emplace(s, next_tid);
    tracks.push_back({next_tid++, "flush shard " + std::to_string(s)});
  }
  std::map<std::uint32_t, int> session_tid;
  for (const std::uint32_t s : sessions) {
    session_tid.emplace(s, next_tid);
    tracks.push_back({next_tid++, "session " + std::to_string(s)});
  }

  std::vector<obs::ChromeEvent> events;
  events.reserve(evs.size());
  for (const TraceEvent& ev : evs) {
    if (ev.kind == TraceEventKind::kCheckpointFlush) {
      // Flushes are duration slices; stamp the span at flush *start*.
      const std::uint64_t begin = ev.ts_us >= ev.aux ? ev.ts_us - ev.aux : 0;
      events.push_back({begin, shard_tid.at(ev.session), instant_name(ev),
                        instant_args(ev), std::max<std::uint64_t>(ev.aux, 1)});
      continue;
    }
    const int tid = ev.kind == TraceEventKind::kFrameRejected
                        ? kTidRejects
                        : session_tid.at(ev.session);
    events.push_back(
        {ev.ts_us, tid, instant_name(ev), instant_args(ev), 0});
  }
  obs::write_chrome_trace(out, "stpx wire", tracks, events, spans);
}

}  // namespace stpx::net

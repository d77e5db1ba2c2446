#include "net/trace_sinks.hpp"

#include <algorithm>
#include <cstdlib>
#include <istream>
#include <map>
#include <ostream>
#include <set>
#include <span>
#include <sstream>

#include "fault/plan.hpp"
#include "net/frame.hpp"
#include "net/mux.hpp"

namespace stpx::net {

namespace {

using Kind = obs::TraceEventKind;

// --- the codec table --------------------------------------------------------

/// The record field a JSONL key holds.
enum class Slot : std::uint8_t { kMsg, kAux, kSession, kDetail, kDir };

/// How a field is spelled: a decimal integer, or the name of one of `count`
/// enum values — quoted, or bare for booleans.
struct Namer {
  const char* (*name)(std::uint64_t) = nullptr;  // null: decimal integer
  std::uint64_t count = 0;
  bool quoted = true;
};

/// The to_cstr() names of E's first `count` values.
template <typename E>
constexpr Namer named(std::uint64_t count) {
  return {[](std::uint64_t v) { return to_cstr(static_cast<E>(v)); }, count};
}

constexpr Namer kInt{};
constexpr Namer kBool{[](std::uint64_t v) { return v != 0 ? "true" : "false"; },
                      2, false};
constexpr Namer kDirName = named<sim::Dir>(2);
constexpr Namer kProcName = named<sim::Proc>(2);
constexpr Namer kStateName = named<SessionState>(kSessionStateCount);

/// One key of a kind's line: its name, the field it holds, its spelling.
struct Row {
  const char* key;
  Slot slot;
  Namer namer = kInt;
};

constexpr Row kFrameRows[] = {
    {"session", Slot::kSession},
    {"kind", Slot::kDetail, named<FrameKind>(kMaxFrameKind + 1)},
    {"dir", Slot::kDir, kDirName},
    {"msg", Slot::kMsg}};
constexpr Row kRejectRows[] = {
    {"why", Slot::kDetail, named<RejectReason>(kRejectReasonCount)}};
constexpr Row kShedRows[] = {{"session", Slot::kSession}};
constexpr Row kItemRows[] = {{"session", Slot::kSession},
                             {"index", Slot::kMsg}};
constexpr Row kStateRows[] = {{"session", Slot::kSession},
                              {"state", Slot::kDetail, kStateName}};
constexpr Row kRehydrateRows[] = {{"session", Slot::kSession},
                                  {"position", Slot::kMsg},
                                  {"state", Slot::kDetail, kStateName}};
constexpr Row kFlushRows[] = {{"shard", Slot::kSession},
                              {"records", Slot::kMsg},
                              {"dur_us", Slot::kAux}};
constexpr Row kProbeRows[] = {{"nonce", Slot::kMsg}};
constexpr Row kRunBeginRows[] = {{"items", Slot::kMsg}};
constexpr Row kStepRows[] = {
    {"action", Slot::kDetail,
     named<sim::ActionKind>(
         static_cast<std::uint64_t>(sim::ActionKind::kDeliverToSender) + 1)},
    {"msg", Slot::kMsg}};
constexpr Row kMessageRows[] = {{"dir", Slot::kDir, kDirName},
                                {"msg", Slot::kMsg}};
constexpr Row kWriteRows[] = {{"index", Slot::kAux}, {"item", Slot::kMsg}};
constexpr Row kCrashRows[] = {{"proc", Slot::kDetail, kProcName}};
constexpr Row kRestartRows[] = {{"proc", Slot::kDetail, kProcName},
                                {"rehydrated", Slot::kAux, kBool},
                                {"records_replayed", Slot::kMsg}};
constexpr Row kScrambleRows[] = {{"proc", Slot::kDetail, kProcName},
                                 {"accepted", Slot::kAux, kBool}};
constexpr Row kConvergeRows[] = {{"latency", Slot::kAux}};
constexpr Row kRunEndRows[] = {
    {"verdict", Slot::kDetail,
     named<sim::RunVerdict>(
         static_cast<std::uint64_t>(sim::RunVerdict::kCompleted) + 1)}};
constexpr Row kFaultRows[] = {
    {"kind", Slot::kDetail,
     named<fault::FaultKind>(
         static_cast<std::uint64_t>(fault::FaultKind::kScrambleState) + 1)},
    {"dir", Slot::kDir, kDirName},
    {"n", Slot::kAux},
    {"match", Slot::kMsg}};

struct KindRows {
  Kind kind;
  std::span<const Row> rows;
};

/// The keys of every kind after "ts", "seq" and "ev", indexed by kind.
constexpr KindRows kCodec[] = {
    {Kind::kFrameSent, kFrameRows},
    {Kind::kFrameReceived, kFrameRows},
    {Kind::kFrameRejected, kRejectRows},
    {Kind::kFrameShed, kShedRows},
    {Kind::kItem, kItemRows},
    {Kind::kSessionState, kStateRows},
    {Kind::kRehydrate, kRehydrateRows},
    {Kind::kCheckpointFlush, kFlushRows},
    {Kind::kProbeAnswered, kProbeRows},
    {Kind::kRunBegin, kRunBeginRows},
    {Kind::kStep, kStepRows},
    {Kind::kSend, kMessageRows},
    {Kind::kDeliver, kMessageRows},
    {Kind::kWrite, kWriteRows},
    {Kind::kCrash, kCrashRows},
    {Kind::kRestart, kRestartRows},
    {Kind::kStall, {}},
    {Kind::kScramble, kScrambleRows},
    {Kind::kConverge, kConvergeRows},
    {Kind::kRunEnd, kRunEndRows},
    {Kind::kFault, kFaultRows},
};

constexpr bool indexed_by_kind() {
  if (std::size(kCodec) != obs::kTraceEventKindCount) return false;
  for (std::size_t i = 0; i < std::size(kCodec); ++i) {
    if (static_cast<std::size_t>(kCodec[i].kind) != i) return false;
  }
  return true;
}
static_assert(indexed_by_kind(), "one codec entry per kind, in kind order");

std::span<const Row> rows_of(Kind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < std::size(kCodec) ? kCodec[i].rows : std::span<const Row>{};
}

std::int64_t get(const obs::TraceEvent& ev, Slot slot) {
  switch (slot) {
    case Slot::kMsg: return ev.msg;
    case Slot::kAux: return static_cast<std::int64_t>(ev.aux);
    case Slot::kSession: return ev.session;
    case Slot::kDetail: return ev.detail;
    case Slot::kDir: return static_cast<std::int64_t>(ev.dir);
  }
  return 0;
}

/// Store `v` in `slot`; false when it is out of the field's range.
bool set(obs::TraceEvent& ev, Slot slot, std::int64_t v) {
  switch (slot) {
    case Slot::kMsg:
      ev.msg = v;
      return true;
    case Slot::kAux:
      if (v < 0) return false;
      ev.aux = static_cast<std::uint64_t>(v);
      return true;
    case Slot::kSession:
      if (v < 0 || v > UINT32_MAX) return false;
      ev.session = static_cast<std::uint32_t>(v);
      return true;
    case Slot::kDetail:
      if (v < 0 || v > UINT8_MAX) return false;
      ev.detail = static_cast<std::uint8_t>(v);
      return true;
    case Slot::kDir:
      if (v < 0 || v > 1) return false;
      ev.dir = static_cast<sim::Dir>(v);
      return true;
  }
  return false;
}

// --- tiny flat-object field extraction --------------------------------------
// The emitted lines are flat objects with unescaped string values, so a
// key-scan is exact here (and parse failures just yield nullopt).

std::optional<std::string> raw_field(const std::string& line,
                                     const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  std::size_t i = at + needle.size();
  if (i >= line.size()) return std::nullopt;
  if (line[i] == '"') {
    const std::size_t end = line.find('"', i + 1);
    if (end == std::string::npos) return std::nullopt;
    return line.substr(i + 1, end - i - 1);
  }
  std::size_t end = i;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  if (end == i) return std::nullopt;
  return line.substr(i, end - i);
}

std::optional<std::int64_t> to_int(const std::string& raw) {
  char* end = nullptr;
  const long long v = std::strtoll(raw.c_str(), &end, 10);
  if (end == raw.c_str() || *end != '\0') return std::nullopt;
  return static_cast<std::int64_t>(v);
}

std::optional<std::int64_t> int_field(const std::string& line,
                                      const std::string& key) {
  const auto raw = raw_field(line, key);
  if (!raw) return std::nullopt;
  return to_int(*raw);
}

/// The value `namer` spells as `text`.
std::optional<std::int64_t> value_named(const Namer& namer,
                                        const std::string& text) {
  for (std::uint64_t v = 0; v < namer.count; ++v) {
    if (text == namer.name(v)) return static_cast<std::int64_t>(v);
  }
  return std::nullopt;
}

std::optional<Kind> kind_named(const std::string& text) {
  for (std::size_t i = 0; i < obs::kTraceEventKindCount; ++i) {
    if (text == obs::to_cstr(static_cast<Kind>(i))) return static_cast<Kind>(i);
  }
  return std::nullopt;
}

}  // namespace

std::string to_jsonl(const obs::TraceEvent& ev) {
  std::string out = "{\"ts\":" + std::to_string(ev.ts_us) +
                    ",\"seq\":" + std::to_string(ev.seq) + ",\"ev\":\"" +
                    obs::to_cstr(ev.kind) + '"';
  for (const Row& row : rows_of(ev.kind)) {
    (out += ",\"") += row.key;
    out += "\":";
    const std::int64_t v = get(ev, row.slot);
    if (row.namer.name == nullptr) {
      out += std::to_string(v);
    } else if (row.namer.quoted) {
      ((out += '"') += row.namer.name(static_cast<std::uint64_t>(v))) += '"';
    } else {
      out += row.namer.name(static_cast<std::uint64_t>(v));
    }
  }
  // Trailing so every pre-fabric (backend 0) line stays byte-identical.
  if (ev.backend != 0) out += ",\"backend\":" + std::to_string(ev.backend);
  out += '}';
  return out;
}

std::optional<obs::TraceEvent> parse_jsonl(const std::string& line) {
  const auto ts = int_field(line, "ts");
  const auto seq = int_field(line, "seq");
  const auto ev_name = raw_field(line, "ev");
  if (!ts || !seq || !ev_name || *ts < 0 || *seq < 0) return std::nullopt;
  const auto kind = kind_named(*ev_name);
  if (!kind) return std::nullopt;

  obs::TraceEvent ev;
  ev.ts_us = static_cast<std::uint64_t>(*ts);
  ev.seq = static_cast<std::uint64_t>(*seq);
  ev.kind = *kind;
  for (const Row& row : rows_of(ev.kind)) {
    const auto raw = raw_field(line, row.key);
    if (!raw) return std::nullopt;
    const auto v = row.namer.name == nullptr ? to_int(*raw)
                                             : value_named(row.namer, *raw);
    if (!v || !set(ev, row.slot, *v)) return std::nullopt;
  }
  const auto backend = int_field(line, "backend");
  if (backend) {
    if (*backend < 0 || *backend > UINT32_MAX) return std::nullopt;
    ev.backend = static_cast<std::uint32_t>(*backend);
  }
  return ev;
}

void write_trace_jsonl(std::ostream& out,
                       const std::vector<obs::TraceEvent>& evs) {
  for (const obs::TraceEvent& ev : evs) out << to_jsonl(ev) << '\n';
}

std::optional<std::vector<obs::TraceEvent>> read_trace_jsonl(
    std::istream& in) {
  std::vector<obs::TraceEvent> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto ev = parse_jsonl(line);
    if (!ev) return std::nullopt;
    out.push_back(*ev);
  }
  return out;
}

void JsonlSink::record(const obs::TraceEvent& ev) {
  *out_ << to_jsonl(ev) << '\n';
}

// --- engine Chrome export ---------------------------------------------------

namespace {

// Track (tid) layout inside the single engine-run trace process.
constexpr int kTidSender = 1;
constexpr int kTidReceiver = 2;
constexpr int kTidChannelSR = 3;
constexpr int kTidChannelRS = 4;
constexpr int kTidEngine = 5;
constexpr int kTidFaultBase = 6;  // fault lanes stack upward from here

int channel_tid(sim::Dir d) {
  return d == sim::Dir::kSenderToReceiver ? kTidChannelSR : kTidChannelRS;
}

int proc_tid(std::uint8_t who) {
  return static_cast<sim::Proc>(who) == sim::Proc::kSender ? kTidSender
                                                           : kTidReceiver;
}

}  // namespace

void ChromeTraceSink::record(const obs::TraceEvent& ev) {
  const std::uint64_t step = ev.ts_us;
  const std::string msg = std::to_string(ev.msg);
  switch (ev.kind) {
    case Kind::kRunBegin:
      instants_.push_back({step, kTidEngine, "run_begin", "\"items\":" + msg});
      break;
    case Kind::kStep:
      // Process steps render as 1-step slices on the process's own track;
      // delivery actions are already covered by the deliver instants.
      if (static_cast<sim::ActionKind>(ev.detail) ==
          sim::ActionKind::kSenderStep) {
        instants_.push_back({step, kTidSender, "S-step", "", 1});
      } else if (static_cast<sim::ActionKind>(ev.detail) ==
                 sim::ActionKind::kReceiverStep) {
        instants_.push_back({step, kTidReceiver, "R-step", "", 1});
      }
      break;
    case Kind::kSend:
    case Kind::kDeliver:
      instants_.push_back(
          {step, channel_tid(ev.dir),
           (ev.kind == Kind::kSend ? "send " : "deliver ") + msg,
           "\"msg\":" + msg});
      break;
    case Kind::kWrite: {
      const std::string index = std::to_string(ev.aux);
      instants_.push_back({step, kTidReceiver, "write[" + index + "]",
                           "\"index\":" + index + ",\"item\":" + msg});
      break;
    }
    case Kind::kCrash:
      instants_.push_back({step, proc_tid(ev.detail), "crash-restart", ""});
      break;
    case Kind::kRestart:
      instants_.push_back(
          {step, proc_tid(ev.detail),
           ev.aux != 0 ? "restart (rehydrated)" : "restart (cold)",
           std::string("\"rehydrated\":") + (ev.aux != 0 ? "true" : "false") +
               ",\"records_replayed\":" + msg});
      break;
    case Kind::kStall:
      instants_.push_back({step, kTidEngine, "stall", ""});
      break;
    case Kind::kFault: {
      const auto kind = static_cast<fault::FaultKind>(ev.detail);
      const bool window = fault::is_window_fault(kind);
      const std::string dir = sim::to_cstr(ev.dir);
      const std::string name = std::string(fault::to_cstr(kind)) + " " + dir;
      const std::string args =
          "\"kind\":\"" + obs::json_escape(fault::to_cstr(kind)) +
          "\",\"dir\":\"" + dir +
          "\",\"count\":" + std::to_string(window ? 0 : ev.aux) +
          ",\"match\":" + msg;
      if (window) {
        spans_.push_back({step, step + ev.aux, name, args});
      } else {
        instants_.push_back({step, kTidFaultBase, name, args});
      }
      break;
    }
    default:  // scramble, converge, run_end and the wire kinds: not drawn
      break;
  }
}

void ChromeTraceSink::write_to(std::ostream& out) const {
  std::vector<obs::ChromeSpan> spans = spans_;
  std::vector<obs::ChromeTrack> tracks = {{kTidSender, "sender"},
                                          {kTidReceiver, "receiver"},
                                          {kTidChannelSR, "channel S->R"},
                                          {kTidChannelRS, "channel R->S"},
                                          {kTidEngine, "engine"}};
  const auto lanes = obs::place_fault_lanes(spans, kTidFaultBase);
  tracks.insert(tracks.end(), lanes.begin(), lanes.end());
  obs::write_chrome_trace(out, "stpx run", tracks, instants_, spans);
}

std::string ChromeTraceSink::to_json() const {
  std::ostringstream os;
  write_to(os);
  return os.str();
}

void ChromeTraceSink::clear() {
  instants_.clear();
  spans_.clear();
}

// --- wire Chrome export -----------------------------------------------------

namespace {

// Track (tid) layout inside the single wire trace process:
//   1                      rejects (session-unattributable)
//   2 .. 2+lanes-1         fault-window lanes (stacked like the engine's)
//   then one per shard     checkpoint flushes
//   then one per session   everything session-scoped
constexpr int kTidRejects = 1;
constexpr int kTidWireFaultBase = 2;

std::string instant_name(const obs::TraceEvent& ev) {
  std::ostringstream os;
  switch (ev.kind) {
    case Kind::kFrameSent:
      os << "send " << to_cstr(static_cast<FrameKind>(ev.detail)) << ' '
         << ev.msg;
      break;
    case Kind::kFrameReceived:
      os << "recv " << to_cstr(static_cast<FrameKind>(ev.detail)) << ' '
         << ev.msg;
      break;
    case Kind::kFrameShed:
      os << "shed";
      break;
    case Kind::kItem:
      os << "item[" << ev.msg << ']';
      break;
    case Kind::kSessionState:
      os << to_cstr(static_cast<SessionState>(ev.detail));
      break;
    case Kind::kRehydrate:
      os << "rehydrate@" << ev.msg;
      break;
    case Kind::kFrameRejected:
      os << "reject " << to_cstr(static_cast<RejectReason>(ev.detail));
      break;
    case Kind::kCheckpointFlush:
      os << "flush " << ev.msg;
      break;
    case Kind::kProbeAnswered:
      os << "probe-ack " << ev.msg;
      break;
    default:  // engine kinds: not part of a wire stream
      break;
  }
  return os.str();
}

std::string instant_args(const obs::TraceEvent& ev) {
  std::ostringstream os;
  switch (ev.kind) {
    case Kind::kFrameSent:
    case Kind::kFrameReceived:
      os << "\"dir\":\"" << sim::to_cstr(ev.dir) << "\",\"msg\":" << ev.msg;
      break;
    case Kind::kItem:
      os << "\"index\":" << ev.msg;
      break;
    case Kind::kRehydrate:
      os << "\"position\":" << ev.msg << ",\"state\":\""
         << to_cstr(static_cast<SessionState>(ev.detail)) << '"';
      break;
    case Kind::kCheckpointFlush:
      os << "\"records\":" << ev.msg << ",\"dur_us\":" << ev.aux;
      break;
    default:
      break;
  }
  return os.str();
}

}  // namespace

void write_wire_chrome_trace(std::ostream& out,
                             const std::vector<obs::TraceEvent>& evs,
                             const std::vector<TraceSpan>& windows) {
  std::vector<obs::ChromeSpan> spans;
  spans.reserve(windows.size());
  for (const TraceSpan& w : windows) {
    spans.push_back({w.begin_us, w.end_us, w.name, ""});
  }
  std::vector<obs::ChromeTrack> tracks = {{kTidRejects, "rejects"}};
  const auto lanes = obs::place_fault_lanes(spans, kTidWireFaultBase);
  tracks.insert(tracks.end(), lanes.begin(), lanes.end());

  // Census of shards (flush tracks) and sessions, numbered after the lanes.
  std::set<std::uint32_t> shards;
  std::set<std::uint32_t> sessions;
  for (const obs::TraceEvent& ev : evs) {
    if (ev.kind == Kind::kCheckpointFlush) {
      shards.insert(ev.session);
    } else if (ev.kind != Kind::kFrameRejected) {
      sessions.insert(ev.session);
    }
  }
  int next_tid = kTidWireFaultBase + static_cast<int>(lanes.size());
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
  for (const obs::TraceEvent& ev : evs) {
    if (ev.kind == Kind::kCheckpointFlush) {
      // Flushes are duration slices; stamp the span at flush *start*.
      const std::uint64_t begin = ev.ts_us >= ev.aux ? ev.ts_us - ev.aux : 0;
      events.push_back({begin, shard_tid.at(ev.session), instant_name(ev),
                        instant_args(ev), std::max<std::uint64_t>(ev.aux, 1)});
      continue;
    }
    const int tid = ev.kind == Kind::kFrameRejected
                        ? kTidRejects
                        : session_tid.at(ev.session);
    events.push_back(
        {ev.ts_us, tid, instant_name(ev), instant_args(ev), 0});
  }
  obs::write_chrome_trace(out, "stpx wire", tracks, events, spans);
}

}  // namespace stpx::net

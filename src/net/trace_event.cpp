#include "net/trace_event.hpp"

#include <cstdlib>
#include <sstream>

namespace stpx::net {

namespace {

/// The value of E (among its first `count`) whose to_cstr() is `s`.
template <typename E>
std::optional<E> from_cstr(const std::string& s, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (s == to_cstr(static_cast<E>(i))) return static_cast<E>(i);
  }
  return std::nullopt;
}

// --- tiny flat-object field extraction ------------------------------------
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

std::optional<std::int64_t> int_field(const std::string& line,
                                      const std::string& key) {
  const auto raw = raw_field(line, key);
  if (!raw) return std::nullopt;
  char* end = nullptr;
  const long long v = std::strtoll(raw->c_str(), &end, 10);
  if (end == raw->c_str() || *end != '\0') return std::nullopt;
  return static_cast<std::int64_t>(v);
}

}  // namespace

std::string to_jsonl(const TraceEvent& ev) {
  std::ostringstream os;
  os << "{\"ts\":" << ev.ts_us << ",\"seq\":" << ev.seq << ",\"ev\":\""
     << to_cstr(ev.kind) << '"';
  switch (ev.kind) {
    case TraceEventKind::kFrameSent:
    case TraceEventKind::kFrameReceived:
      os << ",\"session\":" << ev.session << ",\"kind\":\""
         << to_cstr(static_cast<FrameKind>(ev.detail)) << "\",\"dir\":\""
         << sim::to_cstr(ev.dir) << "\",\"msg\":" << ev.msg;
      break;
    case TraceEventKind::kFrameRejected:
      os << ",\"why\":\"" << to_cstr(static_cast<RejectReason>(ev.detail))
         << '"';
      break;
    case TraceEventKind::kFrameShed:
      os << ",\"session\":" << ev.session;
      break;
    case TraceEventKind::kItem:
      os << ",\"session\":" << ev.session << ",\"index\":" << ev.msg;
      break;
    case TraceEventKind::kSessionState:
      os << ",\"session\":" << ev.session << ",\"state\":\""
         << to_cstr(static_cast<SessionState>(ev.detail)) << '"';
      break;
    case TraceEventKind::kRehydrate:
      os << ",\"session\":" << ev.session << ",\"position\":" << ev.msg
         << ",\"state\":\"" << to_cstr(static_cast<SessionState>(ev.detail))
         << '"';
      break;
    case TraceEventKind::kCheckpointFlush:
      os << ",\"shard\":" << ev.session << ",\"records\":" << ev.msg
         << ",\"dur_us\":" << ev.aux;
      break;
    case TraceEventKind::kProbeAnswered:
      os << ",\"nonce\":" << ev.msg;
      break;
  }
  // Trailing so every pre-fabric (backend 0) line stays byte-identical.
  if (ev.backend != 0) os << ",\"backend\":" << ev.backend;
  os << '}';
  return os.str();
}

std::optional<TraceEvent> parse_jsonl(const std::string& line) {
  const auto ts = int_field(line, "ts");
  const auto seq = int_field(line, "seq");
  const auto ev_name = raw_field(line, "ev");
  if (!ts || !seq || !ev_name || *ts < 0 || *seq < 0) return std::nullopt;
  const auto kind =
      from_cstr<TraceEventKind>(*ev_name, kTraceEventKindCount);
  if (!kind) return std::nullopt;

  TraceEvent ev;
  ev.ts_us = static_cast<std::uint64_t>(*ts);
  ev.seq = static_cast<std::uint64_t>(*seq);
  ev.kind = *kind;

  const auto session = [&]() -> std::optional<std::uint32_t> {
    const auto v = int_field(
        line, ev.kind == TraceEventKind::kCheckpointFlush ? "shard"
                                                          : "session");
    if (!v || *v < 0 || *v > UINT32_MAX) return std::nullopt;
    return static_cast<std::uint32_t>(*v);
  };

  switch (ev.kind) {
    case TraceEventKind::kFrameSent:
    case TraceEventKind::kFrameReceived: {
      const auto s = session();
      const auto fk = raw_field(line, "kind");
      const auto dir = raw_field(line, "dir");
      const auto msg = int_field(line, "msg");
      if (!s || !fk || !dir || !msg) return std::nullopt;
      const auto fkv = from_cstr<FrameKind>(*fk, kMaxFrameKind + 1);
      const auto dirv = from_cstr<sim::Dir>(*dir, 2);
      if (!fkv || !dirv) return std::nullopt;
      ev.session = *s;
      ev.detail = static_cast<std::uint8_t>(*fkv);
      ev.dir = *dirv;
      ev.msg = *msg;
      break;
    }
    case TraceEventKind::kFrameRejected: {
      const auto why = raw_field(line, "why");
      if (!why) return std::nullopt;
      const auto rv = from_cstr<RejectReason>(*why, kRejectReasonCount);
      if (!rv) return std::nullopt;
      ev.detail = static_cast<std::uint8_t>(*rv);
      break;
    }
    case TraceEventKind::kFrameShed: {
      const auto s = session();
      if (!s) return std::nullopt;
      ev.session = *s;
      break;
    }
    case TraceEventKind::kItem: {
      const auto s = session();
      const auto index = int_field(line, "index");
      if (!s || !index) return std::nullopt;
      ev.session = *s;
      ev.msg = *index;
      break;
    }
    case TraceEventKind::kSessionState: {
      const auto s = session();
      const auto state = raw_field(line, "state");
      if (!s || !state) return std::nullopt;
      const auto sv = from_cstr<SessionState>(*state, kSessionStateCount);
      if (!sv) return std::nullopt;
      ev.session = *s;
      ev.detail = static_cast<std::uint8_t>(*sv);
      break;
    }
    case TraceEventKind::kRehydrate: {
      const auto s = session();
      const auto position = int_field(line, "position");
      const auto state = raw_field(line, "state");
      if (!s || !position || !state) return std::nullopt;
      const auto sv = from_cstr<SessionState>(*state, kSessionStateCount);
      if (!sv) return std::nullopt;
      ev.session = *s;
      ev.msg = *position;
      ev.detail = static_cast<std::uint8_t>(*sv);
      break;
    }
    case TraceEventKind::kCheckpointFlush: {
      const auto s = session();
      const auto records = int_field(line, "records");
      const auto dur = int_field(line, "dur_us");
      if (!s || !records || !dur || *dur < 0) return std::nullopt;
      ev.session = *s;
      ev.msg = *records;
      ev.aux = static_cast<std::uint64_t>(*dur);
      break;
    }
    case TraceEventKind::kProbeAnswered: {
      const auto nonce = int_field(line, "nonce");
      if (!nonce) return std::nullopt;
      ev.msg = *nonce;
      break;
    }
  }
  const auto backend = int_field(line, "backend");
  if (backend) {
    if (*backend < 0 || *backend > UINT32_MAX) return std::nullopt;
    ev.backend = static_cast<std::uint32_t>(*backend);
  }
  return ev;
}

}  // namespace stpx::net

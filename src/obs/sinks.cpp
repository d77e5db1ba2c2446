#include "obs/sinks.hpp"

#include <algorithm>
#include <cctype>
#include <ostream>
#include <sstream>

#include "util/expect.hpp"

namespace stpx::obs {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// Minimal recursive-descent JSON checker (see header for scope).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool run() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (depth_ > 256 || pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++depth_;
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; --depth_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; --depth_; return true; }
      return false;
    }
  }

  bool array() {
    ++depth_;
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; --depth_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; --depth_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digits()) return false;
    if (peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool json_valid(const std::string& text) { return JsonChecker(text).run(); }

// --- Chrome trace-event documents ------------------------------------------

std::vector<ChromeTrack> place_fault_lanes(std::vector<ChromeSpan>& spans,
                                           int first_tid) {
  std::stable_sort(spans.begin(), spans.end(),
                   [](const ChromeSpan& a, const ChromeSpan& b) {
                     return a.begin < b.begin;
                   });
  std::vector<std::uint64_t> lane_end;  // last end per lane
  for (ChromeSpan& s : spans) {
    std::size_t lane = 0;
    while (lane < lane_end.size() && lane_end[lane] > s.begin) ++lane;
    if (lane == lane_end.size()) lane_end.push_back(0);
    lane_end[lane] = s.end;
    s.tid = first_tid + static_cast<int>(lane);
  }
  std::vector<ChromeTrack> lanes;
  for (std::size_t lane = 0; lane < lane_end.size(); ++lane) {
    lanes.push_back({first_tid + static_cast<int>(lane),
                     lane == 0 ? "faults" : "faults (overflow lane)"});
  }
  return lanes;
}

void write_chrome_trace(std::ostream& out, const std::string& process,
                        const std::vector<ChromeTrack>& tracks,
                        const std::vector<ChromeEvent>& events,
                        const std::vector<ChromeSpan>& spans) {
  struct Record {
    std::uint64_t ts;
    int order;  // stable tiebreak: B(0) before events(1) before E(2)
    std::string json;
  };
  std::vector<Record> records;
  records.reserve(events.size() + 2 * spans.size());

  auto render = [](std::uint64_t ts, int tid, char ph,
                   const std::string& name, const std::string& args,
                   std::uint64_t dur) {
    std::ostringstream os;
    os << "{\"name\":\"" << json_escape(name) << "\",\"ph\":\"" << ph
       << "\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << ts;
    if (ph == 'X') os << ",\"dur\":" << dur;
    if (ph == 'i') os << ",\"s\":\"t\"";
    if (!args.empty()) os << ",\"args\":{" << args << '}';
    os << '}';
    return os.str();
  };

  for (const ChromeEvent& e : events) {
    const char ph = e.dur > 0 ? 'X' : 'i';
    records.push_back(
        {e.ts, 1, render(e.ts, e.tid, ph, e.name, e.args, e.dur)});
  }
  for (const ChromeSpan& s : spans) {
    records.push_back(
        {s.begin, 0, render(s.begin, s.tid, 'B', s.name, s.args, 0)});
    records.push_back({s.end, 2, render(s.end, s.tid, 'E', s.name, "", 0)});
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const Record& a, const Record& b) {
                     return a.ts != b.ts ? a.ts < b.ts : a.order < b.order;
                   });

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
         "\"args\":{\"name\":\""
      << json_escape(process) << "\"}}";
  for (const ChromeTrack& t : tracks) {
    out << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << t.tid << ",\"args\":{\"name\":\"" << json_escape(t.name) << "\"}}";
  }
  for (const Record& r : records) out << ',' << r.json;
  out << "]}";
}

}  // namespace stpx::obs

// Validator for BENCH_<name>.json reports (the bench_smoke ctest fixture).
//
// Reads each file argument, checks it parses as structurally valid JSON,
// and checks the report schema's required keys are present.  A report
// with a "perf" block must give every figure a finite number and a unit.
// Exit 0 iff every file passes — cheap enough to gate every CI run on.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/sinks.hpp"

namespace {

/// Checks the "perf" object written by obs::SweepReport:
/// {"<name>":{"value":<number>,"unit":"<unit>"},...}, non-empty.
bool valid_perf(const std::string& text, std::string* why) {
  const std::string open = "\"perf\":{";
  std::size_t at = text.find(open);
  if (at == std::string::npos) return true;  // the block is optional
  at += open.size();
  const auto take = [&](const std::string& lit) {
    if (text.compare(at, lit.size(), lit) != 0) return false;
    at += lit.size();
    return true;
  };
  const auto string_body = [&](std::string* out) {
    const std::size_t end = text.find('"', at);
    if (end == std::string::npos) return false;
    *out = text.substr(at, end - at);
    at = end + 1;
    return true;
  };
  std::size_t figures = 0;
  do {
    std::string name;
    std::string unit;
    if (!take("\"") || !string_body(&name) || name.empty() ||
        !take(":{\"value\":")) {
      *why = "malformed perf entry";
      return false;
    }
    const char* begin = text.c_str() + at;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin || !std::isfinite(v)) {
      *why = "perf." + name + " has no finite value";
      return false;
    }
    at += static_cast<std::size_t>(end - begin);
    if (!take(",\"unit\":\"") || !string_body(&unit) || unit.empty() ||
        !take("}")) {
      *why = "perf." + name + " has no unit";
      return false;
    }
    ++figures;
  } while (take(","));
  if (!take("}") || figures == 0) {
    *why = "malformed perf block";
    return false;
  }
  return true;
}

bool validate(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << path << ": cannot open\n";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  if (!stpx::obs::json_valid(text)) {
    std::cerr << path << ": not valid JSON\n";
    return false;
  }
  for (const char* key : {"\"name\"", "\"params\"", "\"trials\"", "\"ok\"",
                          "\"verdicts\"", "\"avg_steps\"",
                          "\"msgs_per_trial\"", "\"write_latency\"",
                          "\"trial_steps\""}) {
    if (text.find(key) == std::string::npos) {
      std::cerr << path << ": missing required key " << key << "\n";
      return false;
    }
  }
  std::string why;
  if (!valid_perf(text, &why)) {
    std::cerr << path << ": " << why << "\n";
    return false;
  }
  std::cout << path << ": ok\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: validate_bench_json <report.json>...\n";
    return 2;
  }
  bool ok = true;
  for (int i = 1; i < argc; ++i) ok = validate(argv[i]) && ok;
  return ok ? 0 : 1;
}

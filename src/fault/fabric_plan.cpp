#include "fault/fabric_plan.hpp"

#include <sstream>

#include "util/expect.hpp"

namespace stpx::fault {

namespace {

std::string group_to_text(const std::vector<std::uint32_t>& g) {
  std::ostringstream os;
  bool first = true;
  for (const std::uint32_t h : g) {
    if (!first) os << ',';
    first = false;
    os << h;
  }
  return os.str();
}

std::vector<std::uint32_t> group_from_text(const std::string& s,
                                           const std::string& where) {
  std::vector<std::uint32_t> out;
  std::istringstream is(s);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    STPX_EXPECT(!tok.empty() &&
                    tok.find_first_not_of("0123456789") == std::string::npos,
                "fabric_plan_from_text: bad host id '" + tok + "'" + where);
    out.push_back(static_cast<std::uint32_t>(std::stoul(tok)));
  }
  STPX_EXPECT(!out.empty(),
              "fabric_plan_from_text: empty partition group" + where);
  return out;
}

/// Parse "20ms" -> 20.  The unit is mandatory; anything else is malformed.
std::chrono::milliseconds ms_from_text(const std::string& s,
                                       const std::string& where) {
  STPX_EXPECT(s.size() > 2 && s.substr(s.size() - 2) == "ms" &&
                  s.find_first_not_of("0123456789") == s.size() - 2,
              "fabric_plan_from_text: bad time '" + s + "'" + where);
  return std::chrono::milliseconds(std::stol(s.substr(0, s.size() - 2)));
}

}  // namespace

std::string to_text(const FabricFaultPlan& plan) {
  if (plan.actions.empty()) return "-";
  std::ostringstream os;
  bool first = true;
  for (const FabricFaultAction& a : plan.actions) {
    if (!first) os << "; ";
    first = false;
    os << to_cstr(a.kind) << '@' << a.at.count() << "ms";
    const bool windowed = a.kind != FabricFaultKind::kBackendCrash &&
                          a.kind != FabricFaultKind::kRejoin;
    if (windowed) os << '+' << a.len.count() << "ms";
    if (is_partition_fault(a.kind)) {
      os << ' ' << group_to_text(a.group_a) << '|' << group_to_text(a.group_b);
    } else {
      os << " b" << a.backend;
    }
    if (a.after_items > 0) {
      os << " after b" << a.after_backend << ':' << a.after_items;
    }
  }
  return os.str();
}

FabricFaultPlan fabric_plan_from_text(const std::string& text) {
  FabricFaultPlan plan;
  // Normalize "; " separators to newlines, then parse line by line.
  std::string norm = text;
  for (std::size_t i = 0; i + 1 < norm.size(); ++i) {
    if (norm[i] == ';') norm[i] = '\n';
  }
  std::istringstream is(norm);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string head;
    if (!(ls >> head) || head == "-" || head[0] == '#') continue;
    const std::string where = " (line " + std::to_string(lineno) + ")";

    // head is "<kind>@<at>ms" or "<kind>@<at>ms+<len>ms" or
    // "<kind>@<start>ms..<end>ms".
    const auto at_pos = head.find('@');
    STPX_EXPECT(at_pos != std::string::npos,
                "fabric_plan_from_text: missing '@' in '" + head + "'" + where);
    const std::string op = head.substr(0, at_pos);
    std::string when = head.substr(at_pos + 1);

    FabricFaultAction a;
    if (op == "backend-crash") {
      a.kind = FabricFaultKind::kBackendCrash;
    } else if (op == "probe-blackout") {
      a.kind = FabricFaultKind::kProbeBlackout;
    } else if (op == "router-split") {
      a.kind = FabricFaultKind::kRouterSplit;
    } else if (op == "partition") {
      a.kind = FabricFaultKind::kPartition;
    } else if (op == "partition-oneway") {
      a.kind = FabricFaultKind::kPartitionOneWay;
    } else if (op == "rejoin") {
      a.kind = FabricFaultKind::kRejoin;
    } else {
      STPX_EXPECT(false,
                  "fabric_plan_from_text: unknown fault '" + op + "'" + where);
    }

    const auto plus = when.find('+');
    const auto span = when.find("..");
    if (plus != std::string::npos) {
      a.at = ms_from_text(when.substr(0, plus), where);
      a.len = ms_from_text(when.substr(plus + 1), where);
    } else if (span != std::string::npos) {
      a.at = ms_from_text(when.substr(0, span), where);
      const auto end = ms_from_text(when.substr(span + 2), where);
      STPX_EXPECT(end >= a.at,
                  "fabric_plan_from_text: window ends before it starts" +
                      where);
      a.len = end - a.at;
    } else {
      a.at = ms_from_text(when, where);
    }

    std::string scope;
    STPX_EXPECT(static_cast<bool>(ls >> scope),
                "fabric_plan_from_text: missing scope" + where);
    if (is_partition_fault(a.kind)) {
      const auto bar = scope.find('|');
      STPX_EXPECT(bar != std::string::npos,
                  "fabric_plan_from_text: partition needs 'a|b' groups" +
                      where);
      a.group_a = group_from_text(scope.substr(0, bar), where);
      a.group_b = group_from_text(scope.substr(bar + 1), where);
    } else {
      STPX_EXPECT(scope.size() > 1 && scope[0] == 'b',
                  "fabric_plan_from_text: expected 'b<id>', got '" + scope +
                      "'" + where);
      STPX_EXPECT(scope.find_first_not_of("0123456789", 1) ==
                      std::string::npos,
                  "fabric_plan_from_text: bad backend id '" + scope + "'" +
                      where);
      a.backend = static_cast<std::uint32_t>(std::stoul(scope.substr(1)));
    }

    // Optional progress anchor: "after b<id>:<items>".
    std::string word;
    if (ls >> word) {
      std::string anchor;
      STPX_EXPECT(word == "after" && static_cast<bool>(ls >> anchor),
                  "fabric_plan_from_text: expected 'after b<id>:<items>'" +
                      where);
      const auto colon = anchor.find(':');
      const bool digits =
          colon != std::string::npos && colon > 1 && anchor[0] == 'b' &&
          anchor.find_first_not_of("0123456789", 1) == colon &&
          colon + 1 < anchor.size() &&
          anchor.find_first_not_of("0123456789", colon + 1) ==
              std::string::npos;
      STPX_EXPECT(digits, "fabric_plan_from_text: bad anchor '" + anchor +
                              "'" + where);
      a.after_backend =
          static_cast<std::uint32_t>(std::stoul(anchor.substr(1, colon - 1)));
      a.after_items = std::stoull(anchor.substr(colon + 1));
      STPX_EXPECT(a.after_items > 0,
                  "fabric_plan_from_text: anchor needs items > 0" + where);
      STPX_EXPECT(!(ls >> word), "fabric_plan_from_text: trailing '" + word +
                                     "'" + where);
    }
    plan.actions.push_back(std::move(a));
  }
  return plan;
}

}  // namespace stpx::fault

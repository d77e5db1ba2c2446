#include "fault/plan.hpp"

#include <sstream>

#include "util/expect.hpp"

namespace stpx::fault {

namespace {

const char* dir_token(sim::Dir d) {
  return d == sim::Dir::kSenderToReceiver ? "SR" : "RS";
}

bool uses_dir(FaultKind k) {
  return k != FaultKind::kCrashSender && k != FaultKind::kCrashReceiver &&
         k != FaultKind::kScrambleState && !is_store_fault(k);
}

bool uses_proc(FaultKind k) {
  return is_store_fault(k) || k == FaultKind::kScrambleState;
}

bool uses_match(FaultKind k) {
  return k == FaultKind::kDropBurst || k == FaultKind::kDupBurst ||
         k == FaultKind::kBlackout || k == FaultKind::kCorruptPayload ||
         k == FaultKind::kForgeMessage;
}

bool uses_count(FaultKind k) {
  return k == FaultKind::kDropBurst || k == FaultKind::kDupBurst ||
         k == FaultKind::kCapInFlight || k == FaultKind::kLoseTail ||
         k == FaultKind::kCorruptPayload || k == FaultKind::kForgeMessage ||
         k == FaultKind::kScrambleState;
}

}  // namespace

std::string to_text(const FaultPlan& plan) {
  std::ostringstream os;
  for (const FaultAction& a : plan.actions) {
    os << to_cstr(a.kind) << " @" << to_cstr(a.trigger.kind) << " "
       << a.trigger.at;
    if (uses_dir(a.kind)) os << " dir " << dir_token(a.dir);
    if (uses_proc(a.kind)) os << " proc " << sim::to_cstr(a.proc);
    if (uses_count(a.kind)) os << " count " << a.count;
    if (is_window_fault(a.kind)) os << " len " << a.duration;
    if (uses_match(a.kind)) {
      os << " match ";
      if (a.match == kAnyMsg) {
        os << "*";
      } else {
        os << a.match;
      }
    }
    os << "\n";
  }
  return os.str();
}

FaultPlan plan_from_text(const std::string& text) {
  FaultPlan plan;
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const std::string where = " at line " + std::to_string(line_no);
    std::istringstream ls(line);
    std::string op;
    ls >> op;

    FaultAction a;
    if (op == "drop") {
      a.kind = FaultKind::kDropBurst;
    } else if (op == "dup") {
      a.kind = FaultKind::kDupBurst;
    } else if (op == "blackout") {
      a.kind = FaultKind::kBlackout;
    } else if (op == "freeze") {
      a.kind = FaultKind::kFreeze;
    } else if (op == "cap") {
      a.kind = FaultKind::kCapInFlight;
    } else if (op == "crash-sender") {
      a.kind = FaultKind::kCrashSender;
    } else if (op == "crash-receiver") {
      a.kind = FaultKind::kCrashReceiver;
    } else if (op == "torn-write") {
      a.kind = FaultKind::kTornWrite;
    } else if (op == "lose-tail") {
      a.kind = FaultKind::kLoseTail;
    } else if (op == "corrupt-record") {
      a.kind = FaultKind::kCorruptRecord;
    } else if (op == "stale-snapshot") {
      a.kind = FaultKind::kStaleSnapshot;
    } else if (op == "corrupt-payload") {
      a.kind = FaultKind::kCorruptPayload;
    } else if (op == "forge-message") {
      a.kind = FaultKind::kForgeMessage;
    } else if (op == "scramble-state") {
      a.kind = FaultKind::kScrambleState;
    } else {
      STPX_EXPECT(false, "plan_from_text: unknown fault '" + op + "'" + where);
    }

    std::string tok;
    ls >> tok;
    STPX_EXPECT(!tok.empty() && tok[0] == '@',
                "plan_from_text: expected @trigger" + where);
    const std::string trig = tok.substr(1);
    if (trig == "step") {
      a.trigger.kind = TriggerKind::kStep;
    } else if (trig == "writes") {
      a.trigger.kind = TriggerKind::kWrites;
    } else if (trig == "sends") {
      a.trigger.kind = TriggerKind::kSends;
    } else {
      STPX_EXPECT(false,
                  "plan_from_text: unknown trigger '" + trig + "'" + where);
    }
    ls >> a.trigger.at;
    STPX_EXPECT(!ls.fail(), "plan_from_text: missing trigger value" + where);

    while (ls >> tok) {
      if (tok == "dir") {
        std::string d;
        ls >> d;
        STPX_EXPECT(d == "SR" || d == "RS",
                    "plan_from_text: bad dir '" + d + "'" + where);
        a.dir = d == "SR" ? sim::Dir::kSenderToReceiver
                          : sim::Dir::kReceiverToSender;
      } else if (tok == "proc") {
        std::string p;
        ls >> p;
        STPX_EXPECT(p == "sender" || p == "receiver",
                    "plan_from_text: bad proc '" + p + "'" + where);
        a.proc = p == "sender" ? sim::Proc::kSender : sim::Proc::kReceiver;
      } else if (tok == "count") {
        ls >> a.count;
      } else if (tok == "len") {
        ls >> a.duration;
      } else if (tok == "match") {
        std::string m;
        ls >> m;
        a.match = m == "*" ? kAnyMsg
                           : static_cast<sim::MsgId>(std::stoll(m));
      } else {
        STPX_EXPECT(false,
                    "plan_from_text: unknown field '" + tok + "'" + where);
      }
      STPX_EXPECT(!ls.fail(), "plan_from_text: missing field value" + where);
    }
    plan.actions.push_back(a);
  }
  return plan;
}

FaultPlan sample_plan(Rng& rng, const SamplerConfig& cfg) {
  STPX_EXPECT(cfg.min_actions <= cfg.max_actions,
              "sample_plan: min_actions > max_actions");
  std::vector<FaultKind> menu;
  if (cfg.allow_drop) menu.push_back(FaultKind::kDropBurst);
  if (cfg.allow_dup) menu.push_back(FaultKind::kDupBurst);
  if (cfg.allow_blackout) menu.push_back(FaultKind::kBlackout);
  if (cfg.allow_freeze) menu.push_back(FaultKind::kFreeze);
  if (cfg.allow_cap) menu.push_back(FaultKind::kCapInFlight);
  if (cfg.allow_crash_sender) menu.push_back(FaultKind::kCrashSender);
  if (cfg.allow_crash_receiver) menu.push_back(FaultKind::kCrashReceiver);
  if (cfg.allow_torn_write) menu.push_back(FaultKind::kTornWrite);
  if (cfg.allow_lose_tail) menu.push_back(FaultKind::kLoseTail);
  if (cfg.allow_corrupt_record) menu.push_back(FaultKind::kCorruptRecord);
  if (cfg.allow_stale_snapshot) menu.push_back(FaultKind::kStaleSnapshot);
  if (cfg.allow_corrupt_payload) menu.push_back(FaultKind::kCorruptPayload);
  if (cfg.allow_forge_message) menu.push_back(FaultKind::kForgeMessage);
  if (cfg.allow_scramble_state) menu.push_back(FaultKind::kScrambleState);
  STPX_EXPECT(!menu.empty(), "sample_plan: every fault kind disabled");

  FaultPlan plan;
  const std::size_t n = static_cast<std::size_t>(
      rng.range(static_cast<std::int64_t>(cfg.min_actions),
                static_cast<std::int64_t>(cfg.max_actions)));
  for (std::size_t i = 0; i < n; ++i) {
    FaultAction a;
    a.kind = rng.pick(menu);
    // Write-count triggers arm on visible progress; step triggers cover the
    // early run where nothing is written yet.
    if (rng.chance(0.35) && cfg.max_writes_trigger > 0) {
      a.trigger = {TriggerKind::kWrites,
                   1 + rng.below(cfg.max_writes_trigger)};
    } else {
      a.trigger = {TriggerKind::kStep, rng.below(cfg.step_horizon)};
    }
    a.dir = rng.chance(0.5) ? sim::Dir::kSenderToReceiver
                            : sim::Dir::kReceiverToSender;
    if (uses_proc(a.kind)) {
      a.proc = rng.chance(0.5) ? sim::Proc::kSender : sim::Proc::kReceiver;
    }
    if (uses_count(a.kind)) {
      a.count = a.kind == FaultKind::kCapInFlight ? cfg.min_cap + rng.below(7)
                : a.kind == FaultKind::kLoseTail  ? 1 + rng.below(cfg.max_lose_tail)
                : a.kind == FaultKind::kCorruptPayload
                    ? 1 + rng.below(cfg.max_xor_mask)
                : a.kind == FaultKind::kScrambleState ? rng.below(1u << 16)
                                                      : 1 + rng.below(cfg.max_burst);
    }
    if (is_window_fault(a.kind)) a.duration = 1 + rng.below(cfg.max_duration);
    if (a.kind == FaultKind::kForgeMessage) {
      // Forged ids come from the finite alphabet, not the wildcard: a forge
      // must name the lie it injects so plans replay exactly.
      a.match = static_cast<sim::MsgId>(rng.below(cfg.max_forge_id));
    }
    plan.actions.push_back(a);
  }
  return plan;
}

FaultPlan periodic_plan(FaultKind kind, sim::Dir dir, std::uint64_t period,
                        std::uint64_t count, std::uint64_t horizon) {
  STPX_EXPECT(period >= 1, "periodic_plan: period must be >= 1");
  FaultPlan plan;
  plan.actions.reserve(horizon / period);
  for (std::uint64_t at = period; at <= horizon; at += period) {
    FaultAction a;
    a.kind = kind;
    a.trigger = {TriggerKind::kSends, at};
    a.dir = dir;
    a.count = count;
    plan.actions.push_back(a);
  }
  return plan;
}

}  // namespace stpx::fault

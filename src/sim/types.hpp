// Vocabulary of the simulation model (paper §2.2).
//
// A global state is (s_E, s_S, s_R).  A run is a sequence of global states;
// each transition is exactly one *action*: a sender step, a receiver step,
// or the delivery of one message to one process.  Messages are never
// delivered in the step they are sent, and at most one message is delivered
// per step — both assumptions taken directly from the paper (it notes all
// results hold without them; the engine enforces them for fidelity).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "seq/types.hpp"

namespace stpx::sim {

/// A message identifier.  For the paper's finite-alphabet channels this is an
/// index into M^S or M^R (two copies of the same id are indistinguishable —
/// that is the whole point).  Baseline protocols with unbounded headers
/// (Stenning, sliding window) encode their full message content into the id.
using MsgId = std::int64_t;

/// Direction of travel on the bidirectional link.
enum class Dir : std::uint8_t {
  kSenderToReceiver = 0,
  kReceiverToSender = 1,
};

constexpr const char* to_cstr(Dir d) {
  return d == Dir::kSenderToReceiver ? "S->R" : "R->S";
}

/// Which of the four action kinds a step performs.
enum class ActionKind : std::uint8_t {
  kSenderStep,
  kReceiverStep,
  kDeliverToReceiver,
  kDeliverToSender,
};

constexpr const char* to_cstr(ActionKind k) {
  switch (k) {
    case ActionKind::kSenderStep: return "S-step";
    case ActionKind::kReceiverStep: return "R-step";
    case ActionKind::kDeliverToReceiver: return "deliver->R";
    case ActionKind::kDeliverToSender: return "deliver->S";
  }
  return "?";
}

/// The two processes, by the engine's indexing convention (RunStats,
/// crash counters, probe events all use 0 = sender, 1 = receiver).
enum class Proc : std::uint8_t {
  kSender = 0,
  kReceiver = 1,
};

constexpr const char* to_cstr(Proc p) {
  return p == Proc::kSender ? "sender" : "receiver";
}

/// Structured outcome of a driven run, most severe first.
enum class RunVerdict : std::uint8_t {
  kSafetyViolation,    // Y stopped being a prefix of X
  kRecoveryViolation,  // Y stopped being a prefix of X at/after a crash-restart
  kStabilizationViolation,  // a transient corruption was injected and the
                            // run failed the suffix-safety convergence
                            // criterion (EngineConfig::convergence_window)
  kStalled,            // watchdog: no write progress within stall_window
  kBudgetExhausted,    // hit max_steps without completing
  kCompleted,          // Y == X (or, post-corruption, converged)
};

constexpr const char* to_cstr(RunVerdict v) {
  switch (v) {
    case RunVerdict::kSafetyViolation: return "safety-violation";
    case RunVerdict::kRecoveryViolation: return "recovery-violation";
    case RunVerdict::kStabilizationViolation:
      return "stabilization-violation";
    case RunVerdict::kStalled: return "stalled";
    case RunVerdict::kBudgetExhausted: return "budget-exhausted";
    case RunVerdict::kCompleted: return "completed";
  }
  return "?";
}

/// Storage-fault kinds a fault plan can aim at a process's stable store.
/// Declared here so the sim layer needs no dependency on the fault library;
/// the damage itself is executed by store::IStableStore's fault entry
/// points, which the engine invokes when a TickEffect requests one.
enum class StoreFaultKind : std::uint8_t {
  kTornWrite,      // the store's next append is truncated mid-record
  kLoseTail,       // the newest `count` log records vanish
  kCorruptRecord,  // bytes of the newest record flip (checksum catches it)
  kStaleSnapshot,  // roll compaction back to the previous snapshot + log
};

constexpr const char* to_cstr(StoreFaultKind k) {
  switch (k) {
    case StoreFaultKind::kTornWrite: return "torn-write";
    case StoreFaultKind::kLoseTail: return "lose-tail";
    case StoreFaultKind::kCorruptRecord: return "corrupt-record";
    case StoreFaultKind::kStaleSnapshot: return "stale-snapshot";
  }
  return "?";
}

/// One scheduler decision.  `msg` is meaningful only for deliveries.
struct Action {
  ActionKind kind = ActionKind::kSenderStep;
  MsgId msg = -1;

  friend bool operator==(const Action&, const Action&) = default;
};

std::string to_string(const Action& a);

/// What the sender does in one of its steps.
struct SenderEffect {
  std::optional<MsgId> send;  // at most one message per step
};

/// What the receiver does in one of its steps.  `writes` are appended to the
/// output tape Y (the model writes one item per step; allowing a short burst
/// loses nothing and simplifies protocols that learn several items at once —
/// cf. the paper's discussion of why t_i is defined via knowledge).
struct ReceiverEffect {
  std::optional<MsgId> send;
  std::vector<seq::DataItem> writes;
};

}  // namespace stpx::sim

// Declarative fault plans: scripted adversarial schedules for the chaos
// layer.
//
// A FaultPlan is a timeline of actions, each armed by a *trigger* (a step
// count, an output-tape write count, or a channel-write count) and scoped by
// a direction and an optional message-id predicate.  The vocabulary covers
// the adversaries of the paper and its neighbours:
//
//   * drop / dup bursts  — the deletion and duplication moves of Theorems
//     1–2, fired as finite volleys instead of per-message policy;
//   * blackout windows   — asymmetric loss: every send in one direction
//     vanishes for a while (Graham-style repeated deletion);
//   * freeze windows     — the starving scheduler: nothing is deliverable in
//     one direction for a while (reordering taken to its fair-run limit);
//   * in-flight caps     — a bounded channel that silently sheds overflow;
//   * crash-restarts     — the self-stabilizing-channel setting: a process
//     loses its volatile state mid-run (output tape survives).
//
// Plans are plain data: comparable, text-serializable (one action per
// line), samplable from a seed, and shrinkable — which is what lets the
// soak harness delta-debug a failing schedule to a minimal counterexample.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"
#include "util/rng.hpp"

namespace stpx::fault {

/// Matches any message id (the default predicate).
inline constexpr sim::MsgId kAnyMsg = -1;

enum class TriggerKind : std::uint8_t {
  kStep,    // fire when the global step count reaches `at`
  kWrites,  // fire when the output tape holds `at` items
  kSends,   // fire when `at` messages have been handed to the channel (both
            // directions, counting sends swallowed by earlier faults)
};

constexpr const char* to_cstr(TriggerKind k) {
  switch (k) {
    case TriggerKind::kStep: return "step";
    case TriggerKind::kWrites: return "writes";
    case TriggerKind::kSends: return "sends";
  }
  return "?";
}

/// Fire-once arming condition: satisfied when the watched counter first
/// reaches `at`.
struct Trigger {
  TriggerKind kind = TriggerKind::kStep;
  std::uint64_t at = 0;

  friend bool operator==(const Trigger&, const Trigger&) = default;
};

enum class FaultKind : std::uint8_t {
  kDropBurst,  // delete up to `count` deliverable copies (matching `match`)
  kDupBurst,   // re-send up to `count` copies of deliverable ids (matching)
  kBlackout,   // for `duration` steps, sends in `dir` (matching) vanish
  kFreeze,     // for `duration` steps, nothing in `dir` is deliverable
  kCapInFlight,     // from trigger on, sends that would exceed `count`
                    // deliverable copies in `dir` are shed
  kCrashSender,     // crash-restart the sender process
  kCrashReceiver,   // crash-restart the receiver process
  kTornWrite,       // `proc`'s stable store: next append truncated
  kLoseTail,        // `proc`'s stable store: newest `count` records vanish
  kCorruptRecord,   // `proc`'s stable store: newest record's bytes flip
  kStaleSnapshot,   // `proc`'s stable store: roll back the last compaction
  kCorruptPayload,  // mutate an in-flight message in `dir` (id ^= count)
  kForgeMessage,    // inject `count` copies of a never-sent id into `dir`
  kScrambleState,   // overwrite `proc`'s volatile+durable state with
                    // adversarial bytes derived from `count` (the salt)
};

constexpr const char* to_cstr(FaultKind k) {
  switch (k) {
    case FaultKind::kDropBurst: return "drop";
    case FaultKind::kDupBurst: return "dup";
    case FaultKind::kBlackout: return "blackout";
    case FaultKind::kFreeze: return "freeze";
    case FaultKind::kCapInFlight: return "cap";
    case FaultKind::kCrashSender: return "crash-sender";
    case FaultKind::kCrashReceiver: return "crash-receiver";
    case FaultKind::kTornWrite: return "torn-write";
    case FaultKind::kLoseTail: return "lose-tail";
    case FaultKind::kCorruptRecord: return "corrupt-record";
    case FaultKind::kStaleSnapshot: return "stale-snapshot";
    case FaultKind::kCorruptPayload: return "corrupt-payload";
    case FaultKind::kForgeMessage: return "forge-message";
    case FaultKind::kScrambleState: return "scramble-state";
  }
  return "?";
}

/// True for the storage-fault kinds, which are scoped by `proc` rather
/// than a channel direction.
constexpr bool is_store_fault(FaultKind k) {
  return k == FaultKind::kTornWrite || k == FaultKind::kLoseTail ||
         k == FaultKind::kCorruptRecord || k == FaultKind::kStaleSnapshot;
}

/// True for the window kinds, which read `duration` (and no fault kind
/// reads both `duration` and `count`).
constexpr bool is_window_fault(FaultKind k) {
  return k == FaultKind::kBlackout || k == FaultKind::kFreeze;
}

/// True for the transient-corruption kinds of the stabilization layer
/// (PR 4): faults that *lie* — mutate payloads, forge messages, or scramble
/// process state — rather than merely losing or replaying.
constexpr bool is_corruption_fault(FaultKind k) {
  return k == FaultKind::kCorruptPayload || k == FaultKind::kForgeMessage ||
         k == FaultKind::kScrambleState;
}

/// One scripted fault.  Fields beyond `kind`/`trigger` are meaningful only
/// where the kind uses them (see FaultKind); unused fields stay at their
/// defaults so structural equality is well-defined.
struct FaultAction {
  FaultKind kind = FaultKind::kDropBurst;
  Trigger trigger;
  sim::Dir dir = sim::Dir::kSenderToReceiver;  // channel-scoped kinds only
  sim::Proc proc = sim::Proc::kSender;         // storage-fault kinds only
  std::uint64_t count = 0;     // burst size / cap value (0 = unlimited burst)
                               // / lose-tail depth
  std::uint64_t duration = 0;  // window length in steps
  sim::MsgId match = kAnyMsg;  // message predicate for drop/dup/blackout

  friend bool operator==(const FaultAction&, const FaultAction&) = default;
};

/// A timeline of scripted faults.  Actions whose triggers fire in the same
/// step execute in plan order.
struct FaultPlan {
  std::vector<FaultAction> actions;

  bool empty() const { return actions.empty(); }
  std::size_t size() const { return actions.size(); }

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// One-line-per-action text form, e.g.
///   "drop @step 120 dir SR count 3 match *"
///   "crash-receiver @writes 2"
///   "lose-tail @writes 2 proc receiver count 1"
std::string to_text(const FaultPlan& plan);

/// Inverse of to_text; throws ContractError on malformed input.
FaultPlan plan_from_text(const std::string& text);

/// Shape of randomly sampled plans.  All windows and bursts are finite, so
/// sampled plans are *fair*: they perturb but never permanently silence the
/// channel (caps are kept >= 2 for the same reason).
struct SamplerConfig {
  std::size_t min_actions = 1;
  std::size_t max_actions = 6;
  std::uint64_t step_horizon = 4000;  // triggers drawn from [0, horizon)
  std::uint64_t max_writes_trigger = 8;
  std::uint64_t max_burst = 6;        // drop/dup burst sizes in [1, max]
  std::uint64_t max_duration = 800;   // window lengths in [1, max]
  std::uint64_t min_cap = 2;          // in-flight caps in [min_cap, min_cap+6]
  /// Which fault kinds the sampler may emit.
  bool allow_drop = true;
  bool allow_dup = true;
  bool allow_blackout = true;
  bool allow_freeze = true;
  bool allow_cap = false;
  bool allow_crash_sender = false;
  bool allow_crash_receiver = false;
  /// Storage faults (meaningful only when the run attaches stable stores;
  /// the engine ignores requests against an absent store).
  bool allow_torn_write = false;
  bool allow_lose_tail = false;
  bool allow_corrupt_record = false;
  bool allow_stale_snapshot = false;
  std::uint64_t max_lose_tail = 2;  // lose-tail depths in [1, max]
  /// Transient-corruption faults (opt-in: they attack message bytes and
  /// process state, which only stabilizing protocols are expected to
  /// survive — see docs/STABILIZATION.md).
  bool allow_corrupt_payload = false;
  bool allow_forge_message = false;
  bool allow_scramble_state = false;
  std::uint64_t max_forge_id = 8;   // forged ids drawn from [0, max)
  std::uint64_t max_xor_mask = 64;  // corrupt-payload masks in [1, max]
};

/// Deterministically sample a plan (same rng state -> same plan).
FaultPlan sample_plan(Rng& rng, const SamplerConfig& cfg);

/// A sustained-fault timeline: one `kind` action of size `count`, scoped
/// to `dir`, every `period` sends, for triggers in [period, horizon].
/// This turns the burst-oriented grammar into steady-state loss or
/// duplication — e.g. periodic_plan(kDropBurst, SR, 10, 1, 100000) loses
/// every 10th frame.  The wire transport layer (net::LoopbackTransport)
/// runs its loss benches on exactly these plans; requires period >= 1.
FaultPlan periodic_plan(FaultKind kind, sim::Dir dir, std::uint64_t period,
                        std::uint64_t count, std::uint64_t horizon);

}  // namespace stpx::fault

// The lock-step simulation engine.
//
// Wires a sender protocol, receiver protocol, channel, and scheduler into
// the paper's run model: each step applies exactly one action; messages sent
// in a step become deliverable only in later steps; the output tape Y is
// checked against the prefix-safety property online.
//
// Two usage modes:
//   * run(x)           — drive the scheduler until completion / violation /
//                        step cap; the normal mode for experiments;
//   * begin/apply      — externally controlled stepping, used by the attack
//                        synthesizer and the knowledge explorer to branch
//                        runs (Engine is deep-copyable via clone()).
#pragma once

#include <memory>
#include <optional>

#include "obs/probe.hpp"
#include "sim/channel_iface.hpp"
#include "sim/process.hpp"
#include "sim/scheduler_iface.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"
#include "store/stable_store.hpp"

namespace stpx::sim {

struct EngineConfig {
  std::uint64_t max_steps = 200000;
  bool record_trace = false;
  bool record_histories = false;
  /// Stop run() as soon as Y == X.
  bool stop_when_complete = true;
  /// Watchdog: abort run() if the output tape makes no progress for this
  /// many consecutive steps (livelock / quiescence detection).  0 disables.
  std::uint64_t stall_window = 0;
  /// Optional run observer (non-owning; see obs/probe.hpp).  Null — the
  /// default — costs one pointer test per event site and records nothing.
  /// clone() shares the pointer, so attach probes to linear runs only.
  obs::IProbe* probe = nullptr;
  /// Optional stable stores (non-owning; see store/stable_store.hpp).
  /// When attached, the engine appends a checkpoint record after every
  /// durable state transition of that process (commit point) and
  /// rehydrates from the store on crash_restart_*.  Null — the default —
  /// keeps crash-restart the pure amnesia fault.  clone() shares the
  /// pointers, so attach stores to linear runs only.
  store::IStableStore* sender_store = nullptr;
  store::IStableStore* receiver_store = nullptr;
  /// Fold the log into the snapshot every this-many appends (0 = never).
  std::uint64_t compact_every = 32;
  /// Suffix-safety slack k for runs with injected transient corruption
  /// (corrupt-payload / forge-message / scramble-state).  0 — the default —
  /// keeps the legacy regime: the run halts at the first prefix violation
  /// and a post-corruption violation is verdicted kStabilizationViolation.
  /// k > 0 lets the run continue past post-corruption violations and
  /// declares convergence when the newly written output is a correct
  /// continuation within k items (see Engine::converged()).
  std::uint64_t convergence_window = 0;
};

struct RunStats {
  std::uint64_t steps = 0;
  std::uint64_t sent[2] = {0, 0};       // indexed by Dir
  std::uint64_t delivered[2] = {0, 0};  // indexed by Dir
  /// Crash-restarts executed, indexed 0 = sender, 1 = receiver.
  std::uint64_t crashes[2] = {0, 0};
  /// Restarts that rehydrated state from a stable store.
  std::uint64_t recoveries = 0;
  /// Store records scanned across all recoveries.
  std::uint64_t records_replayed = 0;
  /// Payload corruptions + forgeries executed by the channel layer.
  std::uint64_t corruptions = 0;
  /// State scrambles the target process accepted / rejected (a rejection —
  /// every mutated blob failed restore_state() validation — is the hardened
  /// protocol's detection-as-defense and counts as *no* corruption).
  std::uint64_t scrambles_applied = 0;
  std::uint64_t scrambles_rejected = 0;
  /// Step index at which output item i was written.
  std::vector<std::uint64_t> write_step;
};

struct RunResult {
  seq::Sequence input;
  seq::Sequence output;
  bool safety_ok = true;
  std::uint64_t first_violation_step = 0;
  bool completed = false;  // output == input
  /// Watchdog verdict (only ever true when stall_window > 0).
  bool stalled = false;
  /// Suffix-safety convergence held at run end (always true for completed
  /// corruption-free runs; see Engine::converged()).
  bool converged = false;
  RunVerdict verdict = RunVerdict::kBudgetExhausted;
  RunStats stats;
  std::vector<TraceEvent> trace;            // if record_trace
  LocalHistory receiver_history;            // if record_histories
  LocalHistory sender_history;              // if record_histories
};

class Engine {
 public:
  Engine(std::unique_ptr<ISender> sender, std::unique_ptr<IReceiver> receiver,
         std::unique_ptr<IChannel> channel,
         std::unique_ptr<IScheduler> scheduler, EngineConfig config);

  Engine(const Engine& other);
  Engine& operator=(const Engine&) = delete;

  /// Reset everything and install input sequence `x`.
  void begin(const seq::Sequence& x);

  /// Current scheduler view (legal deliveries etc.).  step_once() refills
  /// one kept view in place instead, so building the view allocates nothing
  /// once its lists have grown to size.
  SchedView view() const;

  /// True iff `a` is applicable now (deliveries must name a deliverable
  /// message).
  bool legal(const Action& a) const;

  /// Apply one action.  Precondition: legal(a).
  void apply(const Action& a);

  /// Crash-restart a process: its volatile local state is reset to the
  /// initial state (the sender re-reads X from its code, per the model; the
  /// receiver forgets everything) while the engine-owned output tape Y and
  /// the channel contents survive.  This is the self-stabilization /
  /// amnesia fault; protocols whose progress lives only in volatile state
  /// must re-earn it — or violate safety trying.
  void crash_restart_sender();
  void crash_restart_receiver();

  /// Ask the scheduler for an action and apply it.  Returns the action.
  Action step_once();

  /// Drive to completion / violation / cap from the current state.
  void run_to_completion();

  /// begin(x) then run_to_completion() then result().
  RunResult run(const seq::Sequence& x);

  /// Snapshot of the run so far.
  RunResult result() const;

  // --- fine-grained accessors for the analysis layers -------------------
  const seq::Sequence& input() const { return x_; }
  const seq::Sequence& output() const { return y_; }
  bool safety_ok() const { return safety_ok_; }
  bool completed() const { return y_ == x_; }
  bool stalled() const { return stalled_; }
  /// Whether a transient corruption (payload / forgery / accepted state
  /// scramble) has struck this run.
  bool corruption_seen() const { return corruption_seen_; }
  /// The suffix-safety convergence criterion of the stabilization layer.
  /// Without corruption it is plain completion.  After the *last* injected
  /// corruption — with p = |Y| and c = |correct prefix of Y| recorded at
  /// that moment — let t be the maximal terminal match (the last t items of
  /// Y equal the last t items of X).  The run converged iff Y ends with X's
  /// ending (t >= 1), the continuation reaches back far enough that at most
  /// k items of X are lost (|X| - t <= c + k), and at most k post-corruption
  /// garbage items precede the correct tail ((|Y| - p) - t <= k), where
  /// k = EngineConfig::convergence_window.  Duplicated items inside the
  /// matched tail are tolerated: re-sending is how protocols re-converge.
  bool converged() const;
  /// Structured verdict of the run so far (same logic result() records).
  /// A safety violation at or after the first injected corruption is
  /// classified by the suffix-safety criterion (converged -> kCompleted,
  /// else kStabilizationViolation) — this outranks the crash-restart
  /// classification because corruption faults *lie* to the protocol, which
  /// no recovery layer is expected to absorb.  A safety violation at or
  /// after the first crash-restart (and before any corruption) is a
  /// recovery violation: the protocol was safe until a restart lost (or
  /// mis-restored) state, so the blame lies with recovery, not the
  /// steady-state protocol.
  RunVerdict verdict() const {
    if (!safety_ok_) {
      if (corruption_seen_ &&
          first_violation_step_ >= first_corruption_step_) {
        return converged() ? RunVerdict::kCompleted
                           : RunVerdict::kStabilizationViolation;
      }
      return (first_crash_step_ &&
              first_violation_step_ >= *first_crash_step_)
                 ? RunVerdict::kRecoveryViolation
                 : RunVerdict::kSafetyViolation;
    }
    if (completed() || (corruption_seen_ && converged())) {
      return RunVerdict::kCompleted;
    }
    return stalled_ ? RunVerdict::kStalled : RunVerdict::kBudgetExhausted;
  }
  std::uint64_t steps() const { return stats_.steps; }
  /// Step at which the output tape last grew (0 if it never has).
  std::uint64_t last_progress_step() const { return last_progress_step_; }
  const IChannel& channel() const { return *channel_; }
  IChannel& channel() { return *channel_; }
  const LocalHistory& receiver_history() const { return receiver_hist_; }
  const LocalHistory& sender_history() const { return sender_hist_; }
  const EngineConfig& config() const { return config_; }

  std::unique_ptr<Engine> clone() const {
    return std::make_unique<Engine>(*this);
  }

 private:
  /// Overwrite `v` with the current view, reusing its buffers.
  void fill_view(SchedView& v) const;
  void note_send(Dir dir, MsgId msg);
  /// Append a checkpoint when `who`'s durable state changed this action.
  void persist(Proc who);
  /// Execute one requested storage fault (no-op without a store).
  void apply_store_fault(const StoreFaultRequest& rq);
  /// Hand `ev`, stamped with the current step, to the attached probe
  /// (callers test config_.probe first, so a run without one pays only
  /// that test).
  void report(obs::TraceEvent ev) const;
  /// recover() + restore_state() + a probe restart event for a restarted
  /// `who`.
  void rehydrate(Proc who);
  /// Execute one requested state scramble: mutate `who`'s save_state() blob
  /// deterministically from `salt` and force it back through
  /// restore_state().  Retries a few mutations; a process that rejects all
  /// of them (blob validation) is counted scrambles_rejected and suffers no
  /// corruption.
  void scramble_state(Proc who, std::uint64_t salt);
  /// Record that a corruption struck *now* (p/c snapshot for converged()).
  void note_corruption();

  std::unique_ptr<ISender> sender_;
  std::unique_ptr<IReceiver> receiver_;
  std::unique_ptr<IChannel> channel_;
  std::unique_ptr<IScheduler> scheduler_;
  EngineConfig config_;

  seq::Sequence x_;
  seq::Sequence y_;
  bool safety_ok_ = true;
  bool stalled_ = false;
  std::uint64_t last_progress_step_ = 0;
  std::uint64_t first_violation_step_ = 0;
  /// Step of the first crash-restart (recovery-violation classification).
  std::optional<std::uint64_t> first_crash_step_;
  // --- stabilization bookkeeping (see converged()) ----------------------
  bool corruption_seen_ = false;
  std::uint64_t first_corruption_step_ = 0;
  std::size_t pre_corruption_len_ = 0;  // |Y| at the last corruption
  std::size_t corrupt_prefix_c_ = 0;    // correct prefix of Y at that moment
  std::size_t correct_prefix_ = 0;      // longest correct prefix of Y so far
  /// Last checkpoint appended per process (skip no-op appends).
  std::string last_saved_[2];
  RunStats stats_;
  std::vector<TraceEvent> trace_;
  LocalHistory receiver_hist_;
  LocalHistory sender_hist_;
  bool begun_ = false;
  /// step_once()'s scheduler view; not run state, so a clone starts empty.
  SchedView view_;
};

}  // namespace stpx::sim

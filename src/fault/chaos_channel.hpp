// ChaosChannel — a fault-injecting decorator around any sim::IChannel.
//
// The decorator forwards the IChannel contract to the wrapped channel and
// superimposes a scripted FaultPlan on it, advanced by the engine's
// per-step tick():
//
//   * burst actions (drop, dup) mutate the inner channel the moment their
//     trigger fires;
//   * window actions (blackout, freeze) intercept the contract for a span
//     of steps — blackout swallows send()s, freeze empties deliverable()
//     and copies() in one direction;
//   * cap actions shed send()s that would exceed a per-direction bound on
//     deliverable copies;
//   * crash actions are returned to the engine as TickEffects (only the
//     engine can reach the processes).
//
// Determinism: the decorator holds no RNG.  (plan, inner channel,
// scheduler, seed, input) fully determines a run, so any chaos failure is
// replayable from its FaultPlan text — the property the soak harness's
// minimizer relies on.  reset() re-arms the plan, clone() deep-copies inner
// and timeline state.
#pragma once

#include <memory>

#include "fault/plan.hpp"
#include "obs/probe.hpp"
#include "sim/channel_iface.hpp"

namespace stpx::fault {

/// Observability counters for reporting and tests.
struct ChaosStats {
  std::uint64_t actions_fired = 0;
  std::uint64_t copies_dropped = 0;     // by drop bursts
  std::uint64_t copies_duplicated = 0;  // by dup bursts
  std::uint64_t sends_blacked_out = 0;  // swallowed by blackout windows
  std::uint64_t sends_shed = 0;         // swallowed by in-flight caps
  std::uint64_t crashes_requested = 0;
  std::uint64_t store_faults_requested = 0;
  std::uint64_t payloads_corrupted = 0;   // in-flight ids mutated
  std::uint64_t messages_forged = 0;      // never-sent copies injected
  std::uint64_t scrambles_requested = 0;  // state scrambles handed upward
};

class ChaosChannel final : public sim::IChannel {
 public:
  ChaosChannel(std::unique_ptr<sim::IChannel> inner, FaultPlan plan);
  ChaosChannel(const ChaosChannel& other);
  ChaosChannel& operator=(const ChaosChannel&) = delete;

  void reset() override;
  sim::TickEffect tick(const sim::ChannelTick& t) override;
  void send(sim::Dir dir, sim::MsgId msg) override;
  std::vector<sim::MsgId> deliverable(sim::Dir dir) const override;
  void deliverable_into(sim::Dir dir,
                        std::vector<sim::MsgId>& out) const override;
  std::uint64_t copies(sim::Dir dir, sim::MsgId msg) const override;
  void deliver(sim::Dir dir, sim::MsgId msg) override;
  bool can_drop() const override { return inner_->can_drop(); }
  void drop(sim::Dir dir, sim::MsgId msg) override;
  std::unique_ptr<sim::IChannel> clone() const override;
  std::string name() const override { return "chaos(" + inner_->name() + ")"; }

  const FaultPlan& plan() const { return plan_; }
  const ChaosStats& stats() const { return stats_; }
  const sim::IChannel& inner() const { return *inner_; }

  /// Report fired fault actions to `probe` (non-owning; null disables).
  /// stp::with_chaos() forwards the run's EngineConfig::probe here so fault
  /// events land in the same stream as the engine's.  clone() shares the
  /// pointer.
  void set_probe(obs::IProbe* probe) { probe_ = probe; }

 private:
  struct Window {
    FaultKind kind;  // kBlackout or kFreeze
    sim::Dir dir;
    sim::MsgId match;
    std::uint64_t end_step;  // active while step < end_step
  };

  bool frozen(sim::Dir dir) const;
  bool blacked_out(sim::Dir dir, sim::MsgId msg) const;
  std::uint64_t deliverable_copies(sim::Dir dir) const;
  /// Execute one triggered action.  Returns true when the action is spent;
  /// corrupt-payload returns false (stays armed) until a matching message
  /// is actually in flight to corrupt.
  bool fire(const FaultAction& a, sim::TickEffect& fx);

  std::unique_ptr<sim::IChannel> inner_;
  FaultPlan plan_;
  // --- timeline state (all re-armed by reset()) -------------------------
  std::uint64_t step_ = 0;
  std::uint64_t sends_seen_ = 0;  // attempted sends, both directions
  std::vector<bool> fired_;
  std::vector<Window> windows_;
  std::uint64_t cap_[2] = {0, 0};  // 0 = no cap active (per Dir)
  ChaosStats stats_;
  obs::IProbe* probe_ = nullptr;  // non-owning
};

}  // namespace stpx::fault

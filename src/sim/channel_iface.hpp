// Channel (environment) interface.
//
// The environment's local state s_E tracks, per direction and message id,
// what is deliverable (the paper's dlvrble vectors).  Concrete channels give
// this different semantics:
//   * dup channel  — a *set*: once sent, a message is deliverable forever
//     (arbitrarily many copies); deliver() does not consume.
//   * del channel  — a *multiset*: sent-minus-delivered copy counts;
//     deliver() consumes a copy, drop() deletes one (the adversary's move).
//   * FIFO channels — order-preserving queues for baselines (ABP) that
//     assume no reordering.
// Reordering needs no mechanism anywhere: which deliverable message arrives
// next is simply the scheduler's choice.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace stpx::sim {

/// Engine-visible progress snapshot handed to the channel once per step,
/// *before* the scheduler chooses the step's action.  Plain channels ignore
/// it; fault-injecting decorators (fault::ChaosChannel) use it to advance
/// their scripted timelines.
struct ChannelTick {
  std::uint64_t step = 0;
  std::size_t items_written = 0;
};

/// One requested storage fault: damage `proc`'s stable store.  Ignored by
/// the engine when that process has no store attached.
struct StoreFaultRequest {
  Proc proc = Proc::kSender;
  StoreFaultKind kind = StoreFaultKind::kTornWrite;
  std::uint64_t count = 1;  // lose-tail depth; unused by the other kinds
};

/// One requested state scramble: overwrite `proc`'s state (via its
/// save_state()/restore_state() hooks) with adversarial bytes derived
/// deterministically from `salt`.  Processes without durable state are
/// immune; processes that *validate* their blobs may reject the scramble.
struct ScrambleRequest {
  Proc proc = Proc::kSender;
  std::uint64_t salt = 0;
};

/// What a tick may ask of the engine.  Channels cannot reach the processes
/// directly, so process-level faults (crash-restart: volatile local state
/// lost, output tape kept), storage faults, and state scrambles are
/// requested here and executed by the engine.  Store faults are applied
/// before crashes within the same tick, so a fault and a crash at the same
/// trigger exercise recovery from the already-damaged store; scrambles are
/// applied after crashes so a same-tick crash cannot erase the corruption.
/// `corruptions` counts payload corruptions/forgeries the channel already
/// executed itself this tick — the engine only needs the tally to start its
/// convergence bookkeeping.
struct TickEffect {
  bool crash_sender = false;
  bool crash_receiver = false;
  std::vector<StoreFaultRequest> store_faults;
  std::vector<ScrambleRequest> scrambles;
  std::uint64_t corruptions = 0;
};

class IChannel {
 public:
  virtual ~IChannel() = default;

  /// Reset to the empty initial state.
  virtual void reset() = 0;

  /// Called by the engine at the start of every step.  Default: no-op.
  virtual TickEffect tick(const ChannelTick&) { return {}; }

  /// A message is placed on the channel (counts as "sent" this step).
  virtual void send(Dir dir, MsgId msg) = 0;

  /// Distinct message ids currently deliverable in `dir` (each listed once,
  /// regardless of copy count).  For FIFO channels: the head only.
  virtual std::vector<MsgId> deliverable(Dir dir) const = 0;

  /// deliverable(dir), written into `out`: replaces its contents, same ids
  /// in the same order.  A caller that keeps `out` from call to call
  /// allocates nothing once its capacity suffices (the engine refills its
  /// scheduler view this way every step).  Default: `out = deliverable(dir)`,
  /// so a channel or decorator that implements only deliverable() stays
  /// correct.
  virtual void deliverable_into(Dir dir, std::vector<MsgId>& out) const {
    out = deliverable(dir);
  }

  /// Copies of `msg` currently deliverable in `dir` (the dlvrble vector).
  /// Dup channels report 1 for any ever-sent message.
  virtual std::uint64_t copies(Dir dir, MsgId msg) const = 0;

  /// Deliver one copy of `msg` in `dir`.  Precondition: copies() > 0.
  virtual void deliver(Dir dir, MsgId msg) = 0;

  /// Whether this channel semantics permits deletion.
  virtual bool can_drop() const = 0;

  /// Delete one copy of `msg` in `dir` (adversary move / fault injection).
  /// Precondition: can_drop() and copies() > 0.
  virtual void drop(Dir dir, MsgId msg) = 0;

  virtual std::unique_ptr<IChannel> clone() const = 0;
  virtual std::string name() const = 0;
};

}  // namespace stpx::sim

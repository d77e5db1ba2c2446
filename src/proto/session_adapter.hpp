// Session adapters: drive an ISender / IReceiver without the simulation
// engine.
//
// The engine owns a global lock-step clock, the output tape, and the
// online safety check; a network session has none of those — frames
// arrive whenever the transport delivers them and steps happen whenever
// the mux sweeps the session.  An ISessionEndpoint is the minimal
// poll-driven contract the mux needs:
//
//   on_deliver(msg)  — a decoded frame's payload arrived;
//   step()           — one protocol step; returns at most one outgoing
//                      message (the paper's one-message-per-step model);
//   done()/safety_ok()/items_done() — session-local verdict inputs.
//
// The receiver adapter owns the session's output tape and re-implements
// the engine's online prefix-safety check against the expected sequence:
// every write is compared as it lands, so a violation is caught at the
// step it happens ("prefix at all times"), not at the end of the run.
//
// Both adapters apply the defensive-ignore convention at the trust
// boundary: a delivered message outside the non-negative id space every
// stpx protocol uses is dropped before the protocol sees it (protocols
// assert on malformed ids — a contract violation in the simulator, but
// over a wire it is just a hostile or buggy peer).
//
// Durable state (docs/RECOVERY.md).  The protocols are finite-state; only
// the receiver's output tape grows, and it is append-only.  So a
// receiver's blob can be a delta: save_state(from) renders the tape items
// from position `from` on, and the session log writes each item once.
//
//   full  (from == 0): [202] [safety_ok] [vec: tape] [vec: protocol]
//   delta (from  > 0): [203] [safety_ok] [from] [vec: tape from `from`]
//                      [vec: protocol]
//
// restore_state() takes a chain: one full blob followed by any number of
// deltas, each starting where the tape so far ends.  The tape is their
// items in order; the safety flag and the protocol state are the last
// blob's, and the protocol is restored once, against the whole tape.  A
// sender owns no tape: its blob is always full and `from` is ignored.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "sim/process.hpp"

namespace stpx::proto {

class ISessionEndpoint {
 public:
  virtual ~ISessionEndpoint() = default;

  /// A payload arrived for this session.
  virtual void on_deliver(sim::MsgId msg) = 0;

  /// The peer signalled completion (a FIN frame).  Default: ignore —
  /// only sender endpoints act on it.
  virtual void on_fin() {}

  /// Take one protocol step; at most one message out.
  virtual std::optional<sim::MsgId> step() = 0;

  /// The endpoint's local work is finished (receiver: the full expected
  /// sequence is written; sender: the peer's receipt was confirmed).
  virtual bool done() const = 0;

  /// Prefix safety so far (senders are trivially safe — they own no tape).
  virtual bool safety_ok() const = 0;

  /// Items transferred so far from this endpoint's point of view.
  virtual std::size_t items_done() const = 0;

  virtual std::string name() const = 0;

  /// Durable-state plumbing for the session manifest (docs/RECOVERY.md).
  /// save_state(from) is an opaque blob (empty = nothing durable yet)
  /// holding the endpoint's state and its output from position `from`
  /// (<= items_done()) on; from == 0 is a full blob.  restore_state()
  /// rebuilds a freshly-constructed endpoint from a full blob, or from a
  /// chain of one full blob and the deltas after it, joined by spaces.
  /// A false return means the blob was unusable and the endpoint is in
  /// its cold-started state — safe to run, durable position lost.  A
  /// true return with safety_ok() == false means the blob itself
  /// witnessed an inconsistency (e.g. a restored tape that is not a
  /// prefix of the expected sequence): the caller must surface that as a
  /// recovery violation, never run the session as if nothing happened.
  virtual std::string save_state(std::size_t from = 0) const {
    (void)from;
    return {};
  }
  virtual bool restore_state(const std::string& blob) {
    (void)blob;
    return false;
  }
};

/// Wraps an ISender and its input sequence.  done() flips when finish()
/// is called — completion is confirmed by the peer (the mux calls it on a
/// FIN frame), because a sender cannot observe the remote tape.
class SenderSessionEndpoint final : public ISessionEndpoint {
 public:
  SenderSessionEndpoint(std::unique_ptr<sim::ISender> sender,
                        seq::Sequence x);

  void on_deliver(sim::MsgId msg) override;
  void on_fin() override { finish(); }
  std::optional<sim::MsgId> step() override;
  bool done() const override { return finished_; }
  bool safety_ok() const override { return true; }
  std::size_t items_done() const override {
    return finished_ ? x_.size() : 0;
  }
  std::string name() const override { return sender_->name(); }
  std::string save_state(std::size_t from = 0) const override;
  bool restore_state(const std::string& blob) override;

  /// The peer confirmed full receipt (FIN).
  void finish() { finished_ = true; }
  const seq::Sequence& input() const { return x_; }

 private:
  std::unique_ptr<sim::ISender> sender_;
  seq::Sequence x_;
  bool finished_ = false;
};

/// Wraps an IReceiver, the session's output tape, and the expected input
/// it must reproduce.  Safety (prefix at all times) is checked write by
/// write; once broken it stays broken and the endpoint goes silent.
class ReceiverSessionEndpoint final : public ISessionEndpoint {
 public:
  ReceiverSessionEndpoint(std::unique_ptr<sim::IReceiver> receiver,
                          seq::Sequence expected);

  void on_deliver(sim::MsgId msg) override;
  std::optional<sim::MsgId> step() override;
  bool done() const override {
    return safety_ok_ && y_.size() == expected_.size();
  }
  bool safety_ok() const override { return safety_ok_; }
  std::size_t items_done() const override { return y_.size(); }
  std::string name() const override { return receiver_->name(); }
  std::string save_state(std::size_t from = 0) const override;
  bool restore_state(const std::string& blob) override;

  const seq::Sequence& output() const { return y_; }
  const seq::Sequence& expected() const { return expected_; }

 private:
  std::unique_ptr<sim::IReceiver> receiver_;
  seq::Sequence expected_;
  seq::Sequence y_;
  bool safety_ok_ = true;
};

}  // namespace stpx::proto

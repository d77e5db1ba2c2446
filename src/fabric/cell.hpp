// BackendCell — one backend of the fabric: an StpServer generation over a
// fixed transport endpoint, plus the crash / re-home machinery.
//
// A cell owns the *role* of backend k, not a single mux: generations of
// StpServer come and go (crash, absorb-restart) while the transport
// endpoint and the session stores stay put — exactly the crash-restart
// shape docs/RECOVERY.md establishes for a single server, lifted to a
// fleet member.
//
//   kill()           crash: the mux dies mid-flight (no drain, no final
//                    flush), probes go unanswered, the router's health
//                    loop declares the cell dead.  Idempotent — fencing
//                    an already-dead cell is a no-op, which is what makes
//                    FALSE suspicion safe: fence first, ask later.
//   rehome_absorb()  survivor side of a re-home: bare-stop the running
//                    generation, build a fresh one on the same transport
//                    and OWN stores, rehydrate with the dead backend's
//                    logs as read-only extra sources, cold-add any
//                    expected or owned session that never manifested
//                    (assigned, or moved here, but never checkpointed
//                    before the stop), restart.
//   rejoin()         the way back from kill(): announce a fresh
//                    generation on the reserved fabric session (kJoin,
//                    msg = generation), wait for the router's epoch-tagged
//                    kJoinAck, then start a SESSIONLESS generation that
//                    answers probes through its probation window.  The
//                    sessions come back later, via the reclaim handoff.
//   release_absorb() survivor side of a reclaim: hand sessions BACK —
//                    the same restart-absorb shape as rehome_absorb, but
//                    the rehydration factory declines the departing
//                    sessions, so the new generation simply never admits
//                    them.  Their durable records stay in this cell's
//                    logs, read-only, for the rejoiner to fold in.
//
// Every absorb restricts rehydration to the sessions the membership table
// says belong here: after a reclaim, a cell's logs manifest sessions it
// no longer owns (the released ones), and blindly re-admitting whatever a
// log mentions would be exactly the split-brain the fence exists to
// prevent.
//
// The cell's MuxConfig.backend_id is stamped with the cell id, so every
// manifest record it writes says who owned the session when — provenance
// that survives the handoff.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "net/service.hpp"

namespace stpx::fabric {

struct CellConfig {
  /// Backend id (nonzero; 0 is the "unattributed" sentinel).
  std::uint32_t id = 1;
  /// Mux template; backend_id is overwritten with `id`.
  net::MuxConfig mux;
  /// This cell's own session logs (non-owning, must outlive the cell).
  std::vector<store::IStableStore*> stores;
  /// Builds a receiver endpoint for session `sid` — used both for cold
  /// add_session() and for rehydrate after a crash/absorb.
  net::StpServer::ReceiverFactory make_receiver;
  net::StpServer::ExpectedProvider expected_for;
};

/// What one rehome_absorb() did (the survivor's view).
struct AbsorbReport {
  net::RehydrateReport rehydrate;
  std::vector<std::uint32_t> cold_added;  // expected but never manifested
  std::uint64_t latency_us = 0;           // stop -> serving again
};

/// What one rejoin() handshake did.
struct RejoinReport {
  bool acked = false;          ///< kJoinAck received; probation is open
  std::uint32_t attempts = 0;  ///< kJoin announcements sent
  std::uint32_t generation = 0;  ///< the generation that announced
  std::uint64_t epoch = 0;     ///< membership epoch from the kJoinAck
  std::uint64_t latency_us = 0;
};

class BackendCell {
 public:
  /// `transport` is the cell's end of its router link (non-owning; shared
  /// by every generation).
  BackendCell(net::ITransport* transport, CellConfig cfg);

  /// Cold-register one session on the current generation (before start()).
  void add_session(std::uint32_t sid);

  void start();

  /// Graceful shutdown of the current generation (drain is the caller's
  /// job; this is stop()).  No-op when killed.
  void stop();

  /// Crash the current generation: threads retired without the final
  /// flush, held frames dropped, probes unanswered from now on.
  /// Idempotent — the supervisor fences every suspect through this.
  /// Returns how many sessions the generation still had active (0 when
  /// the cell was already dead).
  std::size_t kill();

  bool killed() const { return killed_; }
  std::uint32_t id() const { return cfg_.id; }

  /// Survivor side of a re-home (see file comment).  `handoff` is the
  /// dead backend's stores (read-only); `expected` the session ids the
  /// membership table says must now live here.  When `owned` is given it
  /// names this cell's CURRENT sessions, and the new generation hosts
  /// exactly owned ∪ expected — any other session a log manifests (e.g.
  /// one this cell released in an earlier reclaim) is declined, and an
  /// owned one no log names (it had heard nothing yet) is cold-added.
  /// Without `owned` every manifested session is admitted (the
  /// pre-reclaim behaviour, safe only while logs cannot mention foreign
  /// sessions).
  AbsorbReport rehome_absorb(
      const std::vector<store::IStableStore*>& handoff,
      const std::vector<std::uint32_t>& expected,
      const std::optional<std::vector<std::uint32_t>>& owned = std::nullopt);

  /// Survivor side of a reclaim: restart WITHOUT `victims`, keeping
  /// exactly `remaining` (cold-adding any of them no log manifests).  The
  /// victims' durable records stay in this cell's logs for the rejoiner.
  AbsorbReport release_absorb(const std::vector<std::uint32_t>& victims,
                              const std::vector<std::uint32_t>& remaining);

  /// The way back from kill(): announce a fresh generation with kJoin on
  /// the reserved fabric session and wait (bounded retries, `ack_wait`
  /// per attempt) for the router's kJoinAck.  The ack is authoritative —
  /// the router sends it only while probation is open, so a kJoin that
  /// races the strike ladder (backend not condemned yet) goes unanswered
  /// and the retries carry the handshake across.  Probes arriving during
  /// the wait are deliberately NOT answered: feeding the ladder healthy
  /// acks would stall the very condemnation the handshake needs.  On
  /// success the cell starts a SESSIONLESS generation that rides out
  /// probation; on failure the cell stays dead and a later rejoin() may
  /// try again.
  RejoinReport rejoin(std::uint32_t max_attempts = 5,
                      std::chrono::microseconds ack_wait =
                          std::chrono::microseconds(50'000));

  /// The current generation (valid between construction and kill()).
  net::StpServer& server() { return *server_; }
  const net::StpServer& server() const { return *server_; }
  std::uint32_t generation() const { return generation_; }

 private:
  std::unique_ptr<net::StpServer> make_generation();
  /// Shared restart-absorb core: bare-stop, next generation, rehydrate
  /// (declining sessions `allowed` rejects, when given), cold-add
  /// `expected` stragglers, restart.  Caller holds mu_.
  AbsorbReport absorb_locked(
      const std::vector<store::IStableStore*>& handoff,
      const std::vector<std::uint32_t>& expected,
      const std::function<bool(std::uint32_t)>& allowed);

  net::ITransport* transport_;
  CellConfig cfg_;
  std::unique_ptr<net::StpServer> server_;
  std::uint32_t generation_ = 1;
  bool started_ = false;
  bool killed_ = false;
  std::mutex mu_;  // serializes kill / absorb / stop
};

}  // namespace stpx::fabric

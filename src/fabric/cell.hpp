// BackendCell — one backend of the fabric: an StpServer generation over a
// fixed transport endpoint, plus the crash / re-home machinery.
//
// A cell owns the *role* of backend k, not a single mux: generations of
// StpServer come and go (crash, absorb-restart) while the transport
// endpoint and the session stores stay put — exactly the crash-restart
// shape docs/RECOVERY.md establishes for a single server, lifted to a
// fleet member.
//
//   kill()    crash: the mux dies mid-flight (no drain, no final flush),
//             probes go unanswered, the router's health loop declares the
//             cell dead.  Idempotent — fencing an already-dead cell is a
//             no-op, which is what makes FALSE suspicion safe: fence
//             first, ask later.
//   absorb()  the one way a generation restarts: bare-stop the running
//             generation, build a fresh one on the same transport and OWN
//             stores, rehydrate from the own logs plus any handoff logs
//             (read-only), admitting exactly the `hosted` sessions, and
//             cold-add every hosted session no log names.  The supervisor
//             runs it for each side of a handoff: a re-home's survivor
//             (hosted = its own sessions plus the dead cell's), a
//             reclaim's releasing owner (hosted = what it keeps) and the
//             rejoiner (hosted = what it reclaims).  A dead cell reports
//             nullopt instead of restarting.
//   rejoin()  the way back from kill(): announce a fresh generation
//             (announce_join), then start a SESSIONLESS generation that
//             answers probes through its probation window.  The sessions
//             come back later, via the reclaim absorb.
//
// Admission is restricted to `hosted` because after a reclaim a cell's
// logs manifest sessions it no longer owns (the released ones), and
// blindly re-admitting whatever a log mentions would be exactly the
// split-brain the fence exists to prevent.
//
// The cell's MuxConfig.backend_id is stamped with the cell id, so every
// manifest record it writes says who owned the session when — provenance
// that survives the handoff.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "net/retry.hpp"
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

/// What one absorb() did.
struct AbsorbReport {
  net::RehydrateReport rehydrate;
  std::vector<std::uint32_t> cold_added;  // hosted but never manifested
  std::uint64_t latency_us = 0;           // stop -> serving again
};

/// Announce generation `generation` of a dead backend on `link`: kJoin on
/// the reserved fabric session, resent under `retry`, blocking in
/// link.wait() between polls until the router's kJoinAck arrives.  The
/// ack is authoritative — the router sends it only while probation is
/// open, so a kJoin that races the strike ladder (backend not condemned
/// yet) goes unanswered and the resends carry the handshake across.
/// Everything else on the link, kProbe included, is consumed unanswered:
/// feeding the ladder healthy acks would stall the very condemnation the
/// handshake needs.  The caller owns `link` for the duration (no mux may
/// poll it).  Returns whether probation opened.
bool announce_join(net::ITransport& link, std::uint32_t generation,
                   const net::RetryConfig& retry);

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

  /// Restart into the next generation hosting exactly `hosted` (see file
  /// comment).  `handoff` is other cells' stores, scanned read-only; the
  /// newest chain per session wins across them and the own logs.  When
  /// it returns, the own logs hold a record of the new epoch for every
  /// rehydrated session (SessionMux::start commits them), so a later
  /// handoff needs only this cell's logs.  nullopt: the cell was dead.
  std::optional<AbsorbReport> absorb(
      const std::vector<store::IStableStore*>& handoff,
      const std::vector<std::uint32_t>& hosted);

  /// The way back from kill(): announce_join() a fresh generation under
  /// the cell's fixed budget (5 kJoin frames 50 ms apart).  On success
  /// the cell starts a SESSIONLESS generation that rides out probation;
  /// on failure it stays dead and a later rejoin() may try again.
  /// Returns whether probation opened.
  bool rejoin();

  /// The current generation (valid between construction and kill()).
  net::StpServer& server() { return *server_; }
  const net::StpServer& server() const { return *server_; }
  std::uint32_t generation() const { return generation_; }

 private:
  std::unique_ptr<net::StpServer> make_generation();

  net::ITransport* transport_;
  CellConfig cfg_;
  std::unique_ptr<net::StpServer> server_;
  std::uint32_t generation_ = 1;
  bool killed_ = false;
  std::mutex mu_;  // serializes kill / absorb / stop / rejoin
};

}  // namespace stpx::fabric

// Fabric — the in-process service fabric: N backend cells behind one
// router, one supervisor closing the crash → fence → re-home loop.
//
// Wiring (every link is a perfect loopback pair from net::make_loopback();
// the process harness in bench/r7_fabric.cpp builds the same topology
// over UDP + fork/exec):
//
//   client mux ══ client link ══ FabricRouter ══ link k ══ BackendCell k
//                                     │
//                                HealthMonitor (kProbe/kProbeAck)
//                                     │ death verdict (next_verdict)
//                                supervisor thread, blocked until then:
//                                  fence (kill the suspect — idempotent,
//                                    so FALSE suspicion is safe)
//                                  pick survivor (least loaded, alive)
//                                  absorb (survivor rehydrates its own
//                                    logs + the dead cell's as handoff;
//                                    a survivor found dead is marked so
//                                    and the next one is tried)
//                                  re-home (membership rewrite; the
//                                    router forwards there from now on)
//
// The rejoin loop runs the same machinery in reverse: a killed cell
// announces a fresh generation (kJoin), rides out the router's probation
// window, and the supervisor then RECLAIMS the sessions its durable logs
// still manifest — each current owner hands them back with an absorb
// that keeps the rest, the rejoiner absorbs the released logs, and only
// then does revive() + reassignment flip the routing truth (epoch bump;
// pre-revive owner entries turn stale).  docs/FABRIC.md has the state
// machine.
//
// Sessions are assigned round-robin at registration; the membership
// table is the single routing truth before and after a re-home.  The
// supervisor records every re-home (survivor, moved sessions, absorb
// report, latency) for the bench harness and the tests.
//
// merge_backend_traces() is the observability counterpart: per-backend
// FlightRecorder streams, each stamped with its recorder epoch
// (CLOCK_MONOTONIC is machine-wide), rebased onto one time axis so the
// trace-analysis pipeline can attest per-session prefix safety ACROSS
// the crash boundary — the dead generation's events and the survivor's
// land in one ordered stream (docs/FABRIC.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "fabric/cell.hpp"
#include "fabric/router.hpp"
#include "net/loopback.hpp"
#include "obs/probe.hpp"

namespace stpx::fabric {

struct FabricConfig {
  std::size_t backends = 3;
  /// Probe pacing of the router's health loop.
  HealthConfig health;
  /// Mux template for every cell (backend_id/session_stores overwritten
  /// per cell; `probe` overridden by probe_for when given).
  net::MuxConfig mux;
  net::StpServer::ReceiverFactory make_receiver;
  net::StpServer::ExpectedProvider expected_for;
  /// Session logs for backend `id` (called once per backend at
  /// construction and cached; the same pointers serve as the handoff
  /// source when that backend dies).
  std::function<std::vector<store::IStableStore*>(std::uint32_t)> stores_for;
  /// Optional per-backend observer (e.g. one FlightRecorder per cell,
  /// configured with backend_id = cell id).
  std::function<obs::IProbe*(std::uint32_t)> probe_for;
};

/// One fence-and-re-home, as the supervisor saw it.
struct RehomeRecord {
  std::uint32_t dead = 0;
  std::uint32_t survivor = 0;  ///< 0: no alive backend was left
  std::vector<std::uint32_t> moved;
  AbsorbReport absorb;
  bool ok = false;
};

/// One rejoin-and-reclaim, as the supervisor saw it: backend `backend`
/// passed probation and took back `reclaimed`, released by the backends
/// in `released_from` (empty when its sessions were never re-homed —
/// e.g. it died with no survivor and they sat fenced behind stale owner
/// entries until now).
struct ReclaimRecord {
  std::uint32_t backend = 0;
  std::uint32_t generation = 0;  ///< the generation that serves from now
  std::vector<std::uint32_t> reclaimed;
  std::vector<std::uint32_t> released_from;
  AbsorbReport absorb;           ///< the rejoiner's reclaim absorb
  std::uint64_t epoch = 0;       ///< membership epoch after revive
  bool ok = false;
};

class Fabric {
 public:
  explicit Fabric(FabricConfig cfg);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;
  ~Fabric();

  /// The client side of the client link — build the StpClient on this.
  net::ITransport* client_endpoint() { return client_link_.a.get(); }

  /// Register one session (before start()): assigned round-robin to a
  /// backend, recorded in the membership table, cold-added to its cell.
  void add_session(std::uint32_t sid);

  void start();
  /// Supervisor, router, then every still-alive cell. Idempotent.
  void stop();

  /// Wait until every session hosted by an alive cell is terminal (the
  /// supervisor keeps re-homing meanwhile).  False on timeout.
  bool drain(std::chrono::milliseconds timeout);

  // --- fault injection --------------------------------------------------
  /// Crash backend `id` now (the router discovers it by probe timeout).
  /// Returns how many of its sessions were still active (0 when it was
  /// already dead).
  std::size_t kill_backend(std::uint32_t id);
  /// Sever/restore the heartbeat while data still flows (false-suspicion
  /// drill).
  void set_probe_blackout(std::uint32_t id, bool on);
  /// Sever/restore session traffic while heartbeats still answer.
  void set_data_split(std::uint32_t id, bool on);
  /// Host-level split between the router side and backend `id`: data AND
  /// probes severed in the given direction(s).  kNone heals.
  void set_partition(std::uint32_t id, PartitionMode mode);

  /// Bring a killed backend back: the cell announces a fresh generation
  /// (kJoin handshake) and, once the router's probation window passes,
  /// the supervisor reclaims the sessions its durable logs still
  /// manifest.  Returns false when the handshake failed (e.g. the link
  /// is partitioned) — the cell stays dead and may try again.  The
  /// reclaim itself is asynchronous; wait on reclaims().
  bool rejoin_backend(std::uint32_t id);

  MembershipTable& membership() { return membership_; }
  FabricRouter& router() { return *router_; }
  BackendCell& cell(std::uint32_t id);
  std::size_t backend_count() const { return cells_.size(); }

  std::vector<RehomeRecord> rehomes() const;
  std::vector<ReclaimRecord> reclaims() const;

  /// Router counters into `reg` under "fabric.*" (call after stop();
  /// the registry is not thread-safe).
  void publish_metrics(obs::MetricsRegistry& reg) const;

 private:
  void supervise(std::stop_token st);
  void handle_death(std::uint32_t dead);
  void handle_join(std::uint32_t id);
  /// Restart cell `id` hosting exactly `hosted` (handoff logs read-only)
  /// with its probes paused, so the maintenance window cannot read as a
  /// crash.  nullopt when the cell was already dead: it is then marked
  /// dead in the membership table, and its own death verdict re-homes
  /// what it owns.
  std::optional<AbsorbReport> absorb_paused(
      std::uint32_t id, const std::vector<store::IStableStore*>& handoff,
      const std::vector<std::uint32_t>& hosted);

  FabricConfig cfg_;
  MembershipTable membership_;
  net::LoopbackPair client_link_;
  std::vector<net::LoopbackPair> backend_links_;
  std::vector<std::vector<store::IStableStore*>> stores_;  // per cell
  std::vector<std::unique_ptr<BackendCell>> cells_;  // cells_[i] has id i+1
  std::unique_ptr<FabricRouter> router_;
  std::size_t next_assign_ = 0;
  bool started_ = false;
  bool stopped_ = false;

  mutable std::mutex rehome_mu_;
  std::vector<RehomeRecord> rehomes_;
  std::vector<ReclaimRecord> reclaims_;
  std::jthread supervisor_;
};

/// One backend's recorded trace plus its recorder epoch
/// (FlightRecorder::epoch_offset_us()).
struct TracePart {
  std::uint64_t epoch_us = 0;
  std::vector<obs::TraceEvent> events;
};

/// Rebase every part onto the earliest epoch and merge into one stream
/// ordered by the rebased timestamp (stable: ties keep part order, so a
/// backend's own events never reorder).  Feed the result to the
/// trace-analysis pipeline to attest sessions across a re-home.
std::vector<obs::TraceEvent> merge_backend_traces(
    const std::vector<TracePart>& parts);

}  // namespace stpx::fabric

// FabricRouter — the frame-forwarding front of the service fabric.
//
// One pump thread sits between a single client-side transport and N
// backend links, forwarding raw frame bytes by session ownership
// (MembershipTable) and running the liveness loop (HealthMonitor) over
// the reserved kFabricSession:
//
//   client ──frames──▶ router ──(owner lookup)──▶ backend k
//   backend k ──acks/FINs──▶ router ──▶ client
//   router ──kProbe(nonce)──▶ backend k ──kProbeAck(nonce)──▶ router
//   backend k ──kJoin──▶ router ──kJoinAck──▶ backend k (probation opens)
//
// The router is content-light: it decodes only to read (session, kind),
// then forwards the original bytes — a forwarded frame is byte-identical
// to the sent one, so the codec's corruption guarantees pass through
// untouched.  The membership table is the only ownership truth: the
// client never learns who owns a session.  Frames with no owner, a
// fenced owner, a STALE owner entry (stamped by a generation that has
// since been fenced — see MembershipTable), or a fault-dropped link are
// counted per cause and dropped silently, exactly like wire loss; the
// client's retransmission finds the owner once the table names one.
//
// Fault injection for the fabric-level soak lives here as runtime
// switches per backend link (set from any thread):
//   * drop_probes — probe-blackout: heartbeats (and their acks) vanish
//     while data still flows, so the router falsely suspects a healthy
//     backend.  Fencing makes that safe (docs/FABRIC.md).
//   * drop_data — split-router: session traffic to/from the backend is
//     severed while heartbeats still answer, so the backend looks alive
//     but owns unreachable sessions.
//   * partition — host-level split between the router side and the
//     backend's host: EVERYTHING (data, probes, acks, control) is
//     severed in the partitioned direction(s).  kBoth is the symmetric
//     split; kToBackend / kFromBackend are the asymmetric one-way
//     variants.  A long enough partition reads exactly like a crash —
//     which is the point: fencing makes that safe too, and a healed
//     partition re-converges through strike forgiveness.
//   * probes_paused — maintenance: the supervisor pauses the health FSM
//     for a backend it is deliberately restarting (re-homing absorb), so
//     the restart window cannot be mistaken for a crash.
//
// Death verdicts flow: HealthMonitor (pump thread) -> MembershipTable
// (shared) -> verdict queue -> supervisor (Fabric), which fences and
// re-homes.  Rejoin verdicts flow the mirror path: kJoin (backend) ->
// HealthMonitor probation -> verdict queue -> supervisor, which runs the
// reclaim handoff and only then revives the membership entry.  The
// supervisor blocks in next_verdict(); every push signals it.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "fabric/health.hpp"
#include "fabric/membership.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace stpx::fabric {

/// Host-level partition state of one backend link (see file comment).
enum class PartitionMode : std::uint8_t {
  kNone = 0,
  kBoth,         ///< symmetric split: nothing crosses either way
  kToBackend,    ///< one-way: router/client -> backend severed
  kFromBackend,  ///< one-way: backend -> router/client severed
};

constexpr const char* to_cstr(PartitionMode m) {
  switch (m) {
    case PartitionMode::kNone: return "none";
    case PartitionMode::kBoth: return "both";
    case PartitionMode::kToBackend: return "to-backend";
    case PartitionMode::kFromBackend: return "from-backend";
  }
  return "?";
}

/// One health-loop verdict handed to the supervisor.
struct Verdict {
  enum class Kind : std::uint8_t {
    kDead,    ///< the strike ladder condemned the backend
    kJoined,  ///< a rejoined backend passed probation
  };
  Kind kind = Kind::kDead;
  std::uint32_t backend = 0;
};

/// Every event the router counts (stats() reads them back by this enum).
/// The drop family is split by cause: an unknown session (kNoOwner) is a
/// client bug or a pre-assignment race; a fenced owner (kDeadOwner) is a
/// re-home in flight; a stale entry (kStaleLease) is a blocked
/// resurrection.  Lumping them would hide exactly the distinction the
/// fence exists to draw.
enum class RouterCounter : std::uint8_t {
  kClientToBackend,      // frames forwarded inbound
  kBackendToClient,      // frames forwarded outbound
  kProbesSent,
  kProbeAcks,            // consumed by the health FSM
  kProbesSuppressed,     // probe-blackout drops (both ways)
  kNoOwner,              // client frame for an unknown session
  kDeadOwner,            // owner fenced, re-home not done yet
  kStaleLease,           // owner entry predates its last fence
  kDataSuppressed,       // split-router drops (both ways)
  kPartitionSuppressed,  // host-split drops (any kind)
  kJoins,                // kJoin announcements accepted
  kRejects,              // undecodable bytes (either side)
  kCount,
};

/// The counter key of each RouterCounter.
inline constexpr auto kRouterCounterNames = std::to_array<const char*>({
    "fabric.forwarded.client_to_backend",
    "fabric.forwarded.backend_to_client",
    "fabric.probes.sent",
    "fabric.probes.acks",
    "fabric.probes.suppressed",
    "fabric.drops.no_owner",
    "fabric.drops.dead_owner",
    "fabric.drops.stale_lease",
    "fabric.drops.data_suppressed",
    "fabric.drops.partition",
    "fabric.joins",
    "fabric.rejects",
});

class FabricRouter {
 public:
  /// `client_side` is the router's end of the client link (non-owning).
  /// `membership` is shared with the supervisor (non-owning).  `health`
  /// paces the probe loop (see HealthMonitor).
  FabricRouter(net::ITransport* client_side, MembershipTable* membership,
               HealthConfig health = {});
  FabricRouter(const FabricRouter&) = delete;
  FabricRouter& operator=(const FabricRouter&) = delete;
  ~FabricRouter();

  /// Register a backend link (before start()).  Also registers the
  /// backend with the health monitor; the caller registers it with the
  /// membership table.
  void add_backend(std::uint32_t id, net::ITransport* link);

  /// Swap a backend's link (e.g. a re-exec'd process dialed back in on a
  /// fresh socket).  Thread-safe; frames in flight on the old link are
  /// lost, which is the crash model anyway.  Blocks until the pump can no
  /// longer be mid-poll() on the OLD link, so the caller may destroy it
  /// the moment this returns.
  void set_link(std::uint32_t id, net::ITransport* link);

  void start();
  /// Idempotent; the destructor calls it.
  void stop();

  // --- fault switches (thread-safe, runtime-togglable) ------------------
  void set_drop_probes(std::uint32_t id, bool on);   // probe-blackout
  void set_drop_data(std::uint32_t id, bool on);     // split-router
  void set_probes_paused(std::uint32_t id, bool on); // maintenance window
  void set_partition(std::uint32_t id, PartitionMode mode);  // host split

  /// Pop the next verdict, blocking until one is queued, `deadline`
  /// passes or `st` is stopped (then nullopt).  Deaths are served before
  /// joins, each kind FIFO.  Each death is reported exactly once per
  /// incarnation; a join means the backend passed its rejoin probation
  /// and the supervisor runs the reclaim handoff on it.
  std::optional<Verdict> next_verdict(
      std::chrono::steady_clock::time_point deadline,
      std::stop_token st = {});

  obs::CounterTable<RouterCounter>::Snapshot stats() const {
    return n_.snapshot();
  }
  /// Health FSM counters.  Snapshot taken under the pump's cadence; call
  /// after stop() for an exact final value.
  HealthStats health_stats() const;

  /// The router's counter table into `reg`, under the keys of
  /// kRouterCounterNames.
  void publish_metrics(obs::MetricsRegistry& reg) const;

 private:
  struct BackendLink {
    std::uint32_t id = 0;
    std::atomic<net::ITransport*> link{nullptr};
    std::atomic<bool> drop_probes{false};
    std::atomic<bool> drop_data{false};
    std::atomic<bool> probes_paused{false};
    std::atomic<std::uint8_t> partition{
        static_cast<std::uint8_t>(PartitionMode::kNone)};
    bool applied_paused = false;  // pump-private shadow of probes_paused
    bool reported_dead = false;   // pump-private: death event emitted
    bool awaiting_probation = false;  // pump-private: kJoin seen, not yet alive
  };

  void pump_loop(std::stop_token st);
  /// Forward one decoded client frame to its owner's link.
  void route_inbound(const net::Frame& f,
                     const std::vector<std::uint8_t>& bytes);
  /// Drain one backend link: consume probe acks and joins, forward the
  /// rest.
  bool drain_backend(BackendLink& b, HealthMonitor::time_point now);
  /// Probe emission + death/probation verdicts for one backend.
  void tend_backend(BackendLink& b, HealthMonitor::time_point now);
  /// Handle one kJoin announcement from `b` (pump thread).
  void on_join(BackendLink& b, HealthMonitor::time_point now);

  static PartitionMode partition_of(const BackendLink& b) {
    return static_cast<PartitionMode>(
        b.partition.load(std::memory_order_acquire));
  }

  net::ITransport* client_;
  MembershipTable* membership_;
  std::vector<std::unique_ptr<BackendLink>> backends_;
  HealthMonitor health_;  // pump-thread-only after start()
  mutable std::mutex health_mu_;  // guards health_ around stats snapshots
  bool started_ = false;

  std::mutex verdict_mu_;
  std::condition_variable_any verdict_cv_;  // signalled on every push
  std::deque<std::uint32_t> dead_;
  std::deque<std::uint32_t> joined_;

  obs::CounterTable<RouterCounter> n_;

  /// Incremented once per pump pass; set_link uses it as a quiescence
  /// fence before letting the caller free the swapped-out transport.
  std::atomic<std::uint64_t> pump_ticks_{0};

  std::jthread pump_;
};

}  // namespace stpx::fabric

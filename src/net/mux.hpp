// SessionMux — N concurrent STP sessions multiplexed over one transport.
//
// Architecture (docs/NETWORK.md has the full picture):
//
//   * Sessions are registered before start() and partitioned round-robin
//     into shards.  A shard is owned by exactly one worker thread, so
//     session state needs no per-session locking — only the shard's
//     inbox, which the pump thread fills, is mutex-guarded.  A session
//     owns no queue: the shard keeps the one inbox, the one hold list and
//     the one RTT histogram its sessions share.
//   * The pump (one std::jthread) polls the transport, decodes frames
//     (rejecting malformed bytes — counted, never thrown), and appends
//     each to the owning shard's inbox, tagged with its session.  A
//     per-session count bounds each session's share of the inbox.  When
//     a poll burst finds nothing it blocks in the transport's wait()
//     until a frame arrives (bounded by a 50 µs backoff, so stop() is
//     seen promptly), so a frame waits for the pump only as long as the
//     wakeup takes.
//   * Workers (std::jthread each) are event-driven: each session keeps
//     one deadline (retransmit timeout or idle verdict) on its shard's
//     timer heap.  A worker sleeps until its inbox is non-empty or the
//     earliest deadline arrives, then runs one pass: it swaps the inbox
//     out, delivers every frame in arrival order, and steps each session
//     that heard a frame or fell due exactly once — encode, send,
//     group-commit, release.  An idle session costs nothing.
//   * Completion is wire-level: when a receiver session's tape equals its
//     expected sequence it emits a FIN frame; the sender session marks
//     itself completed when the FIN arrives.  FIN loss is healed by
//     re-FIN on retransmission arrival plus a sender-side keepalive that
//     re-sends the last data frame when the protocol has gone quiescent.
//   * Deadlines: a sender repeats an unchanged frame only when its
//     retransmit timeout fires (RttEstimator: RFC 6298 from Karn samples,
//     with backoff; a quiescent sender's repeat is its keepalive).  A
//     receiver greets its peer at start() and otherwise only answers.
//   * Idle-session eviction: a session that has received nothing for
//     `idle_eviction` is evicted (dead peer) — terminal, like completion,
//     but distinguishable in the verdict.
//   * Durability (optional; docs/RECOVERY.md): give MuxConfig one or
//     more IStableStore session logs and every session is checkpointed
//     as a manifest record at the end of the pass that moved it,
//     group-committed per shard (one append_batch per pass, so 10k
//     sessions never mean 10k syncs).  Receiver-side outbound frames
//     (cumulative acks, FINs) wait on the shard's hold list and go out
//     after the pass's append_batch — the write-ahead rule that makes a
//     crash-restart rewind invisible to the peer.  rehydrate() on a
//     fresh mux re-admits every
//     manifested session through a caller-supplied endpoint factory and
//     restores it via save_state()/restore_state().  A restore that
//     witnesses an inconsistency is kRecoveryViolation — loud, never
//     silent corruption.
//   * stop() drains gracefully: the pump is retired first (no new
//     inbound), each worker performs a final pass, then joins.  drain()
//     additionally arms a final checkpoint flush (and session-log
//     compaction) after that last pass; a bare stop() is the
//     crash-shaped shutdown — buffered checkpoints are lost, the log
//     still rehydrates cleanly.
//
// Thread-safety invariants: session objects are touched only by their
// shard's worker; the counter table is atomics; the transport must be
// thread-safe (both provided implementations are), and so must an
// attached probe (MuxConfig::probe); session stores are NOT assumed
// thread-safe — the mux serializes access per store with its own mutex.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame.hpp"
#include "net/rtt.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "proto/session_adapter.hpp"
#include "store/session_log.hpp"

namespace stpx::net {

/// Terminal (and the one non-terminal) session states.
enum class SessionState : std::uint8_t {
  kActive = 0,
  kCompleted,        // receiver: tape == expected; sender: FIN received
  kSafetyViolation,  // receiver wrote a non-prefix item
  kEvicted,          // idle past the eviction threshold
  // Post-restart safety break, kept distinct from a live kSafetyViolation
  // (the wire analogue of sim::RunVerdict::kRecoveryViolation): the
  // durable manifest was inconsistent at restore (e.g. a rehydrated tape
  // that is not a prefix of the expected sequence), or a rehydrated
  // session's peer never reappeared (progress the log attests to was
  // lost beyond what retransmission can heal).
  kRecoveryViolation,
};

constexpr const char* to_cstr(SessionState s) {
  switch (s) {
    case SessionState::kActive: return "active";
    case SessionState::kCompleted: return "completed";
    case SessionState::kSafetyViolation: return "safety-violation";
    case SessionState::kEvicted: return "evicted";
    case SessionState::kRecoveryViolation: return "recovery-violation";
  }
  return "?";
}

/// Number of SessionState values.
inline constexpr std::size_t kSessionStateCount = 5;

struct MuxConfig {
  /// Worker threads (= shards).  Sessions are partitioned id-order
  /// round-robin across shards at start().
  std::size_t workers = 2;
  /// Bound on each session's frames in its shard's inbox; overflow
  /// frames are shed (backpressure — indistinguishable from wire loss,
  /// which the protocols tolerate).
  std::size_t inbox_limit = 64;
  /// A session that receives nothing for this long is evicted
  /// (0 = never evict).
  std::chrono::milliseconds idle_eviction{0};
  /// Optional observer of the wire events (non-owning).  The pump and
  /// every worker call its record() concurrently, so a probe attached to a
  /// mux must be thread-safe.
  obs::IProbe* probe = nullptr;
  /// Session checkpoint logs (non-owning; empty = volatile sessions).
  /// Shard i commits to stores[i % size], so giving one store per worker
  /// removes all cross-shard store contention.  The mux never resets the
  /// stores — the caller does, once, before the FIRST server generation
  /// (a restart must find the previous generation's records).
  std::vector<store::IStableStore*> session_stores;
  /// Stamped as `owner` into every manifest record this mux writes
  /// (0 = unattributed).  Fabric backends set their backend id here so a
  /// handed-off session log stays attributable after re-homing.
  std::uint32_t backend_id = 0;
  /// A rehydrated session that has seen NO inbound frame for this long
  /// after start() is flagged kRecoveryViolation instead of waiting
  /// forever (0 = off): its manifest attests to an unfinished exchange
  /// with a live peer, the wire shows none — the crash lost progress
  /// (e.g. a completion record) beyond what retransmission can heal.
  std::chrono::milliseconds rehydrate_idle_violation{0};
};

/// Every event the mux counts: one entry each in its counter table,
/// read back by stats() indexed by this enum.  The reject entries follow
/// RejectReason order and the session entries SessionState order from
/// kCompleted, so both are indexed by value.
enum class MuxCounter : std::uint8_t {
  kFramesSent,             // handed to the transport
  kFramesReceived,         // decoded and routed
  kFramesRejected,         // malformed bytes or bad direction
  kRejectBadSize,          // kFramesRejected by RejectReason ...
  kRejectBadMagic,
  kRejectBadVersion,
  kRejectBadKind,
  kRejectBadDir,
  kRejectBadChecksum,      // ... up to here
  kFramesUnknownSession,   // no such session, or stray control traffic
  kFramesShed,             // inbox backpressure
  kProbesAnswered,         // fabric heartbeats echoed by the pump
  kFinsSent,
  kItemsDone,              // receiver-side writes, all sessions
  kSessionsCompleted,      // sessions finalized in each terminal state ...
  kSessionsViolated,
  kSessionsEvicted,
  kSessionsRecoveryViolated,  // ... up to here
  kRehydratedSessions,
  kCheckpointFlushes,      // non-empty group commits
  kCheckpointRecords,      // manifest records appended
  kCheckpointBytes,        // manifest payload bytes appended
  kCount,
};

/// The counter key of each MuxCounter.  The per-state session counts have
/// none: publish_metrics reports net.verdict.<state> from session states.
inline constexpr auto kMuxCounterNames = std::to_array<const char*>({
    "net.frames.sent",
    "net.frames.received",
    "net.frames.rejected",
    "net.rejects.bad-size",
    "net.rejects.bad-magic",
    "net.rejects.bad-version",
    "net.rejects.bad-kind",
    "net.rejects.bad-dir",
    "net.rejects.bad-checksum",
    "net.frames.unknown_session",
    "net.frames.shed",
    "net.probes.answered",
    "net.fins.sent",
    "net.items.done",
    nullptr,
    nullptr,
    nullptr,
    nullptr,
    "net.rehydrated_sessions",
    "net.checkpoint_flushes",
    "net.checkpoint_records",
    "net.checkpoint_bytes",
});

/// Post-run, per-session outcome.
struct SessionReport {
  std::uint32_t id = 0;
  bool is_sender = false;
  bool rehydrated = false;  // re-admitted from a manifest by rehydrate()
  SessionState state = SessionState::kActive;
  std::string endpoint;
  std::size_t items = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
};

/// What rehydrate() found and did (docs/RECOVERY.md).
struct RehydrateReport {
  std::size_t sessions = 0;       ///< manifested sessions re-admitted
  std::size_t completed = 0;      ///< restored directly into kCompleted
  std::size_t violations = 0;     ///< flagged kRecoveryViolation at restore
  std::size_t cold_restores = 0;  ///< unusable blobs → cold-started endpoints
  std::size_t declined = 0;       ///< factory returned nullptr (not re-admitted)
  std::size_t collisions = 0;     ///< manifest id already hosted — skipped
  std::uint64_t records_scanned = 0;  ///< valid manifest records replayed
  std::uint64_t records_skipped = 0;  ///< damaged/foreign records skipped
  std::vector<std::uint64_t> restore_latency_us;  ///< per-session
};

class SessionMux {
 public:
  /// `transport` is non-owning and must outlive the mux.
  SessionMux(ITransport* transport, MuxConfig cfg);
  SessionMux(const SessionMux&) = delete;
  SessionMux& operator=(const SessionMux&) = delete;
  ~SessionMux();

  /// Register a session (before start() only; ids must be unique).
  /// Sender sessions emit S->R data frames and accept R->S frames;
  /// receiver sessions the reverse.
  void add_session(std::uint32_t id,
                   std::unique_ptr<proto::ISessionEndpoint> endpoint,
                   bool is_sender);

  std::size_t session_count() const { return sessions_.size(); }

  /// Builds the endpoint for one manifested session during rehydrate();
  /// return nullptr to decline (e.g. a proto_tag this host cannot serve).
  using SessionFactory = std::function<std::unique_ptr<proto::ISessionEndpoint>(
      const store::SessionManifest&)>;

  /// Restart-time recovery (before start(); requires session_stores):
  /// replay every session log, fold newest-per-session by (epoch, seq),
  /// and re-admit each manifested session with an endpoint built by
  /// `factory` and restored via restore_state().  Completed manifests
  /// rehydrate straight into kCompleted (still answering retransmits
  /// with re-FINs); inconsistent ones into kRecoveryViolation; unusable
  /// blobs cold-start and re-earn their progress.  Bumps the manifest
  /// epoch past everything seen, so this generation's records supersede
  /// the crashed one's.
  ///
  /// `extra_sources` are additional session logs scanned (read-only) but
  /// never written — the cross-process handoff surface: a survivor
  /// absorbing a dead backend passes the dead generation's logs here, so
  /// the absorbed sessions re-manifest into the survivor's OWN stores
  /// under the bumped epoch (at start()) and the handoff logs can be
  /// retired.  A manifested id the mux already hosts is skipped and
  /// counted (`collisions`) instead of tripping the duplicate-id contract.
  RehydrateReport rehydrate(
      const SessionFactory& factory,
      const std::vector<store::IStableStore*>& extra_sources = {});

  /// Group-commit every rehydrated session's first record of the new
  /// epoch into this mux's own stores (one batch per shard, on the
  /// caller's thread), then spawn the pump and worker threads.  Once it
  /// returns, a crash at any instant leaves the own stores naming every
  /// rehydrated session, so no later restart needs the handoff sources.
  void start();

  /// Wait (polling) until every session is terminal or `timeout` elapses.
  /// Returns true when all sessions reached a terminal state.  Also arms
  /// the final-pass checkpoint flush + session-log compaction in
  /// stop() — drain-then-stop is the graceful, fully-flushed shutdown;
  /// a bare stop() is the crash-shaped one.
  bool drain(std::chrono::milliseconds timeout);

  /// Graceful shutdown: retire the pump, run a final pass per shard, join.
  /// Idempotent; the destructor calls it.
  void stop();

  /// Crash-shaped shutdown for restart drills: retire the threads WITHOUT
  /// the final pass, checkpoint flush, or log compaction — the session
  /// log is left exactly as of the last group commit, which is what a
  /// process kill leaves behind.  Rehydrate a fresh mux from the same
  /// stores to model the restart.
  void kill();

  bool all_terminal() const {
    return terminal_.load(std::memory_order_acquire) == sessions_.size();
  }
  /// Live gauge: sessions not yet terminal.
  std::size_t active_sessions() const {
    return sessions_.size() - terminal_.load(std::memory_order_acquire);
  }

  obs::CounterTable<MuxCounter>::Snapshot stats() const {
    return n_.snapshot();
  }

  /// Per-session outcomes.  Call after stop() (or before start()).
  std::vector<SessionReport> reports() const;

  /// Publish the counter table (kMuxCounterNames), the active-sessions
  /// gauge, per-state verdict counters, and the ack-RTT histogram (every
  /// shard's, merged) into `reg` under the net.* namespace.  Call after
  /// stop() (or before start()).
  void publish_metrics(obs::MetricsRegistry& reg) const;

 private:
  using Clock = std::chrono::steady_clock;
  using time_point = Clock::time_point;
  static constexpr time_point kNever = time_point::max();

  /// net.ack_rtt_us spans 1 µs to 2^23 µs (8.4 s), 16 buckets per octave.
  static constexpr std::size_t kAckRttOctaves = 23;

  struct Shard;

  struct Session {
    std::uint32_t id = 0;
    bool is_sender = false;
    bool rehydrated = false;  // re-admitted from a manifest
    std::unique_ptr<proto::ISessionEndpoint> endpoint;
    std::uint64_t proto_tag = 0;  // proto_tag_of(endpoint name), at admission
    SessionState state = SessionState::kActive;
    Shard* shard = nullptr;  // the owning shard, fixed at start()
    // --- under the shard mutex ------------------------------------------
    std::size_t inbox_frames = 0;  // this session's frames in the shard inbox
    // --- worker-private state (shard owner only) ------------------------
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::size_t items_reported = 0;  // item-event high-water mark
    bool refin_pending = false;      // completed receiver saw a retransmit
    bool dirty = false;              // state may have moved since last flush
    bool in_pass = false;            // already queued for the current pass
    // What the last manifest record said — the only fields that move
    // within a generation — so an unchanged session writes no record.
    // ckpt_state is save_state(ckpt_position): the protocol state without
    // the tape, so it stays as small as the protocol's own state.
    bool checkpointed = false;
    bool ckpt_delta = false;  // the last record was a delta (base > 0)
    std::uint64_t ckpt_position = 0;
    bool ckpt_completed = false;
    std::string ckpt_state;
    std::optional<sim::MsgId> last_msg;  // payload of the last data frame
    // --- deadlines ------------------------------------------------------
    time_point due = kNever;        // sender: retransmit timeout
    time_point queued_at = kNever;  // this session's live timer-heap entry
    time_point last_heard{};        // last inbound frame (or start())
    RttEstimator rtt;               // sender: Karn samples + RTO
  };

  /// A frame and its session: an inbox or hold-list entry.
  struct Routed {
    Session* session;
    Frame frame;
  };

  /// A timer-heap entry: `session` wakes at `at`.  The heap is a
  /// min-heap: std::greater<> on `at`.
  struct Timer {
    time_point at;
    Session* session;
    bool operator>(const Timer& o) const { return at > o.at; }
  };

  struct Shard {
    std::mutex mu;  // guards `inbox` and its sessions' `inbox_frames`
    /// Signalled by the pump when `inbox` goes from empty to non-empty.
    std::condition_variable_any wake;
    /// Frames routed to this shard's sessions, in arrival order (under mu).
    std::vector<Routed> inbox;
    std::vector<Session*> members;
    // Worker-private, reused across passes so a pass allocates nothing:
    std::vector<Routed> arrived;    // the inbox this pass swapped out
    std::vector<Session*> batch;    // this pass's sessions: heard, then due
    std::vector<Timer> timers;      // min-heap on `at`
    /// Durable receivers' acks and FINs, sent after this pass's
    /// append_batch (the write-ahead rule): never outlive the pass.
    std::vector<Routed> held;
    /// Karn samples of this shard's senders, microseconds.
    obs::Histogram ack_rtt_us{obs::log_linear_bounds(kAckRttOctaves)};
    std::size_t slot = 0;  // index into slots_
    std::size_t idx = 0;   // own index (probe attribution)
  };

  /// One session store plus the mutex serializing shard access to it
  /// (stores are not thread-safe; slots may be shared by shards).
  struct StoreSlot {
    store::IStableStore* store = nullptr;
    std::mutex mu;
  };

  void pump_loop(std::stop_token st);
  void worker_loop(std::stop_token st, std::size_t shard_idx);
  /// One pass over a shard at `now`: deliver the inbox in arrival
  /// order, step every session that heard a frame or fell due once, then
  /// group-commit and release.  No sleeping inside.
  void pass(Shard& shard, time_point now);
  /// Run one session's event at `now` (its frames are delivered).
  void run_session(Session& s, time_point now, bool heard);
  /// The sender's and the receiver's deadline rules (docs/NETWORK.md).
  void run_sender(Session& s, time_point now, bool heard, bool fired);
  void run_receiver(Session& s, time_point now);
  /// Queue `s`'s next wake-up (deadline or idle verdict) on the heap.
  void schedule(Session& s);
  void deliver(Session& s, const Frame& f, time_point now);
  /// One protocol step; nullopt when it emitted nothing or went terminal.
  std::optional<sim::MsgId> step_session(Session& s, time_point now);
  void emit(Session& s, FrameKind kind, sim::MsgId msg, time_point now);
  /// The unconditional tail of emit(): encode, transport send, accounting.
  void send_now(Session& s, const Frame& f, time_point now);
  /// Group-commit every dirty session of the pass (`force`: of the whole
  /// shard) as one manifest batch, then send the hold list at `now`.
  void flush_shard(Shard& shard, time_point now, bool force);
  /// Move `s` into the terminal `state` (never kActive) and count it.
  void finalize(Session& s, SessionState state);
  bool durable() const { return !slots_.empty(); }
  /// Route one decoded frame to its shard's inbox.
  void route(const Frame& f);
  /// Echo a kProbe back as a kProbeAck (pump thread).
  void answer_probe(const Frame& probe);

  ITransport* transport_;
  MuxConfig cfg_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<StoreSlot>> slots_;
  // id -> sessions_ index; read-only after start().
  std::unordered_map<std::uint32_t, std::size_t> index_;
  bool started_ = false;
  bool stopped_ = false;
  std::atomic<bool> flush_on_stop_{false};  // armed by drain()
  std::atomic<bool> killed_{false};         // armed by kill()
  std::uint64_t epoch_ = 1;                 // manifest generation
  std::atomic<std::uint64_t> ckpt_seq_{0};  // manifest append order

  std::atomic<std::size_t> terminal_{0};
  obs::CounterTable<MuxCounter> n_;
  /// The one reject bottleneck: count (total + per reason) and notify.
  void note_reject(RejectReason why);

  std::vector<std::jthread> workers_;
  std::jthread pump_;
};

}  // namespace stpx::net

// SessionMux — N concurrent STP sessions multiplexed over one transport.
//
// Architecture (docs/NETWORK.md has the full picture):
//
//   * Sessions are registered before start() and partitioned round-robin
//     into shards.  A shard is owned by exactly one worker thread, so
//     session state (the protocol endpoint, counters, RTT samples) needs
//     no per-session locking — only each shard's inbox, which the pump
//     thread fills, is mutex-guarded.
//   * The pump (one std::jthread) polls the transport, decodes frames
//     (rejecting malformed bytes — counted, never thrown), and routes
//     them to the owning shard's inbox by session id.
//   * Workers (std::jthread each) sweep their shard on a fixed cadence:
//     drain the inbox into sessions, then step each active session under
//     a per-sweep send budget and a bounded in-flight credit
//     (backpressure), encode outgoing messages, and hand them to the
//     transport.
//   * Completion is wire-level: when a receiver session's tape equals its
//     expected sequence it emits a FIN frame; the sender session marks
//     itself completed when the FIN arrives.  FIN loss is healed by
//     re-FIN on retransmission arrival plus a sender-side keepalive that
//     re-sends the last data frame when the protocol has gone quiescent.
//   * Idle-session eviction: a session that has received nothing for
//     `idle_eviction_sweeps` sweeps is evicted (dead peer) — terminal,
//     like completion, but distinguishable in the verdict.
//   * Durability (optional; docs/RECOVERY.md): give MuxConfig one or
//     more IStableStore session logs and every session is checkpointed
//     as a manifest record on a sweep cadence, group-committed per shard
//     (one append_batch per shard flush, so 10k sessions never mean 10k
//     syncs).  Receiver-side outbound frames (cumulative acks, FINs) are
//     HELD until the checkpoint covering the acked state is durable —
//     the write-ahead rule that makes a crash-restart rewind invisible
//     to the peer.  rehydrate() on a fresh mux re-admits every
//     manifested session through a caller-supplied endpoint factory and
//     restores it via save_state()/restore_state().  A restore that
//     witnesses an inconsistency is kRecoveryViolation — loud, never
//     silent corruption.
//   * stop() drains gracefully: the pump is retired first (no new
//     inbound), each worker performs a final inbox-drain sweep, then
//     joins.  drain() additionally arms a final checkpoint flush (and
//     session-log compaction) on that last sweep; a bare stop() is the
//     crash-shaped shutdown — buffered checkpoints are lost, the log
//     still rehydrates cleanly.
//
// Thread-safety invariants: session objects are touched only by their
// shard's worker; NetCounters are atomics; the transport must be
// thread-safe (both provided implementations are); an attached INetProbe
// must be thread-safe (hooks fire concurrently from workers and pump);
// session stores are NOT assumed thread-safe — the mux serializes access
// per store with its own mutex.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
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

/// Thread-safe observer of mux events.  Hooks fire concurrently from the
/// pump and every worker; implementations must be safe under that (the
/// engine-side obs::IProbe contract is single-threaded, hence this
/// separate interface).
class INetProbe {
 public:
  virtual ~INetProbe() = default;
  virtual void on_frame_sent(std::uint32_t session, const Frame& f) {
    (void)session;
    (void)f;
  }
  virtual void on_frame_received(std::uint32_t session, const Frame& f) {
    (void)session;
    (void)f;
  }
  virtual void on_frame_rejected(RejectReason why) { (void)why; }
  /// An inbound frame for `session` was shed by inbox backpressure (the
  /// session's bounded inbox was full).  Distinct from wire loss: the
  /// frame made it across the transport and the mux chose to drop it.
  virtual void on_frame_shed(std::uint32_t session) { (void)session; }
  /// A receiver session appended output item `index`, still a correct
  /// prefix of its expected sequence (fires per write — the wire-level
  /// analogue of the engine probe's on_write).
  virtual void on_item(std::uint32_t session, std::size_t index) {
    (void)session;
    (void)index;
  }
  virtual void on_session_state(std::uint32_t session, SessionState s) {
    (void)session;
    (void)s;
  }
  /// A manifested session was re-admitted by rehydrate(): `position` is
  /// the restored items_done() and `s` the state it rehydrated into
  /// (kActive, kCompleted, or kRecoveryViolation).  Fires before
  /// start(), single-threaded.
  virtual void on_rehydrate(std::uint32_t session, std::size_t position,
                            SessionState s) {
    (void)session;
    (void)position;
    (void)s;
  }
  /// The pump answered an inbound fabric heartbeat (kProbe) with a
  /// kProbeAck echoing `nonce` — the liveness signal a FabricRouter's
  /// health monitor consumes (docs/FABRIC.md).  Fires from the pump.
  virtual void on_probe_answered(std::int64_t nonce) { (void)nonce; }
  /// A shard group-committed `records` manifest records (`bytes` payload
  /// bytes) in `duration_us` microseconds.  Fires only for non-empty
  /// commits, from that shard's worker thread.
  virtual void on_checkpoint_flush(std::size_t shard, std::size_t records,
                                   std::uint64_t bytes,
                                   std::uint64_t duration_us) {
    (void)shard;
    (void)records;
    (void)bytes;
    (void)duration_us;
  }
};

/// How many distinct RejectReason values exist (per-reason counter arrays).
inline constexpr std::size_t kRejectReasonCount = 6;

/// A ready-made INetProbe: atomic tallies, enough for tests and demos.
class CountingNetProbe final : public INetProbe {
 public:
  void on_frame_sent(std::uint32_t, const Frame&) override { ++sent_; }
  void on_frame_received(std::uint32_t, const Frame&) override {
    ++received_;
  }
  void on_frame_rejected(RejectReason why) override {
    ++rejected_;
    ++by_reason_[static_cast<std::size_t>(why) % kRejectReasonCount];
  }
  void on_frame_shed(std::uint32_t) override { ++sheds_; }
  void on_item(std::uint32_t, std::size_t) override { ++items_; }
  void on_session_state(std::uint32_t, SessionState s) override {
    if (s == SessionState::kCompleted) ++completed_;
    if (s == SessionState::kSafetyViolation) ++violated_;
    if (s == SessionState::kEvicted) ++evicted_;
    if (s == SessionState::kRecoveryViolation) ++recovery_violated_;
  }
  void on_rehydrate(std::uint32_t, std::size_t, SessionState) override {
    ++rehydrated_;
  }
  void on_checkpoint_flush(std::size_t, std::size_t, std::uint64_t,
                           std::uint64_t) override {
    ++flushes_;
  }
  void on_probe_answered(std::int64_t) override { ++probes_answered_; }

  std::uint64_t sent() const { return sent_; }
  std::uint64_t received() const { return received_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t rejected(RejectReason why) const {
    return by_reason_[static_cast<std::size_t>(why) % kRejectReasonCount];
  }
  std::uint64_t sheds() const { return sheds_; }
  std::uint64_t checkpoint_flushes() const { return flushes_; }
  std::uint64_t items() const { return items_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t violated() const { return violated_; }
  std::uint64_t evicted() const { return evicted_; }
  std::uint64_t recovery_violated() const { return recovery_violated_; }
  std::uint64_t rehydrated() const { return rehydrated_; }
  std::uint64_t probes_answered() const { return probes_answered_; }

 private:
  std::atomic<std::uint64_t> sent_{0}, received_{0}, rejected_{0},
      sheds_{0}, flushes_{0}, items_{0}, completed_{0}, violated_{0},
      evicted_{0}, recovery_violated_{0}, rehydrated_{0},
      probes_answered_{0};
  std::atomic<std::uint64_t> by_reason_[kRejectReasonCount] = {};
};

struct MuxConfig {
  /// Worker threads (= shards).  Sessions are partitioned id-order
  /// round-robin across shards at start().
  std::size_t workers = 2;
  /// Protocol steps granted per active session per sweep.
  std::size_t steps_per_sweep = 2;
  /// Bounded in-flight credit per sender session: stepping pauses while
  /// (frames sent - frames received) >= max_inflight.  Receiver-side
  /// re-acks decay the credit, so a burst of losses stalls the session
  /// only until the next keepalive round-trip.
  std::size_t max_inflight = 32;
  /// Per-session inbox bound; overflow frames are shed (backpressure —
  /// indistinguishable from wire loss, which the protocols tolerate).
  std::size_t inbox_limit = 64;
  /// Sweeps without any inbound frame before a session is evicted
  /// (0 = never evict).
  std::uint64_t idle_eviction_sweeps = 0;
  /// Quiescent-sender keepalive: after this many consecutive sweeps with
  /// nothing to send, re-send the last data frame (0 = off).  Receiver
  /// sessions use the same cadence to refresh their cumulative ack.
  std::uint64_t keepalive_sweeps = 8;
  /// Worker sweep cadence and pump idle backoff.
  std::chrono::microseconds sweep_interval{200};
  std::chrono::microseconds poll_backoff{50};
  /// Optional observer (non-owning, must be thread-safe).
  INetProbe* probe = nullptr;
  /// Session checkpoint logs (non-owning; empty = volatile sessions).
  /// Shard i commits to stores[i % size], so giving one store per worker
  /// removes all cross-shard store contention.  The mux never resets the
  /// stores — the caller does, once, before the FIRST server generation
  /// (a restart must find the previous generation's records).
  std::vector<store::IStableStore*> session_stores;
  /// Checkpoint (and release held receiver frames) every N sweeps.
  std::uint64_t checkpoint_every_sweeps = 1;
  /// Stamped as `owner` into every manifest record this mux writes
  /// (0 = unattributed).  Fabric backends set their backend id here so a
  /// handed-off session log stays attributable after re-homing.
  std::uint32_t backend_id = 0;
  /// A rehydrated session that has seen NO inbound frame for this many
  /// sweeps is flagged kRecoveryViolation instead of waiting forever
  /// (0 = off): its manifest attests to an unfinished exchange with a
  /// live peer, the wire shows none — the crash lost progress (e.g. a
  /// completion record) beyond what retransmission can heal.
  std::uint64_t rehydrate_idle_violation_sweeps = 0;
};

/// Aggregate mux counters (a consistent-enough snapshot of atomics).
struct NetStats {
  std::uint64_t frames_sent = 0;      // handed to the transport
  std::uint64_t frames_received = 0;  // decoded and routed
  std::uint64_t frames_rejected = 0;  // malformed bytes or bad direction
  /// frames_rejected split by RejectReason (indexed by the enum value).
  std::uint64_t rejects_by_reason[kRejectReasonCount] = {};
  std::uint64_t frames_unknown_session = 0;
  std::uint64_t frames_shed = 0;  // inbox backpressure
  std::uint64_t probes_answered = 0;  // fabric heartbeats echoed by the pump
  std::uint64_t fins_sent = 0;
  std::uint64_t items_done = 0;  // receiver-side writes, all sessions
  std::uint64_t sessions_completed = 0;
  std::uint64_t sessions_violated = 0;
  std::uint64_t sessions_evicted = 0;
  std::uint64_t sessions_recovery_violated = 0;
  std::uint64_t rehydrated_sessions = 0;
  std::uint64_t checkpoint_flushes = 0;  // non-empty group commits
  std::uint64_t checkpoint_records = 0;  // manifest records appended
  std::uint64_t checkpoint_bytes = 0;    // manifest payload bytes appended
};

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
  /// Send-to-next-inbound round-trip samples, microseconds (sender
  /// sessions; mirrors the engine metric ack_rtt).
  std::vector<std::uint64_t> ack_rtt_us;
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
  /// under the bumped epoch and the handoff logs can be retired.  A
  /// manifested id the mux already hosts is skipped and counted
  /// (`collisions`) instead of tripping the duplicate-id contract.
  RehydrateReport rehydrate(
      const SessionFactory& factory,
      const std::vector<store::IStableStore*>& extra_sources = {});

  /// Spawn the pump and worker threads.
  void start();

  /// Wait (polling) until every session is terminal or `timeout` elapses.
  /// Returns true when all sessions reached a terminal state.  Also arms
  /// the final-sweep checkpoint flush + session-log compaction in
  /// stop() — drain-then-stop is the graceful, fully-flushed shutdown;
  /// a bare stop() is the crash-shaped one.
  bool drain(std::chrono::milliseconds timeout);

  /// Graceful shutdown: retire the pump, final-sweep the shards, join.
  /// Idempotent; the destructor calls it.
  void stop();

  /// Crash-shaped shutdown for restart drills: retire the threads WITHOUT
  /// the final drain sweep, checkpoint flush, or log compaction — the
  /// session log is left exactly as of the last cadence flush and held
  /// (durability-gated) frames are dropped, which is what a process kill
  /// leaves behind.  Rehydrate a fresh mux from the same stores to model
  /// the restart.
  void kill();

  bool all_terminal() const {
    return terminal_.load(std::memory_order_acquire) == sessions_.size();
  }
  /// Live gauge: sessions not yet terminal.
  std::size_t active_sessions() const {
    return sessions_.size() - terminal_.load(std::memory_order_acquire);
  }

  NetStats stats() const;

  /// Per-session outcomes.  Call after stop() (or before start()).
  std::vector<SessionReport> reports() const;

  /// Publish counters, the active-sessions gauge, per-state verdict
  /// counters, and the ack-RTT histogram into `reg` under the net.*
  /// namespace (see docs/OBSERVABILITY.md).  Call after stop().
  void publish_metrics(obs::MetricsRegistry& reg) const;

 private:
  struct Session {
    std::uint32_t id = 0;
    bool is_sender = false;
    bool rehydrated = false;  // re-admitted from a manifest
    std::unique_ptr<proto::ISessionEndpoint> endpoint;
    std::uint64_t proto_tag = 0;  // proto_tag_of(endpoint name), at admission
    SessionState state = SessionState::kActive;
    // --- inbox: filled by the pump under the shard mutex ----------------
    std::deque<Frame> inbox;
    // --- worker-private state (shard owner only) ------------------------
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::size_t inflight = 0;        // sent minus received, floored at 0
    std::uint64_t idle_sweeps = 0;   // sweeps since last inbound frame
    std::uint64_t quiet_sweeps = 0;  // sweeps since last outbound frame
    std::size_t items_reported = 0;  // probe on_item high-water mark
    bool refin_pending = false;      // completed receiver saw a retransmit
    bool dirty = false;              // state may have moved since last flush
    // What the last manifest record said — the only fields that move
    // within a generation — so an unchanged session writes no record.
    bool checkpointed = false;
    std::uint64_t ckpt_position = 0;
    bool ckpt_completed = false;
    std::string ckpt_state;
    // Receiver frames gated on durability: held until the covering
    // checkpoint commits, released by flush_shard (bounded; overflow
    // drops the oldest — indistinguishable from wire loss).
    std::vector<std::pair<Frame, std::vector<std::uint8_t>>> held;
    std::vector<std::uint8_t> last_data_frame;  // keepalive payload
    std::deque<std::chrono::steady_clock::time_point> pending_sends;
    std::vector<std::uint64_t> ack_rtt_us;
  };

  struct Shard {
    std::mutex mu;  // guards the inboxes of this shard's sessions
    std::vector<std::size_t> members;  // indices into sessions_
    // Worker-private: each session's inbox is drained into this one
    // buffer, reused across sweeps, so a sweep allocates nothing.
    std::vector<Frame> arrived;
    std::uint64_t sweep_no = 0;        // drives the checkpoint cadence
    std::size_t slot = 0;              // index into slots_
    std::size_t idx = 0;               // own index (probe attribution)
  };

  /// One session store plus the mutex serializing shard access to it
  /// (stores are not thread-safe; slots may be shared by shards).
  struct StoreSlot {
    store::IStableStore* store = nullptr;
    std::mutex mu;
  };

  void pump_loop(std::stop_token st);
  void worker_loop(std::stop_token st, std::size_t shard_idx);
  /// One pass over a shard: drain inboxes, step sessions, emit frames.
  void sweep(Shard& shard);
  void deliver(Session& s, const Frame& f);
  void step_session(Session& s);
  void emit(Session& s, FrameKind kind, sim::MsgId msg);
  /// The unconditional tail of emit(): transport send + accounting.
  void send_now(Session& s, const Frame& f,
                const std::vector<std::uint8_t>& bytes);
  /// Group-commit every dirty session of the shard as one manifest
  /// batch, then release all held frames (they are now covered).
  void flush_shard(Shard& shard, bool force);
  void release_held(Session& s);
  void finalize(Session& s, SessionState state);
  bool durable() const { return !slots_.empty(); }
  /// Route one decoded frame to its session's inbox.
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
  struct Counters {
    std::atomic<std::uint64_t> frames_sent{0}, frames_received{0},
        frames_rejected{0}, frames_unknown{0}, frames_shed{0}, fins_sent{0},
        items_done{0}, completed{0}, violated{0}, evicted{0},
        recovery_violated{0}, rehydrated{0}, ckpt_flushes{0},
        ckpt_records{0}, ckpt_bytes{0}, probes_answered{0};
    std::atomic<std::uint64_t> rejects_by_reason[kRejectReasonCount] = {};
  } n_;
  /// The one reject bottleneck: count (total + per reason) and notify.
  void note_reject(RejectReason why);

  std::vector<std::jthread> workers_;
  std::jthread pump_;
};

}  // namespace stpx::net

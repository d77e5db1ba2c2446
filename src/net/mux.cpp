#include "net/mux.hpp"

#include <algorithm>
#include <utility>

#include "util/expect.hpp"

namespace stpx::net {

namespace {

/// Cap on the send-timestamp FIFO used for ack-RTT sampling: with heavy
/// retransmission the FIFO would otherwise grow without bound and skew
/// samples toward ancient sends.
constexpr std::size_t kMaxPendingSends = 64;
/// Cap on stored RTT samples per session.
constexpr std::size_t kMaxRttSamples = 4096;
/// Cap on durability-gated frames held per session between checkpoint
/// flushes; overflow drops the oldest (== wire loss, retransmission
/// heals it).
constexpr std::size_t kMaxHeldFrames = 8;

std::uint64_t us_between(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

}  // namespace

SessionMux::SessionMux(ITransport* transport, MuxConfig cfg)
    : transport_(transport), cfg_(cfg) {
  STPX_EXPECT(transport_ != nullptr, "SessionMux: null transport");
  if (cfg_.workers == 0) cfg_.workers = 1;
  if (cfg_.steps_per_sweep == 0) cfg_.steps_per_sweep = 1;
  if (cfg_.checkpoint_every_sweeps == 0) cfg_.checkpoint_every_sweeps = 1;
  for (store::IStableStore* st : cfg_.session_stores) {
    STPX_EXPECT(st != nullptr, "SessionMux: null session store");
    auto slot = std::make_unique<StoreSlot>();
    slot->store = st;
    slots_.push_back(std::move(slot));
  }
}

SessionMux::~SessionMux() { stop(); }

void SessionMux::add_session(
    std::uint32_t id, std::unique_ptr<proto::ISessionEndpoint> endpoint,
    bool is_sender) {
  STPX_EXPECT(!started_, "SessionMux: add_session after start");
  STPX_EXPECT(endpoint != nullptr, "SessionMux: null endpoint");
  STPX_EXPECT(id != kFabricSession,
              "SessionMux: kFabricSession is reserved for probes");
  const bool fresh = index_.try_emplace(id, sessions_.size()).second;
  STPX_EXPECT(fresh, "SessionMux: duplicate session id");
  auto s = std::make_unique<Session>();
  s->id = id;
  s->is_sender = is_sender;
  s->endpoint = std::move(endpoint);
  s->proto_tag = store::proto_tag_of(s->endpoint->name());
  sessions_.push_back(std::move(s));
}

void SessionMux::start() {
  STPX_EXPECT(!started_, "SessionMux: start called twice");
  started_ = true;
  const std::size_t shard_count =
      std::max<std::size_t>(1, std::min(cfg_.workers, std::max<std::size_t>(
                                                          1, sessions_.size())));
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->idx = i;
  }
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    shards_[i % shard_count]->members.push_back(i);
  }
  for (std::size_t i = 0; i < shard_count && !slots_.empty(); ++i) {
    shards_[i]->slot = i % slots_.size();
  }
  workers_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    workers_.emplace_back(
        [this, i](std::stop_token st) { worker_loop(st, i); });
  }
  pump_ = std::jthread([this](std::stop_token st) { pump_loop(st); });
}

bool SessionMux::drain(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!all_terminal() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Drain is the graceful path: arm the final-sweep checkpoint flush so
  // stop() leaves nothing buffered (armed even on timeout — the caller
  // asked for a graceful shutdown; a crash is modelled by bare stop()).
  flush_on_stop_.store(true, std::memory_order_release);
  return all_terminal();
}

void SessionMux::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // Retire the pump first so no new inbound frames race the final sweeps.
  pump_.request_stop();
  pump_.join();
  for (auto& w : workers_) w.request_stop();
  for (auto& w : workers_) w.join();
  workers_.clear();
  if (durable() && flush_on_stop_.load(std::memory_order_acquire) &&
      !killed_.load(std::memory_order_acquire)) {
    // Graceful shutdown only: fold each session log down to its newest
    // record per session.  The rewrite is not crash-atomic, which is
    // exactly why a crash-shaped stop() never does this.
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      bool seen = false;
      for (std::size_t j = 0; j < i; ++j) {
        seen = seen || slots_[j]->store == slots_[i]->store;
      }
      if (!seen) store::compact_session_log(*slots_[i]->store);
    }
  }
}

void SessionMux::kill() {
  // A crash never runs a final sweep: skip the drain pass entirely so the
  // log stays exactly as of the last cadence flush and held frames die
  // with the process image.
  killed_.store(true, std::memory_order_release);
  stop();
}

RehydrateReport SessionMux::rehydrate(
    const SessionFactory& factory,
    const std::vector<store::IStableStore*>& extra_sources) {
  STPX_EXPECT(!started_, "SessionMux: rehydrate after start");
  STPX_EXPECT(durable(), "SessionMux: rehydrate without session stores");
  STPX_EXPECT(static_cast<bool>(factory), "SessionMux: null session factory");
  std::vector<store::IStableStore*> stores;
  stores.reserve(slots_.size() + extra_sources.size());
  for (const auto& slot : slots_) stores.push_back(slot->store);
  // Handoff sources are scanned but never written: their sessions
  // re-manifest into this mux's own stores at the first flush.
  for (store::IStableStore* st : extra_sources) stores.push_back(st);
  const store::SessionLogScan scan = store::scan_session_logs(stores);
  // Every record this generation writes must supersede the crashed
  // generation's, even though the per-mux seq counter restarts.
  epoch_ = scan.max_epoch + 1;

  RehydrateReport rep;
  rep.records_scanned = scan.records_scanned;
  rep.records_skipped = scan.records_skipped;
  for (const auto& [id, m] : scan.newest) {
    if (index_.contains(id)) {
      // The id is already live here (e.g. a handoff log that still names
      // a session this mux also manifests): the resident session wins.
      ++rep.collisions;
      continue;
    }
    const auto t0 = std::chrono::steady_clock::now();
    auto endpoint = factory(m);
    if (!endpoint) {
      ++rep.declined;
      continue;
    }
    const bool restored =
        !m.endpoint_state.empty() && endpoint->restore_state(m.endpoint_state);
    if (!restored) ++rep.cold_restores;
    add_session(id, std::move(endpoint), m.is_sender);
    Session& s = *sessions_.back();
    s.rehydrated = true;
    s.dirty = true;  // re-manifest under the new epoch at the first flush
    s.items_reported = s.endpoint->items_done();
    ++rep.sessions;
    n_.rehydrated.fetch_add(1, std::memory_order_relaxed);
    if (!s.endpoint->safety_ok()) {
      // The manifest itself witnessed an inconsistency — loud, terminal,
      // distinct from a live safety violation.
      finalize(s, SessionState::kRecoveryViolation);
      ++rep.violations;
    } else if (m.completed && restored && s.endpoint->done()) {
      // FIN state survived: terminal-completed, but still re-FINs when
      // the peer retransmits (the restart-racing-FIN healing path).
      finalize(s, SessionState::kCompleted);
      ++rep.completed;
    }
    if (cfg_.probe != nullptr) {
      cfg_.probe->on_rehydrate(id, s.endpoint->items_done(), s.state);
    }
    rep.restore_latency_us.push_back(
        us_between(t0, std::chrono::steady_clock::now()));
  }
  return rep;
}

void SessionMux::pump_loop(std::stop_token st) {
  while (!st.stop_requested()) {
    bool any = false;
    // Bounded burst per iteration so a flood cannot starve the stop check.
    for (int i = 0; i < 256; ++i) {
      auto bytes = transport_->poll();
      if (!bytes) break;
      any = true;
      RejectReason why = RejectReason::kBadSize;
      const auto frame = decode(*bytes, &why);
      if (!frame) {
        note_reject(why);
        continue;
      }
      if (frame->kind == FrameKind::kProbe) {
        answer_probe(*frame);
        continue;
      }
      if (frame->kind != FrameKind::kData && frame->kind != FrameKind::kFin) {
        // This mux is not a prober, a router, or a nameserver; stray
        // control traffic (a probe ack reflection, a join/resolve frame
        // from a hostile or confused peer) is dropped, never delivered to
        // a session — a kNotOwner reaching deliver() would read as an ack.
        n_.frames_unknown.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      route(*frame);
    }
    if (!any) std::this_thread::sleep_for(cfg_.poll_backoff);
  }
}

void SessionMux::answer_probe(const Frame& probe) {
  // Fabric heartbeat: answered straight from the pump so liveness never
  // depends on worker sweep cadence, session state, or durability gating
  // (an ack attests only "this process is pumping frames").
  Frame ack;
  ack.kind = FrameKind::kProbeAck;
  ack.dir = probe.dir == sim::Dir::kSenderToReceiver
                ? sim::Dir::kReceiverToSender
                : sim::Dir::kSenderToReceiver;
  ack.session = probe.session;
  ack.msg = probe.msg;  // echo the nonce
  transport_->send(encode(ack));
  n_.probes_answered.fetch_add(1, std::memory_order_relaxed);
  if (cfg_.probe != nullptr) cfg_.probe->on_probe_answered(probe.msg);
}

void SessionMux::route(const Frame& f) {
  const auto it = index_.find(f.session);
  if (it == index_.end()) {
    n_.frames_unknown.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t idx = it->second;
  Session& s = *sessions_[idx];
  // Direction sanity: sender sessions consume R->S traffic, receiver
  // sessions S->R.  A frame flowing the wrong way is our own reflection
  // (or a hostile peer) — reject, don't deliver.
  const sim::Dir expect = s.is_sender ? sim::Dir::kReceiverToSender
                                      : sim::Dir::kSenderToReceiver;
  if (f.dir != expect) {
    note_reject(RejectReason::kBadDir);
    return;
  }
  Shard& shard = *shards_[idx % shards_.size()];
  bool shed = false;
  {
    std::lock_guard<std::mutex> hold(shard.mu);
    if (cfg_.inbox_limit > 0 && s.inbox.size() >= cfg_.inbox_limit) {
      shed = true;
    } else {
      s.inbox.push_back(f);
    }
  }
  if (shed) {
    n_.frames_shed.fetch_add(1, std::memory_order_relaxed);
    if (cfg_.probe != nullptr) cfg_.probe->on_frame_shed(f.session);
    return;
  }
  n_.frames_received.fetch_add(1, std::memory_order_relaxed);
}

void SessionMux::note_reject(RejectReason why) {
  n_.frames_rejected.fetch_add(1, std::memory_order_relaxed);
  n_.rejects_by_reason[static_cast<std::size_t>(why) % kRejectReasonCount]
      .fetch_add(1, std::memory_order_relaxed);
  if (cfg_.probe != nullptr) cfg_.probe->on_frame_rejected(why);
}

void SessionMux::worker_loop(std::stop_token st, std::size_t shard_idx) {
  Shard& shard = *shards_[shard_idx];
  while (!st.stop_requested()) {
    sweep(shard);
    std::this_thread::sleep_for(cfg_.sweep_interval);
  }
  // Crash-shaped shutdown: no final pass, no flush — see kill().
  if (killed_.load(std::memory_order_acquire)) return;
  // Graceful drain: one final pass so frames routed before the pump
  // retired still reach their sessions.
  sweep(shard);
  // Only a drain()-armed stop flushes buffered checkpoints; a bare
  // stop() is the crash-shaped shutdown and loses them on purpose.
  if (durable() && flush_on_stop_.load(std::memory_order_acquire)) {
    flush_shard(shard, /*force=*/true);
  }
}

void SessionMux::sweep(Shard& shard) {
  ++shard.sweep_no;
  for (const std::size_t idx : shard.members) {
    Session& s = *sessions_[idx];
    std::vector<Frame>& arrived = shard.arrived;
    {
      std::lock_guard<std::mutex> hold(shard.mu);
      arrived.assign(s.inbox.begin(), s.inbox.end());
      s.inbox.clear();  // keeps the deque's first block for the next frames
    }
    const bool got_inbound = !arrived.empty();
    for (const Frame& f : arrived) deliver(s, f);

    if (s.state != SessionState::kActive) {
      // Completed receivers re-FIN when the peer retransmits (FIN loss
      // healing); at most one per sweep.
      if (s.refin_pending) {
        s.refin_pending = false;
        emit(s, FrameKind::kFin,
             static_cast<sim::MsgId>(s.endpoint->items_done()));
      }
      continue;
    }

    step_session(s);
    if (s.state != SessionState::kActive) continue;

    // Keepalive: a quiescent endpoint re-sends its last frame so a lost
    // FIN or a lost cumulative ack cannot wedge the pair forever.  For
    // durable receivers last_data_frame is only ever a RELEASED (i.e.
    // checkpoint-covered) ack, so the resend needs no fresh gating.
    if (cfg_.keepalive_sweeps > 0 &&
        s.quiet_sweeps >= cfg_.keepalive_sweeps &&
        !s.last_data_frame.empty()) {
      s.quiet_sweeps = 0;
      transport_->send(s.last_data_frame);
      ++s.frames_out;
      n_.frames_sent.fetch_add(1, std::memory_order_relaxed);
      if (s.is_sender) {
        if (s.pending_sends.size() < kMaxPendingSends) {
          s.pending_sends.push_back(std::chrono::steady_clock::now());
        }
      }
    }

    if (got_inbound) {
      s.idle_sweeps = 0;
    } else {
      ++s.idle_sweeps;
      if (cfg_.rehydrate_idle_violation_sweeps > 0 && s.rehydrated &&
          s.frames_in == 0 &&
          s.idle_sweeps > cfg_.rehydrate_idle_violation_sweeps) {
        // The manifest attests to an unfinished exchange, but the peer
        // never spoke after the restart: the crash lost progress beyond
        // what retransmission can heal.  Loud, not a silent wedge.
        finalize(s, SessionState::kRecoveryViolation);
      } else if (cfg_.idle_eviction_sweeps > 0 &&
                 s.idle_sweeps > cfg_.idle_eviction_sweeps) {
        finalize(s, SessionState::kEvicted);
      }
    }
  }
  if (durable() && shard.sweep_no % cfg_.checkpoint_every_sweeps == 0) {
    flush_shard(shard, /*force=*/false);
  }
}

void SessionMux::deliver(Session& s, const Frame& f) {
  ++s.frames_in;
  s.idle_sweeps = 0;
  s.dirty = true;  // any inbound frame may move durable protocol state
  if (cfg_.probe != nullptr) cfg_.probe->on_frame_received(s.id, f);
  if (s.state != SessionState::kActive) {
    // Terminal receiver still answering retransmits: schedule a re-FIN.
    if (!s.is_sender && s.state == SessionState::kCompleted &&
        f.kind == FrameKind::kData) {
      s.refin_pending = true;
    }
    return;
  }
  if (s.is_sender) {
    if (!s.pending_sends.empty()) {
      const auto sent_at = s.pending_sends.front();
      s.pending_sends.pop_front();
      if (s.ack_rtt_us.size() < kMaxRttSamples) {
        s.ack_rtt_us.push_back(
            us_between(sent_at, std::chrono::steady_clock::now()));
      }
    }
    if (s.inflight > 0) --s.inflight;
  }
  if (f.kind == FrameKind::kFin) {
    s.endpoint->on_fin();
    if (s.endpoint->done()) finalize(s, SessionState::kCompleted);
    return;
  }
  s.endpoint->on_deliver(f.msg);
}

void SessionMux::step_session(Session& s) {
  const std::uint64_t frames_out_before = s.frames_out;
  for (std::size_t i = 0; i < cfg_.steps_per_sweep; ++i) {
    if (s.is_sender && cfg_.max_inflight > 0 &&
        s.inflight >= cfg_.max_inflight) {
      break;  // backpressure: wait for acks to decay the credit
    }
    const auto out = s.endpoint->step();

    // Surface fresh receiver writes (prefix-checked by the adapter).
    const std::size_t items = s.endpoint->items_done();
    if (items > s.items_reported) {
      s.dirty = true;
      n_.items_done.fetch_add(items - s.items_reported,
                              std::memory_order_relaxed);
      if (cfg_.probe != nullptr) {
        for (std::size_t j = s.items_reported; j < items; ++j) {
          cfg_.probe->on_item(s.id, j);
        }
      }
      s.items_reported = items;
    }

    if (!s.endpoint->safety_ok()) {
      finalize(s, SessionState::kSafetyViolation);
      return;
    }
    if (!s.is_sender && s.endpoint->done()) {
      if (out) emit(s, FrameKind::kData, *out);
      emit(s, FrameKind::kFin,
           static_cast<sim::MsgId>(s.endpoint->items_done()));
      finalize(s, SessionState::kCompleted);
      return;
    }
    if (!out) break;  // quiescent this sweep
    emit(s, FrameKind::kData, *out);
  }
  s.quiet_sweeps = s.frames_out == frames_out_before ? s.quiet_sweeps + 1 : 0;
}

void SessionMux::emit(Session& s, FrameKind kind, sim::MsgId msg) {
  Frame f;
  f.kind = kind;
  f.dir = s.is_sender ? sim::Dir::kSenderToReceiver
                      : sim::Dir::kReceiverToSender;
  f.session = s.id;
  f.msg = msg;
  auto bytes = encode(f);
  // Durability gating (the write-ahead rule): a receiver's outbound
  // frames — cumulative acks and FINs — attest to externalized state, so
  // they are held until flush_shard commits the covering checkpoint.
  // Sender data frames carry no commitment (retransmission is always
  // safe) and go straight out.
  if (durable() && !s.is_sender) {
    if (s.held.size() >= kMaxHeldFrames) {
      s.held.erase(s.held.begin());  // drop-oldest == wire loss
    }
    s.held.emplace_back(f, std::move(bytes));
    return;
  }
  send_now(s, f, bytes);
}

void SessionMux::send_now(Session& s, const Frame& f,
                          const std::vector<std::uint8_t>& bytes) {
  transport_->send(bytes);  // shed == lost; the protocol retransmits
  ++s.frames_out;
  n_.frames_sent.fetch_add(1, std::memory_order_relaxed);
  if (f.kind == FrameKind::kFin) {
    n_.fins_sent.fetch_add(1, std::memory_order_relaxed);
  } else {
    s.last_data_frame = bytes;
  }
  if (s.is_sender) {
    ++s.inflight;
    if (s.pending_sends.size() < kMaxPendingSends) {
      s.pending_sends.push_back(std::chrono::steady_clock::now());
    }
  }
  if (cfg_.probe != nullptr) cfg_.probe->on_frame_sent(s.id, f);
}

void SessionMux::release_held(Session& s) {
  for (auto& [f, bytes] : s.held) send_now(s, f, bytes);
  s.held.clear();
}

void SessionMux::flush_shard(Shard& shard, bool force) {
  StoreSlot& slot = *slots_[shard.slot];
  std::vector<std::string> batch;
  std::uint64_t batch_bytes = 0;
  for (const std::size_t idx : shard.members) {
    Session& s = *sessions_[idx];
    if (!s.dirty && !force) continue;
    s.dirty = false;
    const std::uint64_t position = s.endpoint->items_done();
    const bool completed = s.state == SessionState::kCompleted;
    std::string state = s.endpoint->save_state();
    // Session, role, epoch, proto_tag and owner are fixed for the
    // generation, so an unchanged (position, completed, state) means
    // nothing moved: no record (keepalive-only sweeps cost no log growth).
    if (s.checkpointed && position == s.ckpt_position &&
        completed == s.ckpt_completed && state == s.ckpt_state) {
      continue;
    }
    store::SessionManifest m;
    m.session = s.id;
    m.is_sender = s.is_sender;
    m.epoch = epoch_;
    m.seq = ckpt_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    m.proto_tag = s.proto_tag;
    m.position = position;
    m.completed = completed;
    m.owner = cfg_.backend_id;
    m.endpoint_state = std::move(state);
    std::string payload = m.to_payload();
    s.checkpointed = true;
    s.ckpt_position = position;
    s.ckpt_completed = completed;
    s.ckpt_state = std::move(m.endpoint_state);
    batch_bytes += payload.size();
    batch.push_back(std::move(payload));
  }
  if (!batch.empty()) {
    const auto flush_t0 = std::chrono::steady_clock::now();
    {
      // Group commit: one append_batch (== one sync) for the whole shard.
      std::lock_guard<std::mutex> hold(slot.mu);
      slot.store->append_batch(batch);
    }
    n_.ckpt_flushes.fetch_add(1, std::memory_order_relaxed);
    n_.ckpt_records.fetch_add(batch.size(), std::memory_order_relaxed);
    n_.ckpt_bytes.fetch_add(batch_bytes, std::memory_order_relaxed);
    if (cfg_.probe != nullptr) {
      cfg_.probe->on_checkpoint_flush(
          shard.idx, batch.size(), batch_bytes,
          us_between(flush_t0, std::chrono::steady_clock::now()));
    }
  }
  // Everything held is now covered by a durable record (this batch, or
  // an earlier one when the signature never moved): release.
  for (const std::size_t idx : shard.members) {
    release_held(*sessions_[idx]);
  }
}

void SessionMux::finalize(Session& s, SessionState state) {
  s.state = state;
  s.dirty = true;  // the terminal state itself is worth a manifest record
  switch (state) {
    case SessionState::kCompleted:
      n_.completed.fetch_add(1, std::memory_order_relaxed);
      break;
    case SessionState::kSafetyViolation:
      n_.violated.fetch_add(1, std::memory_order_relaxed);
      break;
    case SessionState::kEvicted:
      n_.evicted.fetch_add(1, std::memory_order_relaxed);
      break;
    case SessionState::kRecoveryViolation:
      n_.recovery_violated.fetch_add(1, std::memory_order_relaxed);
      break;
    case SessionState::kActive:
      break;
  }
  terminal_.fetch_add(1, std::memory_order_release);
  if (cfg_.probe != nullptr) cfg_.probe->on_session_state(s.id, state);
}

NetStats SessionMux::stats() const {
  NetStats out;
  out.frames_sent = n_.frames_sent.load(std::memory_order_relaxed);
  out.frames_received = n_.frames_received.load(std::memory_order_relaxed);
  out.frames_rejected = n_.frames_rejected.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kRejectReasonCount; ++i) {
    out.rejects_by_reason[i] =
        n_.rejects_by_reason[i].load(std::memory_order_relaxed);
  }
  out.frames_unknown_session =
      n_.frames_unknown.load(std::memory_order_relaxed);
  out.frames_shed = n_.frames_shed.load(std::memory_order_relaxed);
  out.probes_answered = n_.probes_answered.load(std::memory_order_relaxed);
  out.fins_sent = n_.fins_sent.load(std::memory_order_relaxed);
  out.items_done = n_.items_done.load(std::memory_order_relaxed);
  out.sessions_completed = n_.completed.load(std::memory_order_relaxed);
  out.sessions_violated = n_.violated.load(std::memory_order_relaxed);
  out.sessions_evicted = n_.evicted.load(std::memory_order_relaxed);
  out.sessions_recovery_violated =
      n_.recovery_violated.load(std::memory_order_relaxed);
  out.rehydrated_sessions = n_.rehydrated.load(std::memory_order_relaxed);
  out.checkpoint_flushes = n_.ckpt_flushes.load(std::memory_order_relaxed);
  out.checkpoint_records = n_.ckpt_records.load(std::memory_order_relaxed);
  out.checkpoint_bytes = n_.ckpt_bytes.load(std::memory_order_relaxed);
  return out;
}

std::vector<SessionReport> SessionMux::reports() const {
  STPX_EXPECT(!started_ || stopped_,
              "SessionMux: reports() while workers are live");
  std::vector<SessionReport> out;
  out.reserve(sessions_.size());
  for (const auto& s : sessions_) {
    SessionReport r;
    r.id = s->id;
    r.is_sender = s->is_sender;
    r.rehydrated = s->rehydrated;
    r.state = s->state;
    r.endpoint = s->endpoint->name();
    r.items = s->endpoint->items_done();
    r.frames_in = s->frames_in;
    r.frames_out = s->frames_out;
    r.ack_rtt_us = s->ack_rtt_us;
    out.push_back(std::move(r));
  }
  return out;
}

void SessionMux::publish_metrics(obs::MetricsRegistry& reg) const {
  const NetStats st = stats();
  reg.counter("net.frames.sent").inc(st.frames_sent);
  reg.counter("net.frames.received").inc(st.frames_received);
  reg.counter("net.frames.rejected").inc(st.frames_rejected);
  for (std::size_t i = 0; i < kRejectReasonCount; ++i) {
    reg.counter(std::string("net.rejects.") +
                to_cstr(static_cast<RejectReason>(i)))
        .inc(st.rejects_by_reason[i]);
  }
  reg.counter("net.frames.unknown_session").inc(st.frames_unknown_session);
  reg.counter("net.frames.shed").inc(st.frames_shed);
  // Backpressure loss under its own name, so dashboards can tell "the mux
  // chose to drop" apart from frame-accounting noise (`net.frames.shed`
  // stays as the frame-family spelling of the same counter).
  reg.counter("net.sheds").inc(st.frames_shed);
  reg.counter("net.probes.answered").inc(st.probes_answered);
  reg.counter("net.fins.sent").inc(st.fins_sent);
  reg.counter("net.items.done").inc(st.items_done);
  reg.counter("net.rehydrated_sessions").inc(st.rehydrated_sessions);
  reg.counter("net.checkpoint_flushes").inc(st.checkpoint_flushes);
  reg.counter("net.checkpoint_records").inc(st.checkpoint_records);
  reg.counter("net.checkpoint_bytes").inc(st.checkpoint_bytes);
  reg.gauge("net.sessions.active")
      .set(static_cast<std::int64_t>(active_sessions()));
  auto& rtt = reg.histogram("net.ack_rtt_us", obs::pow2_bounds(24));
  for (const auto& s : sessions_) {
    reg.counter(std::string("net.verdict.") + to_cstr(s->state)).inc();
    for (const std::uint64_t sample : s->ack_rtt_us) rtt.observe(sample);
  }
}

}  // namespace stpx::net

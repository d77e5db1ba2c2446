#include "net/mux.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/expect.hpp"

namespace stpx::net {

namespace {

/// Bound on the pump's transport wait after a poll burst that found
/// nothing: a frame ends the wait at once, so this sets only how fast an
/// idle pump notices stop() and how fast loopback poll ticks advance
/// (fault windows count them) while nothing arrives.
constexpr std::chrono::microseconds kPollBackoff{50};

/// The per-reason reject counter of `why`.
constexpr MuxCounter reject_counter(RejectReason why) {
  return static_cast<MuxCounter>(
      static_cast<std::size_t>(MuxCounter::kRejectBadSize) +
      static_cast<std::size_t>(why));
}
static_assert(reject_counter(static_cast<RejectReason>(
                  kRejectReasonCount - 1)) == MuxCounter::kRejectBadChecksum,
              "one reject counter per RejectReason");

/// The counter of sessions finalized in the terminal state `s`.
constexpr MuxCounter state_counter(SessionState s) {
  return static_cast<MuxCounter>(
      static_cast<std::size_t>(MuxCounter::kSessionsCompleted) +
      static_cast<std::size_t>(s) -
      static_cast<std::size_t>(SessionState::kCompleted));
}
static_assert(state_counter(static_cast<SessionState>(
                  kSessionStateCount - 1)) ==
                  MuxCounter::kSessionsRecoveryViolated,
              "one session counter per terminal SessionState");

std::uint64_t us_between(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

/// The frame-sent / frame-received event of `f` on `session`.
obs::TraceEvent frame_event(obs::TraceEventKind kind, std::uint32_t session,
                            const Frame& f) {
  return {.msg = f.msg,
          .session = session,
          .kind = kind,
          .detail = static_cast<std::uint8_t>(f.kind),
          .dir = f.dir};
}

}  // namespace

SessionMux::SessionMux(ITransport* transport, MuxConfig cfg)
    : transport_(transport), cfg_(cfg) {
  STPX_EXPECT(transport_ != nullptr, "SessionMux: null transport");
  if (cfg_.workers == 0) cfg_.workers = 1;
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
    Shard& shard = *shards_[i % shard_count];
    sessions_[i]->shard = &shard;
    shard.members.push_back(sessions_[i].get());
  }
  for (std::size_t i = 0; i < shard_count && !slots_.empty(); ++i) {
    shards_[i]->slot = i % slots_.size();
  }
  // Rehydrated sessions (only a durable mux has any) re-manifest under
  // the new epoch before any thread runs, so a crash right after start()
  // cannot leave them named only by the logs they were rehydrated from.
  for (auto& shard : shards_) {
    for (Session* s : shard->members) {
      if (s->rehydrated) shard->batch.push_back(s);
    }
    if (shard->batch.empty()) continue;
    flush_shard(*shard, Clock::now(), /*force=*/false);
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
  // Drain is the graceful path: arm the final-pass checkpoint flush so
  // stop() leaves nothing buffered (armed even on timeout — the caller
  // asked for a graceful shutdown; a crash is modelled by bare stop()).
  flush_on_stop_.store(true, std::memory_order_release);
  return all_terminal();
}

void SessionMux::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // Retire the pump first so no new inbound frames race the final passes.
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
  // A crash never runs a final pass: skip it entirely so the log stays
  // exactly as of the last group commit.
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
  // re-manifest into this mux's own stores at start().
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
    s.dirty = true;  // re-manifest under the new epoch at start()
    s.items_reported = s.endpoint->items_done();
    ++rep.sessions;
    n_.add(MuxCounter::kRehydratedSessions);
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
      cfg_.probe->record(
          {.msg = static_cast<std::int64_t>(s.endpoint->items_done()),
           .session = id,
           .kind = obs::TraceEventKind::kRehydrate,
           .detail = static_cast<std::uint8_t>(s.state)});
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
        // This mux is not a prober or a router; stray control traffic (a
        // probe ack reflection, a join frame from a hostile or confused
        // peer) is dropped, never delivered to a session — a control
        // frame reaching deliver() would read as a protocol message.
        n_.add(MuxCounter::kFramesUnknownSession);
        continue;
      }
      route(*frame);
    }
    if (!any) transport_->wait(kPollBackoff);
  }
}

void SessionMux::answer_probe(const Frame& probe) {
  // Fabric heartbeat: answered straight from the pump so liveness never
  // depends on worker scheduling, session state, or durability gating
  // (an ack attests only "this process is pumping frames").
  Frame ack;
  ack.kind = FrameKind::kProbeAck;
  ack.dir = probe.dir == sim::Dir::kSenderToReceiver
                ? sim::Dir::kReceiverToSender
                : sim::Dir::kSenderToReceiver;
  ack.session = probe.session;
  ack.msg = probe.msg;  // echo the nonce
  transport_->send(encode(ack));
  n_.add(MuxCounter::kProbesAnswered);
  if (cfg_.probe != nullptr) {
    cfg_.probe->record(
        {.msg = probe.msg, .kind = obs::TraceEventKind::kProbeAnswered});
  }
}

void SessionMux::route(const Frame& f) {
  const auto it = index_.find(f.session);
  if (it == index_.end()) {
    n_.add(MuxCounter::kFramesUnknownSession);
    return;
  }
  Session& s = *sessions_[it->second];
  // Direction sanity: sender sessions consume R->S traffic, receiver
  // sessions S->R.  A frame flowing the wrong way is our own reflection
  // (or a hostile peer) — reject, don't deliver.
  const sim::Dir expect = s.is_sender ? sim::Dir::kReceiverToSender
                                      : sim::Dir::kSenderToReceiver;
  if (f.dir != expect) {
    note_reject(RejectReason::kBadDir);
    return;
  }
  Shard& shard = *s.shard;
  bool shed = false;
  bool wake = false;
  {
    std::lock_guard<std::mutex> hold(shard.mu);
    if (s.inbox_frames >= kInboxLimit) {
      shed = true;
    } else {
      // The worker needs waking only when the shard goes from idle to
      // pending.
      wake = shard.inbox.empty();
      shard.inbox.push_back({&s, f});
      ++s.inbox_frames;
    }
  }
  if (wake) shard.wake.notify_one();
  if (shed) {
    n_.add(MuxCounter::kFramesShed);
    if (cfg_.probe != nullptr) {
      cfg_.probe->record(
          {.session = f.session, .kind = obs::TraceEventKind::kFrameShed});
    }
    return;
  }
  n_.add(MuxCounter::kFramesReceived);
}

void SessionMux::note_reject(RejectReason why) {
  n_.add(MuxCounter::kFramesRejected);
  n_.add(reject_counter(why));
  if (cfg_.probe != nullptr) {
    cfg_.probe->record({.kind = obs::TraceEventKind::kFrameRejected,
                        .detail = static_cast<std::uint8_t>(why)});
  }
}

void SessionMux::worker_loop(std::stop_token st, std::size_t shard_idx) {
  Shard& shard = *shards_[shard_idx];
  // Every session is in the first pass: senders send their first frame
  // and receivers announce their position (a restarted one is heard at
  // once) — terminal ones too, which schedule() would skip, so each
  // member gets its heap entry here (all at t0: already a heap).
  const time_point t0 = Clock::now();
  for (Session* s : shard.members) {
    s->last_heard = t0;
    s->due = t0;
    s->queued_at = t0;
    shard.timers.push_back({t0, s});
  }
  const auto pending = [&shard] { return !shard.inbox.empty(); };
  while (!st.stop_requested()) {
    pass(shard, Clock::now());
    std::unique_lock<std::mutex> lock(shard.mu);
    if (shard.timers.empty()) {
      shard.wake.wait(lock, st, pending);
    } else {
      shard.wake.wait_until(lock, st, shard.timers.front().at, pending);
    }
  }
  // Crash-shaped shutdown: no final pass, no flush — see kill().
  if (killed_.load(std::memory_order_acquire)) return;
  // Graceful drain: one final pass so frames routed before the pump
  // retired still reach their sessions.
  const time_point now = Clock::now();
  pass(shard, now);
  // Only a drain()-armed stop flushes buffered checkpoints; a bare
  // stop() is the crash-shaped shutdown and loses them on purpose.
  if (durable() && flush_on_stop_.load(std::memory_order_acquire)) {
    flush_shard(shard, now, /*force=*/true);
  }
}

void SessionMux::pass(Shard& shard, time_point now) {
  std::vector<Routed>& arrived = shard.arrived;
  arrived.clear();
  {
    std::lock_guard<std::mutex> hold(shard.mu);
    arrived.swap(shard.inbox);
    for (const Routed& r : arrived) r.session->inbox_frames = 0;
  }
  // Every frame in arrival order; each session that heard one joins the
  // pass once.
  std::vector<Session*>& batch = shard.batch;
  batch.clear();
  for (const Routed& r : arrived) {
    if (!r.session->in_pass) {
      r.session->in_pass = true;
      batch.push_back(r.session);
    }
    deliver(*r.session, r.frame, now);
  }
  const std::size_t heard = batch.size();
  // Due deadlines join the pass.  An entry is live only while it is its
  // session's queued_at; superseded entries are dropped as they surface.
  std::vector<Timer>& heap = shard.timers;
  while (!heap.empty() && heap.front().at <= now) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const Timer t = heap.back();
    heap.pop_back();
    Session& s = *t.session;
    if (t.at != s.queued_at) continue;
    s.queued_at = kNever;
    if (!s.in_pass) {
      s.in_pass = true;
      batch.push_back(&s);
    }
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Session& s = *batch[i];
    s.in_pass = false;
    run_session(s, now, /*heard=*/i < heard);
    schedule(s);
  }
  if (durable()) flush_shard(shard, now, /*force=*/false);
}

void SessionMux::schedule(Session& s) {
  time_point at = s.due;
  if (s.state == SessionState::kActive) {
    // Idle verdicts are deadlines too: the session must be looked at
    // when its silence crosses a threshold even if nothing else is due.
    if (cfg_.idle_eviction.count() > 0) {
      at = std::min(at, s.last_heard + cfg_.idle_eviction);
    }
    if (cfg_.rehydrate_idle_violation.count() > 0 && s.rehydrated &&
        s.frames_in == 0) {
      at = std::min(at, s.last_heard + cfg_.rehydrate_idle_violation);
    }
  } else {
    at = kNever;
  }
  // An earlier live entry is good enough: it wakes the session, which
  // then re-queues at its real deadline.
  if (at >= s.queued_at) return;
  s.queued_at = at;
  std::vector<Timer>& heap = s.shard->timers;
  heap.push_back({at, &s});
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
}

void SessionMux::run_session(Session& s, time_point now, bool heard) {
  if (s.state != SessionState::kActive) {
    s.due = kNever;
    // Completed receivers re-FIN when the peer retransmits (FIN loss
    // healing); at most one per pass.
    if (s.refin_pending) {
      s.refin_pending = false;
      emit(s, FrameKind::kFin,
           static_cast<sim::MsgId>(s.endpoint->items_done()), now);
    }
    return;
  }
  if (!heard) {
    const auto quiet = now - s.last_heard;
    if (cfg_.rehydrate_idle_violation.count() > 0 && s.rehydrated &&
        s.frames_in == 0 && quiet >= cfg_.rehydrate_idle_violation) {
      // The manifest attests to an unfinished exchange, but the peer
      // never spoke after the restart: the crash lost progress beyond
      // what retransmission can heal.  Loud, not a silent wedge.
      finalize(s, SessionState::kRecoveryViolation);
      return;
    }
    if (cfg_.idle_eviction.count() > 0 && quiet >= cfg_.idle_eviction) {
      finalize(s, SessionState::kEvicted);
      return;
    }
  }
  const bool fired = s.due <= now;
  if (!heard && !fired) return;  // woken for a verdict that did not fall
  if (s.is_sender) {
    run_sender(s, now, heard, fired);
  } else {
    run_receiver(s, now);
  }
}

void SessionMux::run_sender(Session& s, time_point now, bool heard,
                            bool fired) {
  if (!heard) {
    // The timer fell due, but a frame for `s` may have landed after this
    // pass swapped the inbox out: leave the step to the next pass, which
    // runs at once and hears it, rather than repeat a frame it may ack.
    std::lock_guard<std::mutex> hold(s.shard->mu);
    if (s.inbox_frames > 0) return;
  }
  const auto out = step_session(s, now);
  if (s.state != SessionState::kActive) return;
  bool peer_back = false;
  if (heard) {
    const RttEstimator::Heard h = s.rtt.on_receive(now);
    if (h.sample) {
      s.shard->ack_rtt_us.observe(
          static_cast<std::uint64_t>(h.sample->count()));
    }
    peer_back = h.peer_returned;
  }
  if (out && out != s.last_msg) {
    // A new frame goes out at once and arms the retransmit timer.
    emit(s, FrameKind::kData, *out, now);
    s.due = now + s.rtt.rto();
    return;
  }
  if (!fired && !peer_back) {
    // An unchanged frame repeats only on its timer.  A duplicate ack that
    // made it repeat at once would be answered by another duplicate ack,
    // and the extra copy would circulate forever.
    return;
  }
  if (fired) s.rtt.on_timeout();
  if (out) {
    emit(s, FrameKind::kData, *out, now);
  } else if (s.last_msg) {
    // Quiescent: everything is acked, the FIN has not come.  Re-sending
    // the last data frame provokes the re-FIN that heals a lost one.
    emit(s, FrameKind::kData, *s.last_msg, now);
  }
  s.due = now + s.rtt.rto();
}

void SessionMux::run_receiver(Session& s, time_point now) {
  // A receiver answers every inbound event with its (cumulative) ack — the
  // frame may be a retransmission whose ack was lost — and greets its peer
  // in the first pass, so a restarted receiver is heard at once.  It needs
  // no timer after that: its sender retransmits.  A periodic ack would
  // also pose as a short round trip to a sender waiting on a slow one.
  const auto out = step_session(s, now);
  if (s.state != SessionState::kActive) return;
  if (out) emit(s, FrameKind::kData, *out, now);
  s.due = kNever;
}

void SessionMux::deliver(Session& s, const Frame& f, time_point now) {
  ++s.frames_in;
  s.last_heard = now;
  s.dirty = true;  // any inbound frame may move durable protocol state
  if (cfg_.probe != nullptr) {
    cfg_.probe->record(
        frame_event(obs::TraceEventKind::kFrameReceived, s.id, f));
  }
  if (s.state != SessionState::kActive) {
    // Terminal receiver still answering retransmits: schedule a re-FIN.
    if (!s.is_sender && s.state == SessionState::kCompleted &&
        f.kind == FrameKind::kData) {
      s.refin_pending = true;
    }
    return;
  }
  if (f.kind == FrameKind::kFin) {
    s.endpoint->on_fin();
    if (s.endpoint->done()) finalize(s, SessionState::kCompleted);
    return;
  }
  s.endpoint->on_deliver(f.msg);
}

std::optional<sim::MsgId> SessionMux::step_session(Session& s,
                                                   time_point now) {
  const auto out = s.endpoint->step();

  // Surface fresh receiver writes (prefix-checked by the adapter).
  const std::size_t items = s.endpoint->items_done();
  if (items > s.items_reported) {
    s.dirty = true;
    n_.add(MuxCounter::kItemsDone, items - s.items_reported);
    if (cfg_.probe != nullptr) {
      for (std::size_t j = s.items_reported; j < items; ++j) {
        cfg_.probe->record({.msg = static_cast<std::int64_t>(j),
                            .session = s.id,
                            .kind = obs::TraceEventKind::kItem});
      }
    }
    s.items_reported = items;
  }

  if (!s.endpoint->safety_ok()) {
    finalize(s, SessionState::kSafetyViolation);
    return std::nullopt;
  }
  if (!s.is_sender && s.endpoint->done()) {
    if (out) emit(s, FrameKind::kData, *out, now);
    emit(s, FrameKind::kFin,
         static_cast<sim::MsgId>(s.endpoint->items_done()), now);
    finalize(s, SessionState::kCompleted);
    return std::nullopt;
  }
  return out;
}

void SessionMux::emit(Session& s, FrameKind kind, sim::MsgId msg,
                      time_point now) {
  Frame f;
  f.kind = kind;
  f.dir = s.is_sender ? sim::Dir::kSenderToReceiver
                      : sim::Dir::kReceiverToSender;
  f.session = s.id;
  f.msg = msg;
  if (kind == FrameKind::kData) s.last_msg = msg;
  // Durability gating (the write-ahead rule): a receiver's outbound
  // frames — cumulative acks and FINs — attest to externalized state, so
  // they wait on the shard's hold list until flush_shard, at the end of
  // this pass, commits the covering checkpoint.  Sender data frames carry
  // no commitment (retransmission is always safe) and go straight out.
  if (durable() && !s.is_sender) {
    s.shard->held.push_back({&s, f});
    return;
  }
  send_now(s, f, now);
}

void SessionMux::send_now(Session& s, const Frame& f, time_point now) {
  transport_->send(encode(f));  // shed == lost; the protocol retransmits
  ++s.frames_out;
  n_.add(MuxCounter::kFramesSent);
  if (f.kind == FrameKind::kFin) n_.add(MuxCounter::kFinsSent);
  if (s.is_sender) s.rtt.on_send(now);
  if (cfg_.probe != nullptr) {
    cfg_.probe->record(frame_event(obs::TraceEventKind::kFrameSent, s.id, f));
  }
}

void SessionMux::flush_shard(Shard& shard, time_point now, bool force) {
  StoreSlot& slot = *slots_[shard.slot];
  // Only the pass's sessions can have moved.
  const std::vector<Session*>& sessions = force ? shard.members : shard.batch;
  std::vector<std::string> batch;
  std::uint64_t batch_bytes = 0;
  for (Session* sp : sessions) {
    Session& s = *sp;
    if (!s.dirty && !force) continue;
    s.dirty = false;
    const std::uint64_t position = s.endpoint->items_done();
    const bool completed = s.state == SessionState::kCompleted;
    // Session, role, epoch, proto_tag and owner are fixed for the
    // generation.  So when position and verdict stand, the endpoint's
    // state rendered from the last record's key base equals that record's
    // key unless the protocol state or the safety flag moved: no record
    // (a retransmission costs no log growth).  A drain still replaces a
    // newest delta with a full record, so that compaction leaves one
    // record per session.
    std::optional<std::string> probe;  // save_state(probe_base), if rendered
    const std::uint64_t probe_base = s.ckpt_base;
    if (s.checkpointed && position == s.ckpt_position &&
        completed == s.ckpt_completed && !(force && s.ckpt_delta)) {
      probe = s.endpoint->save_state(probe_base);
      if (*probe == s.ckpt_state) continue;
    }
    // Each blob is rendered once: the probe already is the one it
    // starts at.
    const auto render = [&](std::uint64_t from) -> std::string {
      if (probe && probe_base == from) return std::move(*probe);
      return s.endpoint->save_state(from);
    };
    store::SessionManifest m;
    m.session = s.id;
    m.is_sender = s.is_sender;
    m.epoch = epoch_;
    m.seq = ckpt_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    m.proto_tag = s.proto_tag;
    m.position = position;
    m.completed = completed;
    m.owner = cfg_.backend_id;
    // A receiver's later records are deltas, carrying the items since its
    // previous record.  Its first record of the generation is full: the
    // previous generation's chain may sit in another store (sessions
    // re-shard on rehydrate, and a fabric handoff source is another
    // backend's log).  So are the drain's records, and any whose previous
    // record was at position 0 (base 0 means full).
    m.base = s.checkpointed && !s.is_sender && !force ? s.ckpt_position : 0;
    m.endpoint_state = render(m.base);
    std::string payload = m.to_payload();
    // Each record is keyed on its own blob, except a receiver's full
    // record: its key is the tapeless save_state(position), so no
    // per-session string grows with the tape.
    const std::uint64_t key_base =
        s.is_sender || m.base != 0 ? m.base : position;
    s.checkpointed = true;
    s.ckpt_delta = m.base != 0;
    s.ckpt_position = position;
    s.ckpt_base = key_base;
    s.ckpt_completed = completed;
    s.ckpt_state = key_base == m.base ? std::move(m.endpoint_state)
                                      : render(key_base);
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
    n_.add(MuxCounter::kCheckpointFlushes);
    n_.add(MuxCounter::kCheckpointRecords, batch.size());
    n_.add(MuxCounter::kCheckpointBytes, batch_bytes);
    if (cfg_.probe != nullptr) {
      cfg_.probe->record(
          {.msg = static_cast<std::int64_t>(batch.size()),
           .aux = us_between(flush_t0, std::chrono::steady_clock::now()),
           .session = static_cast<std::uint32_t>(shard.idx),
           .kind = obs::TraceEventKind::kCheckpointFlush});
    }
  }
  // Every held frame came from a session of this pass and is now covered
  // by a durable record (this batch, or an earlier one when the signature
  // never moved): release.
  for (const Routed& h : shard.held) send_now(*h.session, h.frame, now);
  shard.held.clear();
}

void SessionMux::finalize(Session& s, SessionState state) {
  s.state = state;
  s.dirty = true;  // the terminal state itself is worth a manifest record
  n_.add(state_counter(state));
  terminal_.fetch_add(1, std::memory_order_release);
  if (cfg_.probe != nullptr) {
    cfg_.probe->record({.session = s.id,
                        .kind = obs::TraceEventKind::kSessionState,
                        .detail = static_cast<std::uint8_t>(state)});
  }
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
    out.push_back(std::move(r));
  }
  return out;
}

void SessionMux::publish_metrics(obs::MetricsRegistry& reg) const {
  STPX_EXPECT(!started_ || stopped_,
              "SessionMux: publish_metrics() while workers are live");
  const auto st = stats();
  st.publish(reg, kMuxCounterNames);
  // Backpressure loss under its own name too, so dashboards can tell "the
  // mux chose to drop" apart from frame-accounting noise (the table's
  // kFramesShed key stays as the frame-family spelling of the counter).
  reg.counter("net.sheds").inc(st[MuxCounter::kFramesShed]);
  reg.gauge("net.sessions.active")
      .set(static_cast<std::int64_t>(active_sessions()));
  auto& rtt =
      reg.histogram("net.ack_rtt_us", obs::log_linear_bounds(kAckRttOctaves));
  for (const auto& shard : shards_) rtt.merge(shard->ack_rtt_us);
  for (const auto& s : sessions_) {
    reg.counter(std::string("net.verdict.") + to_cstr(s->state)).inc();
  }
}

}  // namespace stpx::net

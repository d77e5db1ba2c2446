#include "sim/engine.hpp"

#include <algorithm>

#include "util/blob.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace stpx::sim {

namespace {

std::size_t dir_index(Dir d) { return static_cast<std::size_t>(d); }

/// Validate a message id against a finite alphabet (no-op for unbounded).
void check_alphabet(MsgId msg, int alphabet, const char* who) {
  if (alphabet == kUnboundedAlphabet) return;
  STPX_EXPECT(msg >= 0 && msg < alphabet,
              std::string(who) + " sent a message outside its alphabet");
}

}  // namespace

Engine::Engine(std::unique_ptr<ISender> sender,
               std::unique_ptr<IReceiver> receiver,
               std::unique_ptr<IChannel> channel,
               std::unique_ptr<IScheduler> scheduler, EngineConfig config)
    : sender_(std::move(sender)),
      receiver_(std::move(receiver)),
      channel_(std::move(channel)),
      scheduler_(std::move(scheduler)),
      config_(config) {
  STPX_EXPECT(sender_ && receiver_ && channel_ && scheduler_,
              "Engine: null component");
}

Engine::Engine(const Engine& other)
    : sender_(other.sender_->clone()),
      receiver_(other.receiver_->clone()),
      channel_(other.channel_->clone()),
      scheduler_(other.scheduler_->clone()),
      config_(other.config_),
      x_(other.x_),
      y_(other.y_),
      safety_ok_(other.safety_ok_),
      stalled_(other.stalled_),
      last_progress_step_(other.last_progress_step_),
      first_violation_step_(other.first_violation_step_),
      first_crash_step_(other.first_crash_step_),
      corruption_seen_(other.corruption_seen_),
      first_corruption_step_(other.first_corruption_step_),
      pre_corruption_len_(other.pre_corruption_len_),
      corrupt_prefix_c_(other.corrupt_prefix_c_),
      correct_prefix_(other.correct_prefix_),
      last_saved_{other.last_saved_[0], other.last_saved_[1]},
      stats_(other.stats_),
      trace_(other.trace_),
      receiver_hist_(other.receiver_hist_),
      sender_hist_(other.sender_hist_),
      begun_(other.begun_) {}

void Engine::begin(const seq::Sequence& x) {
  x_ = x;
  y_.clear();
  y_.reserve(x.size());
  safety_ok_ = true;
  stalled_ = false;
  last_progress_step_ = 0;
  first_violation_step_ = 0;
  first_crash_step_.reset();
  corruption_seen_ = false;
  first_corruption_step_ = 0;
  pre_corruption_len_ = 0;
  corrupt_prefix_c_ = 0;
  correct_prefix_ = 0;
  last_saved_[0].clear();
  last_saved_[1].clear();
  stats_ = RunStats{};
  stats_.write_step.reserve(x.size());
  trace_.clear();
  receiver_hist_.clear();
  sender_hist_.clear();
  channel_->reset();
  scheduler_->reset();
  if (config_.sender_store) config_.sender_store->reset();
  if (config_.receiver_store) config_.receiver_store->reset();
  sender_->start(x);
  receiver_->start();
  begun_ = true;
  // Baseline checkpoints: a crash before any transition recovers the
  // initial state rather than falling back to a cold start.
  persist(Proc::kSender);
  persist(Proc::kReceiver);
  if (config_.probe) {
    report({.msg = static_cast<std::int64_t>(x_.size()),
            .kind = obs::TraceEventKind::kRunBegin});
  }
}

void Engine::fill_view(SchedView& v) const {
  STPX_EXPECT(begun_, "Engine: begin() not called");
  v.step = stats_.steps;
  channel_->deliverable_into(Dir::kSenderToReceiver, v.deliverable_to_receiver);
  channel_->deliverable_into(Dir::kReceiverToSender, v.deliverable_to_sender);
  v.items_written = y_.size();
  v.items_total = x_.size();
}

SchedView Engine::view() const {
  SchedView v;
  fill_view(v);
  return v;
}

bool Engine::legal(const Action& a) const {
  switch (a.kind) {
    case ActionKind::kSenderStep:
    case ActionKind::kReceiverStep:
      return true;
    case ActionKind::kDeliverToReceiver:
      return channel_->copies(Dir::kSenderToReceiver, a.msg) > 0;
    case ActionKind::kDeliverToSender:
      return channel_->copies(Dir::kReceiverToSender, a.msg) > 0;
  }
  return false;
}

void Engine::report(obs::TraceEvent ev) const {
  ev.ts_us = stats_.steps;
  config_.probe->record(ev);
}

void Engine::note_send(Dir dir, MsgId msg) {
  channel_->send(dir, msg);
  ++stats_.sent[dir_index(dir)];
  if (config_.probe) {
    report({.msg = msg, .kind = obs::TraceEventKind::kSend, .dir = dir});
  }
}

void Engine::apply(const Action& a) {
  STPX_EXPECT(begun_, "Engine: begin() not called");
  STPX_EXPECT(legal(a), "Engine: illegal action " + to_string(a));

  if (config_.probe) {
    report({.msg = a.msg,
            .kind = obs::TraceEventKind::kStep,
            .detail = static_cast<std::uint8_t>(a.kind)});
  }

  TraceEvent ev;
  ev.step = stats_.steps;
  ev.action = a;

  switch (a.kind) {
    case ActionKind::kSenderStep: {
      SenderEffect eff = sender_->on_step();
      if (eff.send) {
        check_alphabet(*eff.send, sender_->alphabet_size(), "sender");
        note_send(Dir::kSenderToReceiver, *eff.send);
        ev.did_send = true;
        ev.sent = *eff.send;
      }
      if (config_.record_histories) {
        LocalEvent le;
        le.kind = LocalEvent::Kind::kStep;
        le.sent = eff.send.value_or(-1);
        sender_hist_.push_back(std::move(le));
      }
      break;
    }
    case ActionKind::kReceiverStep: {
      ReceiverEffect eff = receiver_->on_step();
      if (eff.send) {
        check_alphabet(*eff.send, receiver_->alphabet_size(), "receiver");
        note_send(Dir::kReceiverToSender, *eff.send);
        ev.did_send = true;
        ev.sent = *eff.send;
      }
      for (seq::DataItem d : eff.writes) {
        const std::size_t pos = y_.size();
        y_.push_back(d);
        stats_.write_step.push_back(stats_.steps);
        last_progress_step_ = stats_.steps;
        if (config_.probe) {
          report({.msg = d, .aux = pos, .kind = obs::TraceEventKind::kWrite});
        }
        if (correct_prefix_ == pos && pos < x_.size() && x_[pos] == d) {
          ++correct_prefix_;
        }
        // Online safety check: Y must stay a prefix of X.
        if (safety_ok_ && (pos >= x_.size() || x_[pos] != d)) {
          safety_ok_ = false;
          first_violation_step_ = stats_.steps;
        }
      }
      if (config_.record_trace) ev.writes = eff.writes;
      if (config_.record_histories) {
        LocalEvent le;
        le.kind = LocalEvent::Kind::kStep;
        le.sent = eff.send.value_or(-1);
        le.writes = std::move(eff.writes);
        receiver_hist_.push_back(std::move(le));
      }
      break;
    }
    case ActionKind::kDeliverToReceiver: {
      channel_->deliver(Dir::kSenderToReceiver, a.msg);
      ++stats_.delivered[dir_index(Dir::kSenderToReceiver)];
      if (config_.probe) {
        report({.msg = a.msg,
                .kind = obs::TraceEventKind::kDeliver,
                .dir = Dir::kSenderToReceiver});
      }
      receiver_->on_deliver(a.msg);
      if (config_.record_histories) {
        LocalEvent le;
        le.kind = LocalEvent::Kind::kRecv;
        le.received = a.msg;
        receiver_hist_.push_back(std::move(le));
      }
      break;
    }
    case ActionKind::kDeliverToSender: {
      channel_->deliver(Dir::kReceiverToSender, a.msg);
      ++stats_.delivered[dir_index(Dir::kReceiverToSender)];
      if (config_.probe) {
        report({.msg = a.msg,
                .kind = obs::TraceEventKind::kDeliver,
                .dir = Dir::kReceiverToSender});
      }
      sender_->on_deliver(a.msg);
      if (config_.record_histories) {
        LocalEvent le;
        le.kind = LocalEvent::Kind::kRecv;
        le.received = a.msg;
        sender_hist_.push_back(std::move(le));
      }
      break;
    }
  }

  // Commit point: the acting process's durable state may have changed —
  // checkpoint it before the action's effects can be externalized further.
  persist(a.kind == ActionKind::kSenderStep ||
                  a.kind == ActionKind::kDeliverToSender
              ? Proc::kSender
              : Proc::kReceiver);

  if (config_.record_trace) trace_.push_back(std::move(ev));
  ++stats_.steps;
}

void Engine::persist(Proc who) {
  store::IStableStore* st = who == Proc::kSender ? config_.sender_store
                                                 : config_.receiver_store;
  if (!st) return;
  std::string s = who == Proc::kSender ? sender_->save_state()
                                       : receiver_->save_state();
  if (s.empty()) return;  // protocol declares no durable state
  std::string& last = last_saved_[static_cast<std::size_t>(who)];
  if (s == last) return;
  st->append(s);
  last = std::move(s);
  if (config_.compact_every > 0 && st->appends() % config_.compact_every == 0) {
    st->compact();
  }
}

void Engine::apply_store_fault(const StoreFaultRequest& rq) {
  store::IStableStore* st = rq.proc == Proc::kSender ? config_.sender_store
                                                     : config_.receiver_store;
  if (!st) return;
  switch (rq.kind) {
    case StoreFaultKind::kTornWrite: st->fault_torn_next_append(); break;
    case StoreFaultKind::kLoseTail: st->fault_lose_tail(rq.count); break;
    case StoreFaultKind::kCorruptRecord: st->fault_corrupt_record(); break;
    case StoreFaultKind::kStaleSnapshot: st->fault_stale_snapshot(); break;
  }
}

void Engine::rehydrate(Proc who) {
  store::IStableStore* st = who == Proc::kSender ? config_.sender_store
                                                 : config_.receiver_store;
  bool rehydrated = false;
  std::uint64_t replayed = 0;
  if (st) {
    const store::RecoveredState rec = st->recover();
    replayed = rec.records_replayed;
    stats_.records_replayed += rec.records_replayed;
    if (rec.found) {
      rehydrated = who == Proc::kSender
                       ? sender_->restore_state(rec.state)
                       : receiver_->restore_state(rec.state, y_);
    }
    if (rehydrated) ++stats_.recoveries;
    // Re-baseline against the restored (or cold) state; the store already
    // holds every durable transition, so nothing is re-appended here.
    last_saved_[static_cast<std::size_t>(who)] =
        who == Proc::kSender ? sender_->save_state() : receiver_->save_state();
  }
  if (config_.probe) {
    report({.msg = static_cast<std::int64_t>(replayed),
            .aux = rehydrated ? 1u : 0u,
            .kind = obs::TraceEventKind::kRestart,
            .detail = static_cast<std::uint8_t>(who)});
  }
}

bool Engine::converged() const {
  if (!corruption_seen_) return completed();
  const std::size_t k = static_cast<std::size_t>(config_.convergence_window);
  const std::size_t ny = y_.size();
  const std::size_t nx = x_.size();
  if (nx == 0) return true;
  // Greedy maximal terminal match: the last t items of Y equal X's last t.
  std::size_t t = 0;
  while (t < ny && t < nx && y_[ny - 1 - t] == x_[nx - 1 - t]) ++t;
  if (t == 0) return false;  // Y does not end with X's ending
  const std::size_t j = nx - t;  // X position where the matched tail begins
  if (j > corrupt_prefix_c_ + k) return false;  // > k items of X lost
  const std::size_t post = ny - pre_corruption_len_;
  const std::size_t garbage = post > t ? post - t : 0;
  return garbage <= k;
}

void Engine::note_corruption() {
  if (!corruption_seen_) {
    corruption_seen_ = true;
    first_corruption_step_ = stats_.steps;
  }
  pre_corruption_len_ = y_.size();
  corrupt_prefix_c_ = correct_prefix_;
}

void Engine::scramble_state(Proc who, std::uint64_t salt) {
  const std::string blob = who == Proc::kSender ? sender_->save_state()
                                                : receiver_->save_state();
  const std::vector<std::int64_t> tokens =
      util::blob_tokens(blob).value_or(std::vector<std::int64_t>{});
  bool accepted = false;
  // A process without durable state (or an unparseable blob) is immune.
  if (tokens.size() >= 2) {
    for (std::uint64_t attempt = 0; attempt < 8 && !accepted; ++attempt) {
      // Deterministic adversarial bytes: same (salt, attempt) -> same blob,
      // so scramble runs replay and minimize exactly like channel faults.
      std::uint64_t seed_state = salt ^ (0x9E3779B97F4A7C15ULL * (attempt + 1));
      Rng rng(splitmix64(seed_state));
      std::vector<std::int64_t> mut = tokens;
      // The leading tag survives: the scramble forges plausible state, not
      // a blob restore_state() can dismiss by family alone.
      bool changed = false;
      for (std::size_t i = 1; i < mut.size(); ++i) {
        if (!rng.chance(0.6)) continue;
        mut[i] = static_cast<std::int64_t>(rng.below(9));
        changed = changed || mut[i] != tokens[i];
      }
      if (!changed) {
        const std::size_t i = 1 + static_cast<std::size_t>(
                                      rng.below(mut.size() - 1));
        mut[i] ^= 1;
      }
      const std::string scrambled = util::blob_join(mut);
      accepted = who == Proc::kSender
                     ? sender_->restore_state(scrambled)
                     : receiver_->restore_state(scrambled, y_);
    }
  }
  if (accepted) {
    ++stats_.scrambles_applied;
  } else {
    ++stats_.scrambles_rejected;
  }
  // Every attempt counts as a corruption event, accepted or not: a
  // restore_state() that reports rejection may still have mutated live
  // state on the way to the failed check (non-atomic restores are a real
  // protocol defect this layer is meant to surface, not mask).  A truly
  // clean rejection costs nothing — the run then completes exactly and the
  // verdict stays kCompleted.
  if (tokens.size() >= 2) note_corruption();
  if (config_.probe) {
    report({.aux = accepted ? 1u : 0u,
            .kind = obs::TraceEventKind::kScramble,
            .detail = static_cast<std::uint8_t>(who)});
  }
}

void Engine::crash_restart_sender() {
  STPX_EXPECT(begun_, "Engine: begin() not called");
  sender_->start(x_);
  ++stats_.crashes[0];
  if (!first_crash_step_) first_crash_step_ = stats_.steps;
  if (config_.probe) {
    report({.kind = obs::TraceEventKind::kCrash,
            .detail = static_cast<std::uint8_t>(Proc::kSender)});
  }
  rehydrate(Proc::kSender);
}

void Engine::crash_restart_receiver() {
  STPX_EXPECT(begun_, "Engine: begin() not called");
  receiver_->start();
  ++stats_.crashes[1];
  if (!first_crash_step_) first_crash_step_ = stats_.steps;
  if (config_.probe) {
    report({.kind = obs::TraceEventKind::kCrash,
            .detail = static_cast<std::uint8_t>(Proc::kReceiver)});
  }
  rehydrate(Proc::kReceiver);
}

Action Engine::step_once() {
  // Give fault-injecting channels their timeline hook *before* the
  // scheduler looks at the deliverable sets, so a burst/blackout/freeze
  // firing this step is visible to (and survivable by) the legality check.
  const TickEffect fx = channel_->tick({stats_.steps, y_.size()});
  // Storage faults strike before crashes within a tick, so a fault and a
  // crash at the same trigger make recovery read the damaged store.
  for (const StoreFaultRequest& rq : fx.store_faults) apply_store_fault(rq);
  if (fx.crash_sender) crash_restart_sender();
  if (fx.crash_receiver) crash_restart_receiver();
  // Scrambles strike after crashes so a same-tick restart cannot wash the
  // corruption away; payload corruptions/forgeries already happened inside
  // the channel — only the convergence bookkeeping needs the tally.
  for (const ScrambleRequest& rq : fx.scrambles) {
    scramble_state(rq.proc, rq.salt);
  }
  if (fx.corruptions > 0) {
    stats_.corruptions += fx.corruptions;
    note_corruption();
  }
  fill_view(view_);
  const Action a = scheduler_->choose(view_);
  apply(a);
  return a;
}

void Engine::run_to_completion() {
  while (stats_.steps < config_.max_steps) {
    // A post-corruption violation is survivable when a convergence window
    // is set: the stabilization question is precisely whether the protocol
    // recovers *after* writing garbage.  Pre-corruption violations (and any
    // violation under the legacy k = 0 regime) still halt the run.
    if (!safety_ok_ &&
        !(config_.convergence_window > 0 && corruption_seen_ &&
          first_violation_step_ >= first_corruption_step_)) {
      break;
    }
    if (config_.stop_when_complete &&
        (completed() || (corruption_seen_ && converged()))) {
      break;
    }
    if (config_.stall_window > 0 && !completed() &&
        stats_.steps - last_progress_step_ >= config_.stall_window) {
      stalled_ = true;
      if (config_.probe) report({.kind = obs::TraceEventKind::kStall});
      break;
    }
    step_once();
  }
  if (config_.probe && corruption_seen_ && converged()) {
    report({.aux = stats_.steps - first_corruption_step_,
            .kind = obs::TraceEventKind::kConverge});
  }
  if (config_.probe) {
    report({.kind = obs::TraceEventKind::kRunEnd,
            .detail = static_cast<std::uint8_t>(verdict())});
  }
}

RunResult Engine::run(const seq::Sequence& x) {
  begin(x);
  run_to_completion();
  return result();
}

RunResult Engine::result() const {
  RunResult r;
  r.input = x_;
  r.output = y_;
  r.safety_ok = safety_ok_;
  r.first_violation_step = first_violation_step_;
  r.completed = completed();
  r.stalled = stalled_;
  r.converged = converged();
  r.verdict = verdict();
  r.stats = stats_;
  r.trace = trace_;
  r.receiver_history = receiver_hist_;
  r.sender_history = sender_hist_;
  return r;
}

}  // namespace stpx::sim

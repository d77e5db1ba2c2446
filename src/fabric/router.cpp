#include "fabric/router.hpp"

#include "util/expect.hpp"

namespace stpx::fabric {

using net::Frame;
using net::FrameKind;
using net::ITransport;
using net::kFabricSession;

namespace {

/// Pump sleep after a pass in which no link had traffic.  A sleep, not
/// ITransport::wait: the pump polls the client link and every backend
/// link, and one wait covers one transport.
constexpr std::chrono::microseconds kPollBackoff{50};
/// Frames taken from one link per pump pass (fairness bound).
constexpr std::size_t kBurst = 64;

}  // namespace

FabricRouter::FabricRouter(ITransport* client_side,
                           MembershipTable* membership, RouterConfig cfg)
    : client_(client_side), membership_(membership), cfg_(cfg),
      health_(cfg.health), nameserver_(membership) {
  STPX_EXPECT(client_ != nullptr, "FabricRouter: null client transport");
  STPX_EXPECT(membership_ != nullptr, "FabricRouter: null membership");
}

FabricRouter::~FabricRouter() { stop(); }

void FabricRouter::add_backend(std::uint32_t id, ITransport* link) {
  STPX_EXPECT(!started_, "FabricRouter: add_backend after start");
  STPX_EXPECT(link != nullptr, "FabricRouter: null backend link");
  auto b = std::make_unique<BackendLink>();
  b->id = id;
  b->link.store(link, std::memory_order_release);
  backends_.push_back(std::move(b));
  std::lock_guard<std::mutex> hold(health_mu_);
  health_.add_backend(id, std::chrono::steady_clock::now());
}

void FabricRouter::set_link(std::uint32_t id, ITransport* link) {
  for (auto& b : backends_) {
    if (b->id == id) {
      b->link.store(link, std::memory_order_release);
      // The store only stops FUTURE pump passes from using the old
      // transport — the pump may be inside poll() on it right now.  Wait
      // out two tick advances (the in-flight pass plus one full pass that
      // provably loaded the new pointer) so the caller can destroy the
      // old transport the moment we return.
      const std::uint64_t seen = pump_ticks_.load(std::memory_order_acquire);
      while (pump_.joinable() &&
             !pump_.get_stop_token().stop_requested() &&
             pump_ticks_.load(std::memory_order_acquire) < seen + 2) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      return;
    }
  }
  STPX_EXPECT(false, "FabricRouter: set_link on unknown backend");
}

void FabricRouter::start() {
  STPX_EXPECT(!started_, "FabricRouter: started twice");
  started_ = true;
  pump_ = std::jthread([this](std::stop_token st) { pump_loop(st); });
}

void FabricRouter::stop() {
  if (pump_.joinable()) {
    pump_.request_stop();
    pump_.join();
  }
}

void FabricRouter::set_drop_probes(std::uint32_t id, bool on) {
  for (auto& b : backends_) {
    if (b->id == id) b->drop_probes.store(on, std::memory_order_release);
  }
}

void FabricRouter::set_drop_data(std::uint32_t id, bool on) {
  for (auto& b : backends_) {
    if (b->id == id) b->drop_data.store(on, std::memory_order_release);
  }
}

void FabricRouter::set_probes_paused(std::uint32_t id, bool on) {
  for (auto& b : backends_) {
    if (b->id == id) b->probes_paused.store(on, std::memory_order_release);
  }
}

void FabricRouter::set_partition(std::uint32_t id, PartitionMode mode) {
  for (auto& b : backends_) {
    if (b->id == id) {
      b->partition.store(static_cast<std::uint8_t>(mode),
                         std::memory_order_release);
    }
  }
}

std::optional<Verdict> FabricRouter::next_verdict(
    std::chrono::steady_clock::time_point deadline, std::stop_token st) {
  std::unique_lock<std::mutex> hold(verdict_mu_);
  verdict_cv_.wait_until(hold, st, deadline,
                         [this] { return !dead_.empty() || !joined_.empty(); });
  auto& queue = !dead_.empty() ? dead_ : joined_;
  if (queue.empty()) return std::nullopt;
  const Verdict v{&queue == &dead_ ? Verdict::Kind::kDead
                                   : Verdict::Kind::kJoined,
                  queue.front()};
  queue.pop_front();
  return v;
}

HealthStats FabricRouter::health_stats() const {
  std::lock_guard<std::mutex> hold(health_mu_);
  return health_.stats();
}

void FabricRouter::publish_metrics(obs::MetricsRegistry& reg) const {
  stats().publish(reg, kRouterCounterNames);
  nameserver_.stats().publish(reg, kNameserverCounterNames);
}

void FabricRouter::redirect_client(std::uint32_t session) {
  client_->send(net::encode(nameserver_.redirect(session)));
}

void FabricRouter::route_inbound(const Frame& f,
                                 const std::vector<std::uint8_t>& bytes) {
  const auto entry = membership_->resolve(f.session);
  if (!entry) {
    n_.add(RouterCounter::kNoOwner);
    redirect_client(f.session);
    return;
  }
  if (entry->stale) {
    // The owner entry was stamped by a generation that has since been
    // fenced (e.g. the backend died with no survivor to re-home to, then
    // revived).  Routing to the revived incarnation would be an automatic
    // resurrection of a session nobody handed back — dropped, and the
    // client is redirected to re-resolve.
    n_.add(RouterCounter::kStaleLease);
    redirect_client(f.session);
    return;
  }
  BackendLink* target = nullptr;
  for (auto& b : backends_) {
    if (b->id == entry->backend) {
      target = b.get();
      break;
    }
  }
  if (!target) {
    n_.add(RouterCounter::kNoOwner);
    redirect_client(f.session);
    return;
  }
  if (membership_->health(entry->backend) == BackendHealth::kDead) {
    // Fenced owner, re-home not finished: the frame is dropped like wire
    // loss and the client's retransmission finds the survivor.  The
    // redirect carries the epoch the re-home will have bumped past.
    n_.add(RouterCounter::kDeadOwner);
    redirect_client(f.session);
    return;
  }
  const PartitionMode pm = partition_of(*target);
  if (pm == PartitionMode::kBoth || pm == PartitionMode::kToBackend) {
    // Host split: a network fault, not a membership fact — no redirect,
    // the drop looks exactly like wire loss to the client.
    n_.add(RouterCounter::kPartitionSuppressed);
    return;
  }
  if (target->drop_data.load(std::memory_order_acquire)) {
    n_.add(RouterCounter::kDataSuppressed);
    return;
  }
  if (ITransport* link = target->link.load(std::memory_order_acquire)) {
    link->send(bytes);
    n_.add(RouterCounter::kClientToBackend);
  }
}

void FabricRouter::on_join(BackendLink& b, HealthMonitor::time_point now) {
  bool opened = false;
  bool in_probation = false;
  {
    std::lock_guard<std::mutex> hold(health_mu_);
    opened = health_.rejoin(b.id, now);
    in_probation = opened || health_.on_probation(b.id);
  }
  if (opened) {
    // Probation opens; the death stays reported (and the membership entry
    // stays fenced) until the supervisor finishes the reclaim handoff.
    b.awaiting_probation = true;
    n_.add(RouterCounter::kJoins);
  }
  if (!in_probation) {
    // The FSM has not condemned this backend (crash detection is still
    // mid-ladder) — or it is genuinely alive and this kJoin is noise.
    // No ack either way: an acked join MEANS "probation is open", and the
    // announcing cell keeps retrying until the ladder catches up.
    return;
  }
  // Ack a duplicate kJoin too while probation is open (retries after a
  // lost ack must converge), carrying the current membership epoch so the
  // announcing generation can date itself.
  const PartitionMode pm = partition_of(b);
  if (pm == PartitionMode::kBoth || pm == PartitionMode::kToBackend) {
    n_.add(RouterCounter::kPartitionSuppressed);
    return;
  }
  if (ITransport* link = b.link.load(std::memory_order_acquire)) {
    Frame ack;
    ack.kind = FrameKind::kJoinAck;
    ack.dir = sim::Dir::kReceiverToSender;
    ack.session = kFabricSession;
    ack.msg = static_cast<std::int64_t>(membership_->epoch());
    link->send(net::encode(ack));
  }
}

bool FabricRouter::drain_backend(BackendLink& b,
                                 HealthMonitor::time_point now) {
  ITransport* link = b.link.load(std::memory_order_acquire);
  if (!link) return false;
  bool busy = false;
  for (std::size_t i = 0; i < kBurst; ++i) {
    auto bytes = link->poll();
    if (!bytes) break;
    busy = true;
    const auto f = net::decode(*bytes);
    if (!f) {
      n_.add(RouterCounter::kRejects);
      continue;
    }
    const PartitionMode pm = partition_of(b);
    if (pm == PartitionMode::kBoth || pm == PartitionMode::kFromBackend) {
      // Host split severs EVERYTHING from the backend — data, probe acks,
      // joins.  Unanswered probes keep charging the health FSM, so a long
      // enough partition reads as a crash; that asymmetry IS the fault.
      n_.add(RouterCounter::kPartitionSuppressed);
      continue;
    }
    if (f->session == kFabricSession) {
      if (f->kind == FrameKind::kJoin) {
        on_join(b, now);
        continue;
      }
      if (f->kind != FrameKind::kProbeAck) continue;  // stray control frame
      if (b.drop_probes.load(std::memory_order_acquire)) {
        // Probe-blackout severs the heartbeat in BOTH directions: the
        // ack made it back but the router never sees it.
        n_.add(RouterCounter::kProbesSuppressed);
        continue;
      }
      {
        std::lock_guard<std::mutex> hold(health_mu_);
        health_.on_ack(b.id, f->msg, now);
      }
      n_.add(RouterCounter::kProbeAcks);
      continue;
    }
    if (b.drop_data.load(std::memory_order_acquire)) {
      n_.add(RouterCounter::kDataSuppressed);
      continue;
    }
    client_->send(*bytes);
    n_.add(RouterCounter::kBackendToClient);
  }
  return busy;
}

void FabricRouter::tend_backend(BackendLink& b,
                                HealthMonitor::time_point now) {
  // Maintenance pause: apply edge transitions of the atomic flag to the
  // (pump-private) health FSM.
  const bool want_paused = b.probes_paused.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> hold(health_mu_);
  if (want_paused != b.applied_paused) {
    health_.set_paused(b.id, want_paused, now);
    b.applied_paused = want_paused;
  }
  if (!want_paused) {
    if (const auto nonce = health_.next_probe(b.id, now)) {
      const PartitionMode pm = partition_of(b);
      if (pm == PartitionMode::kBoth || pm == PartitionMode::kToBackend) {
        // The FSM believes the probe is on the wire (it charges the
        // timeout); the split ate it.
        n_.add(RouterCounter::kPartitionSuppressed);
      } else if (b.drop_probes.load(std::memory_order_acquire)) {
        // Same asymmetry, probe-blackout flavour.
        n_.add(RouterCounter::kProbesSuppressed);
      } else if (ITransport* link =
                     b.link.load(std::memory_order_acquire)) {
        Frame probe;
        probe.kind = FrameKind::kProbe;
        probe.dir = sim::Dir::kSenderToReceiver;
        probe.session = kFabricSession;
        probe.msg = *nonce;
        link->send(net::encode(probe));
        n_.add(RouterCounter::kProbesSent);
      }
    }
  }
  const BackendHealth verdict = health_.health(b.id, now);
  // A fenced membership entry stays fenced until the supervisor runs the
  // reclaim handoff and calls revive() — the router never flips a dead
  // entry back by itself, even when probation has already passed.
  if (membership_->health(b.id) != BackendHealth::kDead) {
    membership_->set_health(b.id, verdict);
  }
  if (b.awaiting_probation) {
    if (verdict == BackendHealth::kAlive) {
      // Probation passed: hand the rejoiner to the supervisor.  From here
      // a fresh death of the revived incarnation is reportable again.
      b.awaiting_probation = false;
      b.reported_dead = false;
      std::lock_guard<std::mutex> vq(verdict_mu_);
      joined_.push_back(b.id);
      verdict_cv_.notify_all();
    } else if (verdict == BackendHealth::kDead) {
      // Struck out mid-probation: still fenced, nothing new to report —
      // the next kJoin may try again.
      b.awaiting_probation = false;
    }
    return;
  }
  if (verdict == BackendHealth::kDead && !b.reported_dead) {
    b.reported_dead = true;
    std::lock_guard<std::mutex> vq(verdict_mu_);
    dead_.push_back(b.id);
    verdict_cv_.notify_all();
  }
}

void FabricRouter::pump_loop(std::stop_token st) {
  while (!st.stop_requested()) {
    bool busy = false;
    for (std::size_t i = 0; i < kBurst; ++i) {
      auto bytes = client_->poll();
      if (!bytes) break;
      busy = true;
      const auto f = net::decode(*bytes);
      if (!f) {
        n_.add(RouterCounter::kRejects);
        continue;
      }
      if (f->kind == FrameKind::kResolve) {
        client_->send(net::encode(nameserver_.answer(*f)));
        continue;
      }
      route_inbound(*f, *bytes);
    }
    const auto now = std::chrono::steady_clock::now();
    for (auto& b : backends_) {
      busy = drain_backend(*b, now) || busy;
      tend_backend(*b, now);
    }
    pump_ticks_.fetch_add(1, std::memory_order_release);
    if (!busy) std::this_thread::sleep_for(kPollBackoff);
  }
}

}  // namespace stpx::fabric

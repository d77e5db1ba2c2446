#include "fabric/cell.hpp"

#include <algorithm>
#include <chrono>
#include <set>

#include "util/expect.hpp"

namespace stpx::fabric {

BackendCell::BackendCell(net::ITransport* transport, CellConfig cfg)
    : transport_(transport), cfg_(std::move(cfg)) {
  STPX_EXPECT(transport_ != nullptr, "BackendCell: null transport");
  STPX_EXPECT(cfg_.id != 0, "BackendCell: backend id 0 is reserved");
  STPX_EXPECT(!cfg_.stores.empty(), "BackendCell: a backend needs stores");
  STPX_EXPECT(static_cast<bool>(cfg_.make_receiver) &&
                  static_cast<bool>(cfg_.expected_for),
              "BackendCell: receiver factory and expectation provider "
              "are required");
  server_ = make_generation();
}

std::unique_ptr<net::StpServer> BackendCell::make_generation() {
  net::MuxConfig mc = cfg_.mux;
  mc.backend_id = cfg_.id;
  mc.session_stores = cfg_.stores;
  return std::make_unique<net::StpServer>(transport_, mc);
}

void BackendCell::add_session(std::uint32_t sid) {
  // Cold registration passes proto_tag 0 ("fresh default") — factories
  // must build a from-scratch receiver for tag 0.
  auto receiver = cfg_.make_receiver(sid, 0);
  STPX_EXPECT(receiver != nullptr,
              "BackendCell: factory declined a cold session");
  server_->add_session(sid, std::move(receiver), cfg_.expected_for(sid));
}

void BackendCell::start() {
  std::lock_guard<std::mutex> hold(mu_);
  STPX_EXPECT(!killed_, "BackendCell: start on a dead cell");
  server_->mux().start();
}

void BackendCell::stop() {
  std::lock_guard<std::mutex> hold(mu_);
  if (killed_) return;
  server_->mux().stop();
}

std::size_t BackendCell::kill() {
  std::lock_guard<std::mutex> hold(mu_);
  if (killed_) return 0;
  killed_ = true;
  const std::size_t active = server_->mux().active_sessions();
  server_->mux().kill();
  return active;
}

std::optional<AbsorbReport> BackendCell::absorb(
    const std::vector<store::IStableStore*>& handoff,
    const std::vector<std::uint32_t>& hosted) {
  std::lock_guard<std::mutex> hold(mu_);
  if (killed_) return std::nullopt;  // fenced before it could restart
  const auto t0 = std::chrono::steady_clock::now();
  // Bare stop: the running generation retires without its final flush —
  // our own sessions restart from their last cadence checkpoint, same as
  // they would after a real crash.  Held (durability-gated) frames die
  // here; retransmission heals that.
  server_->mux().stop();
  ++generation_;
  server_ = make_generation();
  std::set<std::uint32_t> missing(hosted.begin(), hosted.end());
  AbsorbReport rep;
  rep.rehydrate = server_->rehydrate(
      [this, &missing](std::uint32_t sid, std::uint64_t tag)
          -> std::unique_ptr<sim::IReceiver> {
        if (missing.count(sid) == 0) return nullptr;  // not hosted here
        return cfg_.make_receiver(sid, tag);
      },
      cfg_.expected_for, handoff);
  // Hosted sessions no log manifests (assigned, never checkpointed before
  // the stop) start cold — they re-earn everything from the wire.
  for (const auto& r : server_->mux().reports()) missing.erase(r.id);
  for (const std::uint32_t sid : missing) {
    auto receiver = cfg_.make_receiver(sid, 0);
    if (!receiver) continue;
    server_->add_session(sid, std::move(receiver), cfg_.expected_for(sid));
    rep.cold_added.push_back(sid);
  }
  server_->mux().start();
  rep.latency_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return rep;
}

bool BackendCell::rejoin() {
  // Five announcements 50 ms apart, no jitter: about 250 ms for the
  // strike ladder to condemn the dead generation and open probation.
  static constexpr net::RetryConfig kJoinRetry{
      5, std::chrono::milliseconds(50), 1.0, std::chrono::milliseconds(50),
      0.0};
  std::lock_guard<std::mutex> hold(mu_);
  STPX_EXPECT(killed_, "BackendCell: rejoin on a live cell");
  // The rejoining generation announces under a fresh number, so every
  // manifest record it will ever write post-dates the crashed one's.  The
  // dead mux no longer polls the transport, so the handshake owns it until
  // the probation generation starts.
  ++generation_;
  if (!announce_join(*transport_, generation_, kJoinRetry)) return false;
  // Sessionless probation generation: answers probes, serves nothing.
  // Its sessions come back through the reclaim absorb once probation
  // passes.
  killed_ = false;
  server_ = make_generation();
  server_->mux().start();
  return true;
}

bool announce_join(net::ITransport& link, std::uint32_t generation,
                   const net::RetryConfig& retry) {
  net::Frame join;
  join.kind = net::FrameKind::kJoin;
  join.dir = sim::Dir::kSenderToReceiver;
  join.session = net::kFabricSession;
  join.msg = static_cast<std::int64_t>(generation);
  net::HandshakeRetry fsm(retry);
  auto next_send = std::chrono::steady_clock::now();
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (fsm.exhausted(now)) return false;
    if (fsm.should_send(now)) {
      link.send(net::encode(join));
      next_send = now + fsm.last_delay();
    }
    while (const auto bytes = link.poll()) {
      const auto f = net::decode(*bytes);
      if (f && f->session == net::kFabricSession &&
          f->kind == net::FrameKind::kJoinAck) {
        return true;
      }
    }
    link.wait(std::max(std::chrono::duration_cast<std::chrono::microseconds>(
                           next_send - std::chrono::steady_clock::now()),
                       std::chrono::microseconds(0)));
  }
}

}  // namespace stpx::fabric

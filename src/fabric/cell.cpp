#include "fabric/cell.hpp"

#include <chrono>
#include <set>
#include <thread>

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
  started_ = true;
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

AbsorbReport BackendCell::absorb_locked(
    const std::vector<store::IStableStore*>& handoff,
    const std::vector<std::uint32_t>& expected,
    const std::function<bool(std::uint32_t)>& allowed) {
  STPX_EXPECT(!killed_, "BackendCell: absorb on a dead cell");
  const auto t0 = std::chrono::steady_clock::now();
  // Bare stop: the running generation retires without its final flush —
  // our own sessions restart from their last cadence checkpoint, same as
  // they would after a real crash.  Held (durability-gated) frames die
  // here; retransmission heals that.
  server_->mux().stop();
  ++generation_;
  server_ = make_generation();
  net::StpServer::ReceiverFactory factory = cfg_.make_receiver;
  if (allowed) {
    factory = [this, &allowed](std::uint32_t sid, std::uint64_t tag)
        -> std::unique_ptr<sim::IReceiver> {
      if (!allowed(sid)) return nullptr;  // declined: not ours any more
      return cfg_.make_receiver(sid, tag);
    };
  }
  AbsorbReport rep;
  rep.rehydrate = server_->rehydrate(factory, cfg_.expected_for, handoff);
  // Sessions the membership table expects here but no log manifests
  // (assigned, never checkpointed before the crash) start cold — they
  // re-earn everything from the wire.
  std::set<std::uint32_t> hosted;
  for (const auto& r : server_->mux().reports()) hosted.insert(r.id);
  for (const std::uint32_t sid : expected) {
    if (hosted.count(sid) != 0) continue;
    auto receiver = cfg_.make_receiver(sid, 0);
    if (!receiver) continue;
    server_->add_session(sid, std::move(receiver), cfg_.expected_for(sid));
    rep.cold_added.push_back(sid);
  }
  server_->mux().start();
  started_ = true;
  rep.latency_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return rep;
}

AbsorbReport BackendCell::rehome_absorb(
    const std::vector<store::IStableStore*>& handoff,
    const std::vector<std::uint32_t>& expected,
    const std::optional<std::vector<std::uint32_t>>& owned) {
  std::lock_guard<std::mutex> hold(mu_);
  if (!owned) return absorb_locked(handoff, expected, {});
  // Every owned session must be hosted after the restart too: one that
  // has heard nothing yet has no manifest record, so it is cold-added
  // like an incoming session no log names.
  std::set<std::uint32_t> keep(owned->begin(), owned->end());
  keep.insert(expected.begin(), expected.end());
  const std::vector<std::uint32_t> hosted(keep.begin(), keep.end());
  return absorb_locked(handoff, hosted, [&keep](std::uint32_t sid) {
    return keep.count(sid) != 0;
  });
}

AbsorbReport BackendCell::release_absorb(
    const std::vector<std::uint32_t>& victims,
    const std::vector<std::uint32_t>& remaining) {
  std::lock_guard<std::mutex> hold(mu_);
  std::set<std::uint32_t> keep(remaining.begin(), remaining.end());
  auto allowed = [keep = std::move(keep)](std::uint32_t sid) {
    return keep.count(sid) != 0;
  };
  (void)victims;  // the complement of `remaining`; named for the call site
  return absorb_locked({}, remaining, allowed);
}

RejoinReport BackendCell::rejoin(std::uint32_t max_attempts,
                                 std::chrono::microseconds ack_wait) {
  std::lock_guard<std::mutex> hold(mu_);
  STPX_EXPECT(killed_, "BackendCell: rejoin on a live cell");
  const auto t0 = std::chrono::steady_clock::now();
  RejoinReport rep;
  // The rejoining generation announces under a fresh number, so every
  // manifest record it will ever write post-dates the crashed one's.
  ++generation_;
  rep.generation = generation_;
  net::Frame join;
  join.kind = net::FrameKind::kJoin;
  join.dir = sim::Dir::kSenderToReceiver;
  join.session = net::kFabricSession;
  join.msg = static_cast<std::int64_t>(generation_);
  // Pre-mux handshake: the dead mux no longer polls this transport, so
  // the handshake owns it until the probation generation starts.
  for (std::uint32_t a = 0; a < max_attempts && !rep.acked; ++a) {
    transport_->send(net::encode(join));
    ++rep.attempts;
    const auto deadline = std::chrono::steady_clock::now() + ack_wait;
    while (std::chrono::steady_clock::now() < deadline) {
      auto bytes = transport_->poll();
      if (!bytes) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      const auto f = net::decode(*bytes);
      if (!f || f->session != net::kFabricSession) continue;  // stale data
      if (f->kind == net::FrameKind::kJoinAck) {
        rep.acked = true;
        rep.epoch = static_cast<std::uint64_t>(f->msg);
        break;
      }
      // Everything else — including kProbe — is ignored.  An acked join
      // MEANS the router opened probation; answering probes before that
      // would feed the strike ladder healthy acks and stall the very
      // condemnation this handshake is waiting on.  Probation's probes
      // are answered by the restarted mux below.
    }
  }
  if (!rep.acked) return rep;  // still dead; a later rejoin() may retry
  // Sessionless probation generation: answers probes, serves nothing.
  // Its sessions come back through the reclaim handoff once probation
  // passes and the supervisor runs release/reclaim absorbs.
  killed_ = false;
  server_ = make_generation();
  server_->mux().start();
  started_ = true;
  rep.latency_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return rep;
}

}  // namespace stpx::fabric

// Durable mux lab: kill a server holding 60 live sessions mid-traffic,
// corrupt its session log, restart it, and watch every transfer finish.
//
//   $ ./durable_mux_lab
//
// One StpClient (60 Stenning senders, dup-ack go-back armed) runs against
// a durable StpServer (60 receivers checkpointing into two stable stores
// by group commit) over a lossy, reordering loopback wire.  Mid-transfer
// the server is kill()ed — crash-shaped: no final flush, held acks die
// with the process image — and two storage faults bite the session log
// (one corrupted record, a two-record tail loss).  A second server
// generation on the same endpoint and stores then rehydrate()s every
// manifested session from its newest surviving checkpoint, cold-readds
// any session whose only record was destroyed, and the pair drains to
// completion: damage is detected and healed by bounded retransmission,
// never silently absorbed.  The lab prints the rehydration report, a
// per-session verdict table spanning both generations, and the wire- and
// checkpoint-level accounting.
//
// See docs/RECOVERY.md (manifest format, group commit, rewind tolerance)
// and docs/NETWORK.md for the mux architecture.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/table.hpp"
#include "fault/plan.hpp"
#include "net/loopback.hpp"
#include "net/service.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "proto/suite.hpp"
#include "store/stable_store.hpp"

using namespace stpx;
using net::MuxCounter;

namespace {

constexpr int kDomain = 10;
constexpr std::size_t kSessions = 60;
constexpr std::size_t kSeqLen = 16;

seq::Sequence seq_for(std::uint32_t id) {
  seq::Sequence x;
  for (std::size_t i = 0; i < kSeqLen; ++i) {
    x.push_back(static_cast<seq::DataItem>((id * 3 + i) % kDomain));
  }
  return x;
}

/// Tracks per-session progress so the lab knows when to kill (the kill
/// window) and how many sessions gen-2 rehydrated.
class LabProbe final : public obs::IProbe {
 public:
  void record(const obs::TraceEvent& ev) override {
    if (ev.kind == obs::TraceEventKind::kItem && ev.session < kSessions) {
      ++progress_[ev.session];
    } else if (ev.kind == obs::TraceEventKind::kRehydrate) {
      ++rehydrated_;
    }
  }
  std::size_t min_progress() const {
    std::size_t lo = progress_[0].load();
    for (const auto& p : progress_) lo = std::min(lo, p.load());
    return lo;
  }
  std::size_t max_progress() const {
    std::size_t hi = 0;
    for (const auto& p : progress_) hi = std::max(hi, p.load());
    return hi;
  }
  std::uint64_t rehydrated() const { return rehydrated_; }

 private:
  std::array<std::atomic<std::size_t>, kSessions> progress_{};
  std::atomic<std::uint64_t> rehydrated_{0};
};

net::StpServer::ReceiverFactory stenning_receiver_factory() {
  return [](std::uint32_t,
            std::uint64_t tag) -> std::unique_ptr<sim::IReceiver> {
    if (tag != store::proto_tag_of("stenning-receiver")) return nullptr;
    return proto::make_stenning(kDomain).receiver;
  };
}

}  // namespace

int main() {
  // --- the wire: periodic loss both ways, reordered delivery --------------
  net::LoopbackConfig wire;
  wire.plan = fault::periodic_plan(fault::FaultKind::kDropBurst,
                                   sim::Dir::kSenderToReceiver, 7, 1, 200000);
  const auto rs = fault::periodic_plan(fault::FaultKind::kDropBurst,
                                       sim::Dir::kReceiverToSender, 9, 1,
                                       200000);
  wire.plan.actions.insert(wire.plan.actions.end(), rs.actions.begin(),
                           rs.actions.end());
  wire.reorder_window = 4;
  wire.seed = 0xD1AB;
  wire.max_queue = 8192;
  auto pair = net::make_loopback(wire);

  // --- generation 1: durable server, checkpoint every pass -----------------
  store::MemStore st0, st1;
  st0.reset();
  st1.reset();
  LabProbe probe1, probe2;

  net::MuxConfig cfg;
  cfg.workers = 2;

  net::StpClient client(pair.a.get(), cfg);
  net::MuxConfig scfg = cfg;
  scfg.probe = &probe1;
  scfg.session_stores = {&st0, &st1};
  auto server = std::make_unique<net::StpServer>(pair.b.get(), scfg);
  for (std::uint32_t id = 0; id < kSessions; ++id) {
    auto protocols = proto::make_stenning(kDomain, /*sender_ack_rewind=*/true);
    const auto x = seq_for(id);
    client.add_session(id, std::move(protocols.sender), x);
    server->add_session(id, std::move(protocols.receiver), x);
  }

  std::cout << analysis::heading(
      "durable mux lab: kill + restart with a damaged session log");

  client.mux().start();
  server->mux().start();

  // --- the kill window: every session manifested, none finished ------------
  // Sessions run at their own pace, so the window closes when the leading
  // session is halfway: a session that lost its first frames by then is
  // killed unmanifested and comes back cold.  A finished session must not
  // be rewound by the storage faults below: its sender already took the
  // FIN and will never send again.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline &&
         probe1.min_progress() < 1 &&
         probe1.max_progress() < kSeqLen / 2) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  server->mux().kill();
  const auto gen1 = server->mux().stats();
  std::cout << "\nkill: server down with " << gen1[MuxCounter::kItemsDone]
            << " items landed across " << kSessions << " sessions ("
            << gen1[MuxCounter::kCheckpointFlushes] << " group commits, "
            << gen1[MuxCounter::kCheckpointRecords] << " manifest records, "
            << gen1[MuxCounter::kCheckpointBytes] << " bytes)\n";

  // --- storage faults bite the session log while the server is down --------
  st0.fault_corrupt_record();
  st1.fault_lose_tail(2);
  std::cout << "storage faults: one record corrupted in store 0, "
               "two-record tail lost from store 1\n";

  // --- generation 2: same endpoint, same stores, rehydrate -----------------
  net::MuxConfig s2cfg = cfg;
  s2cfg.probe = &probe2;
  s2cfg.session_stores = {&st0, &st1};
  net::StpServer gen2(pair.b.get(), s2cfg);
  const auto rep = gen2.rehydrate(stenning_receiver_factory(),
                                  [](std::uint32_t id) { return seq_for(id); });
  std::cout << "rehydrate: " << rep.sessions << " sessions re-admitted ("
            << rep.records_scanned << " records scanned, "
            << rep.records_skipped << " damaged records skipped, "
            << rep.violations << " recovery violations)\n";

  // Storage-amnesia fallback: a session whose only record was destroyed is
  // no longer manifested; the operator re-adds it cold and the wire heals
  // by full retransmission from the front.
  std::vector<bool> present(kSessions, false);
  for (const auto& r : gen2.mux().reports()) present[r.id] = true;
  std::size_t cold = 0;
  for (std::uint32_t id = 0; id < kSessions; ++id) {
    if (present[id]) continue;
    gen2.add_session(id, proto::make_stenning(kDomain).receiver, seq_for(id));
    ++cold;
  }
  if (cold > 0) {
    std::cout << "cold re-add: " << cold
              << " session(s) lost their only manifest record\n";
  }

  // --- drain both ends across the restart ----------------------------------
  const auto t0 = std::chrono::steady_clock::now();
  gen2.mux().start();
  const bool drained = client.mux().drain(std::chrono::seconds(60)) &&
                       gen2.mux().drain(std::chrono::seconds(60));
  gen2.mux().stop();
  client.mux().stop();
  const auto wall =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          std::chrono::steady_clock::now() - t0)
          .count();

  // --- per-session verdicts across both generations ------------------------
  analysis::Table verdicts({"session", "endpoint", "verdict", "items",
                            "rehydrated", "frames in", "frames out"});
  std::size_t completed = 0;
  for (const auto& r : gen2.mux().reports()) {
    if (r.state == net::SessionState::kCompleted) ++completed;
    verdicts.add_row({std::to_string(r.id), r.endpoint, net::to_cstr(r.state),
                      std::to_string(r.items), r.rehydrated ? "yes" : "no",
                      std::to_string(r.frames_in),
                      std::to_string(r.frames_out)});
  }
  std::cout << "\n" << verdicts.to_ascii();

  // --- wire + checkpoint accounting ----------------------------------------
  const auto sr = pair.stats(sim::Dir::kSenderToReceiver);
  const auto rs_stats = pair.stats(sim::Dir::kReceiverToSender);
  const auto ss = gen2.mux().stats();
  std::cout << "\ndrained        = " << (drained ? "yes" : "NO")
            << "\ncompleted      = " << completed << "/" << kSessions
            << "\nrehydrated     = " << probe2.rehydrated() << " ("
            << cold << " cold re-adds)"
            << "\npost-kill wall = " << wall << " ms"
            << "\nitems gen1/2   = " << gen1[MuxCounter::kItemsDone] << " / "
            << ss[MuxCounter::kItemsDone]
            << "\nwire drops     = " << sr.dropped + rs_stats.dropped
            << " (SR " << sr.dropped << ", RS " << rs_stats.dropped << ")\n";

  return drained && completed == kSessions && rep.violations == 0 ? 0 : 1;
}

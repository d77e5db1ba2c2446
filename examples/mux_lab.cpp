// Mux lab: 100 concurrent STP sessions over a lossy, reordering in-process
// wire — the service layer (src/net/) end to end.
//
//   $ ./mux_lab
//
// One StpClient (100 Stenning senders) and one StpServer (100 matching
// receivers) run over a LoopbackTransport whose loss is scripted with the
// same fault-plan grammar the chaos layer uses: every 7th frame toward the
// server and every 9th frame back is dropped, and delivery reorders within
// a window of 4.  Each session must finish with its output tape an exact
// copy of its input (checked write by write); the lab prints a per-session
// verdict table plus the wire- and mux-level accounting.
//
// See docs/NETWORK.md for the frame format, transport contract, and mux
// architecture.
#include <chrono>
#include <iostream>

#include "analysis/table.hpp"
#include "fault/plan.hpp"
#include "net/loopback.hpp"
#include "net/service.hpp"
#include "obs/metrics.hpp"
#include "proto/suite.hpp"

using namespace stpx;

namespace {

constexpr int kDomain = 10;
constexpr std::size_t kSessions = 100;
constexpr std::size_t kSeqLen = 6;

seq::Sequence seq_for(std::uint32_t id) {
  seq::Sequence x;
  for (std::size_t i = 0; i < kSeqLen; ++i) {
    x.push_back(static_cast<seq::DataItem>((id * 3 + i) % kDomain));
  }
  return x;
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
  wire.seed = 0x1AB;
  wire.max_queue = 8192;
  auto pair = net::make_loopback(wire);

  // --- the service pair ---------------------------------------------------
  net::MuxConfig cfg;
  cfg.workers = 2;

  net::StpClient client(pair.a.get(), cfg);
  net::StpServer server(pair.b.get(), cfg);
  for (std::uint32_t id = 0; id < kSessions; ++id) {
    auto protocols = proto::make_stenning(kDomain);
    const auto x = seq_for(id);
    client.add_session(id, std::move(protocols.sender), x);
    server.add_session(id, std::move(protocols.receiver), x);
  }

  std::cout << analysis::heading(
      "mux lab: 100 sessions over a lossy, reordering wire");
  const auto t0 = std::chrono::steady_clock::now();
  const bool drained =
      net::run_service_pair(client, server, std::chrono::seconds(30));
  const auto wall =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          std::chrono::steady_clock::now() - t0)
          .count();

  // --- per-session verdicts (receiver side owns the tape) ------------------
  analysis::Table verdicts(
      {"session", "endpoint", "verdict", "items", "frames in", "frames out"});
  std::size_t completed = 0;
  for (const auto& r : server.mux().reports()) {
    if (r.state == net::SessionState::kCompleted) ++completed;
    verdicts.add_row({std::to_string(r.id), r.endpoint,
                      net::to_cstr(r.state), std::to_string(r.items),
                      std::to_string(r.frames_in),
                      std::to_string(r.frames_out)});
  }
  std::cout << "\n" << verdicts.to_ascii();

  // --- wire + mux accounting ----------------------------------------------
  const auto sr = pair.stats(sim::Dir::kSenderToReceiver);
  const auto rs_stats = pair.stats(sim::Dir::kReceiverToSender);
  const auto ss = server.mux().stats();
  obs::MetricsRegistry reg;
  client.mux().publish_metrics(reg);
  const obs::Histogram& rtt = reg.histograms().at("net.ack_rtt_us");

  std::cout << "\ndrained      = " << (drained ? "yes" : "NO")
            << "\ncompleted    = " << completed << "/" << kSessions
            << "\nwall         = " << wall << " ms"
            << "\nitems done   = " << ss[net::MuxCounter::kItemsDone]
            << "\nwire drops   = " << sr.dropped + rs_stats.dropped
            << " (SR " << sr.dropped << ", RS " << rs_stats.dropped << ")"
            << "\nack rtt p50  = " << rtt.quantile(0.50)
            << " us, p99 = " << rtt.quantile(0.99) << " us\n";

  return drained && completed == kSessions ? 0 : 1;
}

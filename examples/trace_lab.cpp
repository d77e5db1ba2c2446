// Trace lab: fly a session mux with the flight recorder on, then take the
// trace apart — the wire observability stack (src/net/ + src/analysis/)
// end to end.
//
//   $ ./trace_lab [trace.jsonl [trace.chrome.json]]
//
// 40 concurrent Stenning sessions run over a lossy, reordering loopback
// wire that also goes dark for a scripted blackout window mid-run.  A
// FlightRecorder attached to the server mux captures every wire event
// into bounded per-thread rings; a drainer thread merges them into one
// time-ordered stream while the run is still flying.  Afterwards the lab:
//
//   1. runs the standard TracePipeline — the prefix-safety attestor
//      re-derives the acceptance verdict from the trace alone, and the
//      goodput / stall / fault-correlation analyzers fill in the "what
//      did the wire actually do" picture;
//   2. archives the stream as JSONL and (optionally) as a Chrome trace
//      you can drop into Perfetto, with the blackout window overlaid as a
//      span across the per-session tracks.
//
// See docs/OBSERVABILITY.md ("Wire observability") for the event schema.
#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>

#include "analysis/table.hpp"
#include "analysis/trace_pipeline.hpp"
#include "fault/plan.hpp"
#include "net/flight_recorder.hpp"
#include "net/loopback.hpp"
#include "net/service.hpp"
#include "net/trace_sinks.hpp"
#include "proto/suite.hpp"

using namespace stpx;
using namespace std::chrono_literals;

namespace {

constexpr int kDomain = 10;
constexpr std::size_t kSessions = 40;
constexpr std::size_t kSeqLen = 6;

seq::Sequence seq_for(std::uint32_t id) {
  seq::Sequence x;
  for (std::size_t i = 0; i < kSeqLen; ++i) {
    x.push_back(static_cast<seq::DataItem>((id * 3 + i) % kDomain));
  }
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string jsonl_path = argc > 1 ? argv[1] : "";
  const std::string chrome_path = argc > 2 ? argv[2] : "";

  // --- the wire: periodic loss, reordering, one mid-run blackout ----------
  net::LoopbackConfig wire;
  wire.plan = fault::periodic_plan(fault::FaultKind::kDropBurst,
                                   sim::Dir::kSenderToReceiver, 7, 1, 200000);
  const auto rs = fault::periodic_plan(fault::FaultKind::kDropBurst,
                                       sim::Dir::kReceiverToSender, 9, 1,
                                       200000);
  wire.plan.actions.insert(wire.plan.actions.end(), rs.actions.begin(),
                           rs.actions.end());
  {
    // The S->R link goes dark for 2000 poll ticks once it has carried 200
    // sends — long enough to shade a visible stripe of the trace.
    fault::FaultAction dark;
    dark.kind = fault::FaultKind::kBlackout;
    dark.dir = sim::Dir::kSenderToReceiver;
    dark.trigger.kind = fault::TriggerKind::kSends;
    dark.trigger.at = 200;
    dark.duration = 2000;
    wire.plan.actions.push_back(dark);
  }
  wire.reorder_window = 4;
  wire.seed = 0x7face;
  wire.max_queue = 8192;
  auto pair = net::make_loopback(wire);

  // --- the service pair, recorder on the server ---------------------------
  net::FlightRecorder recorder;
  net::MuxConfig cfg;
  cfg.workers = 2;
  net::MuxConfig server_cfg = cfg;
  server_cfg.probe = &recorder;

  net::StpClient client(pair.a.get(), cfg);
  net::StpServer server(pair.b.get(), server_cfg);
  analysis::TraceContext ctx;
  for (std::uint32_t id = 0; id < kSessions; ++id) {
    auto protos = proto::make_stenning(kDomain);
    const auto x = seq_for(id);
    client.add_session(id, std::move(protos.sender), x);
    server.add_session(id, std::move(protos.receiver), x);
    ctx.expected_items[id] = kSeqLen;
  }

  std::cout << "flying " << kSessions
            << " sessions with the flight recorder on...\n";
  std::vector<obs::TraceEvent> events;
  bool drained;
  {
    std::jthread drainer([&](std::stop_token stop) {
      while (!stop.stop_requested()) {
        auto batch = recorder.drain();
        events.insert(events.end(), batch.begin(), batch.end());
        std::this_thread::sleep_for(2ms);
      }
    });
    drained = net::run_service_pair(client, server, 60s);
  }
  auto tail = recorder.drain();
  events.insert(events.end(), tail.begin(), tail.end());
  std::stable_sort(events.begin(), events.end(),
                   [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });

  const auto rstats = recorder.stats();
  std::cout << "run " << (drained ? "drained" : "TIMED OUT") << "; captured "
            << events.size() << " events (" << rstats.recorded
            << " recorded, " << rstats.dropped << " dropped)\n";

  // --- take the trace apart -----------------------------------------------
  ctx.fault_windows =
      net::to_trace_spans(pair.fault_windows(), recorder.epoch());
  const auto report = analysis::make_standard_pipeline().run(events, ctx);

  analysis::Table table({"key", "value"});
  for (const auto& [k, v] : report.values) {
    table.add_row({k, std::to_string(v)});
  }
  std::cout << "\n" << table.to_ascii();
  for (const auto& [k, v] : report.notes) {
    std::cout << "note " << k << ": " << v << "\n";
  }
  std::cout << "\nattestation: the trace "
            << (report.value("prefix.ok") == 1 ? "CONFIRMS" : "VIOLATES")
            << " prefix safety and completeness for every session"
            << (report.ok ? "" : " (report verdict: NOT ok)") << "\n";
  std::cout << "fault overlay: " << ctx.fault_windows.size()
            << " wire window(s); "
            << report.value("faultcorr.sends_in_window")
            << " sends fell inside one\n";

  // --- archive ------------------------------------------------------------
  if (!jsonl_path.empty()) {
    std::ofstream out(jsonl_path);
    net::write_trace_jsonl(out, events);
    std::cout << "\nJSONL archive: " << jsonl_path << " (" << events.size()
              << " lines; re-analyzing it reproduces the report above "
                 "exactly)\n";
  }
  if (!chrome_path.empty()) {
    std::ofstream out(chrome_path);
    net::write_wire_chrome_trace(out, events, ctx.fault_windows);
    std::cout << "Chrome trace: " << chrome_path
              << " (load in Perfetto / chrome://tracing)\n";
  }
  return report.ok && drained ? 0 : 1;
}

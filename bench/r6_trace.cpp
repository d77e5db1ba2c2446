// R6 (observability) — the flight recorder must not perturb what it
// observes, and its trace must independently attest the run.
//
// The workload is r4's: n concurrent Stenning sessions over a lossy,
// reordering loopback link.  For each n in {1, 64, 1024} the point runs
// twice — recorder off, then recorder on (one FlightRecorder per mux,
// drained every few milliseconds by a consumer thread, exactly the
// deployment shape) — and reports items/s for both plus the relative
// overhead.  The acceptance gate is overhead <= 5% at the largest point
// (re-measured once before failing: the largest point's wall time is set
// by its slowest session's retransmit timeouts, so a miss is scheduler
// noise, but a reproduced miss is a regression).
//
// Each instrumented point then feeds its drained server trace to the
// standard analysis pipeline: the prefix-safety attestor must re-derive
// "every session completed, every output a prefix-ordered exact copy"
// from the trace alone, and the goodput/ack-RTT columns come from the
// same pass.
//
// A second sweep holds n=64 and varies the ring capacity {256, 4096,
// 65536} with NO concurrent drain, demonstrating bounded-memory drop
// accounting: drained events == recorded events, drops explicit, never
// backpressure.
#include <chrono>
#include <iostream>
#include <mutex>
#include <thread>

#include "analysis/table.hpp"
#include "analysis/trace_pipeline.hpp"
#include "common.hpp"
#include "fault/plan.hpp"
#include "net/flight_recorder.hpp"
#include "net/loopback.hpp"
#include "net/service.hpp"
#include "obs/metrics.hpp"
#include "util/sanitized.hpp"

namespace {

using namespace stpx;
using namespace stpx::bench;

constexpr int kDomain = 8;
constexpr std::size_t kSeqLen = 8;
constexpr std::uint64_t kPlanHorizon = 500000;
// Sanitizer instrumentation shadow-checks every ring write, inflating the
// recorder's cost relative to the uninstrumented baseline — the overhead
// ceiling is a production claim, so under ASan/TSan it is reported but not
// enforced (the attestation and drop-accounting gates still are).
constexpr double kOverheadLimitPct = 5.0;

seq::Sequence seq_for(std::uint32_t id, std::size_t len) {
  seq::Sequence x;
  x.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    x.push_back(static_cast<seq::DataItem>((id + i) % kDomain));
  }
  return x;
}

net::LoopbackConfig lossy_wire() {
  net::LoopbackConfig wire;
  wire.plan = fault::periodic_plan(fault::FaultKind::kDropBurst,
                                   sim::Dir::kSenderToReceiver, 9, 1,
                                   kPlanHorizon);
  const auto rs =
      fault::periodic_plan(fault::FaultKind::kDropBurst,
                           sim::Dir::kReceiverToSender, 11, 1, kPlanHorizon);
  wire.plan.actions.insert(wire.plan.actions.end(), rs.actions.begin(),
                           rs.actions.end());
  wire.reorder_window = 4;
  wire.seed = 0xBE0C4;
  wire.max_queue = 16384;
  return wire;
}

net::MuxConfig mux_cfg() {
  net::MuxConfig cfg;
  cfg.workers = 2;
  return cfg;
}

struct PointResult {
  std::size_t sessions = 0;
  std::size_t completed = 0;
  double wall_ms = 0.0;
  double items_per_sec = 0.0;
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t drained = 0;
  bool attested = false;          // prefix.ok from the server trace
  std::int64_t ack_p50_us = 0;    // from the client trace
  std::int64_t retx_permille = 0;
  analysis::TraceReport server_report;
};

/// Drain `rec` into `sink` every couple of milliseconds until stopped,
/// then once more for the tail.  Single consumer per recorder.
void drain_loop(std::stop_token stop, net::FlightRecorder* rec,
                std::vector<obs::TraceEvent>* sink) {
  while (!stop.stop_requested()) {
    auto batch = rec->drain();
    sink->insert(sink->end(), batch.begin(), batch.end());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  auto tail = rec->drain();
  sink->insert(sink->end(), tail.begin(), tail.end());
}

PointResult run_point(std::size_t n, bool recorder_on,
                      std::size_t ring_capacity, bool concurrent_drain,
                      BenchRun* bench, bool attach_metrics) {
  auto wire = net::make_loopback(lossy_wire());
  net::MuxConfig cfg = mux_cfg();

  net::FlightRecorderConfig rc;
  rc.ring_capacity = ring_capacity;
  net::FlightRecorder client_rec(rc);
  net::FlightRecorder server_rec(rc);
  net::MuxConfig client_cfg = cfg;
  net::MuxConfig server_cfg = cfg;
  if (recorder_on) {
    client_cfg.probe = &client_rec;
    server_cfg.probe = &server_rec;
  }

  net::StpClient client(wire.a.get(), client_cfg);
  net::StpServer server(wire.b.get(), server_cfg);
  analysis::TraceContext ctx;
  for (std::uint32_t id = 0; id < n; ++id) {
    auto pair = proto::make_stenning(kDomain);
    const auto x = seq_for(id, kSeqLen);
    client.add_session(id, std::move(pair.sender), x);
    server.add_session(id, std::move(pair.receiver), x);
    ctx.expected_items[id] = kSeqLen;
  }

  std::vector<obs::TraceEvent> client_events;
  std::vector<obs::TraceEvent> server_events;
  const auto t0 = std::chrono::steady_clock::now();
  bool drained_in_time = false;
  {
    std::vector<std::jthread> drains;
    if (recorder_on && concurrent_drain) {
      drains.emplace_back(drain_loop, &client_rec, &client_events);
      drains.emplace_back(drain_loop, &server_rec, &server_events);
    }
    drained_in_time =
        net::run_service_pair(client, server, std::chrono::seconds(120));
  }
  const auto t1 = std::chrono::steady_clock::now();

  PointResult res;
  res.sessions = n;
  res.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          t1 - t0)
          .count();
  for (const auto& r : server.mux().reports()) {
    const bool ok = drained_in_time &&
                    r.state == net::SessionState::kCompleted &&
                    r.items == kSeqLen;
    if (ok) ++res.completed;
    if (bench != nullptr) {
      bench->record_trial(r.frames_out, r.frames_in + r.frames_out, ok);
    }
  }
  const double secs = res.wall_ms / 1000.0;
  if (secs > 0.0) {
    const auto items = server.mux().stats()[net::MuxCounter::kItemsDone];
    res.items_per_sec = static_cast<double>(items) / secs;
  }

  if (!recorder_on) return res;

  // Tail drain (also the only drain in the ring-capacity sweep).
  auto ctail = client_rec.drain();
  client_events.insert(client_events.end(), ctail.begin(), ctail.end());
  auto stail = server_rec.drain();
  server_events.insert(server_events.end(), stail.begin(), stail.end());
  // Concatenated periodic drains can interleave slightly across shards at
  // the batch boundaries; a stable sort by timestamp restores one global
  // order without disturbing per-shard ties.
  const auto by_ts = [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
    return a.ts_us < b.ts_us;
  };
  std::stable_sort(client_events.begin(), client_events.end(), by_ts);
  std::stable_sort(server_events.begin(), server_events.end(), by_ts);

  const auto cstats = client_rec.stats();
  const auto sstats = server_rec.stats();
  res.recorded = cstats.recorded + sstats.recorded;
  res.dropped = cstats.dropped + sstats.dropped;
  res.drained = client_events.size() + server_events.size();

  ctx.fault_windows =
      net::to_trace_spans(wire.fault_windows(), server_rec.epoch());
  res.server_report =
      analysis::make_standard_pipeline().run(server_events, ctx);
  res.attested = res.server_report.value("prefix.ok") == 1;
  res.retx_permille = res.server_report.value("goodput.retx_permille");
  const auto client_report =
      analysis::make_standard_pipeline().run(client_events, {});
  res.ack_p50_us = client_report.value("ack_rtt.p50_us");

  if (attach_metrics && bench != nullptr) {
    obs::MetricsRegistry reg;
    server.mux().publish_metrics(reg);
    server_rec.publish_metrics(reg);
    analysis::publish_trace_report(res.server_report, reg);
    bench->metrics_json(reg.to_json());
  }
  return res;
}

std::string fmt1(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  BenchRun bench("r6_trace", argc, argv);
  const std::vector<std::size_t> points = {1, 64, 1024};
  constexpr std::size_t kDefaultRing = 1 << 14;
  bench.param("seq_len", static_cast<std::int64_t>(kSeqLen));
  bench.param("max_sessions", static_cast<std::int64_t>(points.back()));
  bench.param("ring_capacity", static_cast<std::int64_t>(kDefaultRing));
  bench.param("overhead_limit_pct", "5.0");
  bench.param("overhead_gate_enforced", kSanitized ? "no (sanitized build)"
                                                   : "yes");

  std::cout << analysis::heading(
      "R6 (observability): flight-recorder overhead and trace attestation");

  bool shape = true;
  double worst_overhead_pct = 0.0;

  analysis::Table table({"sessions", "recorder", "completed", "wall ms",
                         "items/s", "overhead %", "recorded", "dropped",
                         "attested", "ack p50 us", "retx o/oo"});
  for (const std::size_t n : points) {
    const bool largest = n == points.back();
    auto off = run_point(n, /*recorder_on=*/false, kDefaultRing,
                         /*concurrent_drain=*/false, &bench,
                         /*attach_metrics=*/false);
    auto on = run_point(n, /*recorder_on=*/true, kDefaultRing,
                        /*concurrent_drain=*/true, &bench,
                        /*attach_metrics=*/largest);
    double overhead_pct =
        off.items_per_sec > 0.0
            ? (off.items_per_sec - on.items_per_sec) / off.items_per_sec *
                  100.0
            : 0.0;
    if (largest && !kSanitized && overhead_pct > kOverheadLimitPct) {
      // One re-measure: the gate is against a reproduced slowdown, not a
      // single noisy scheduling quantum.
      off = run_point(n, false, kDefaultRing, false, nullptr, false);
      on = run_point(n, true, kDefaultRing, true, nullptr, false);
      overhead_pct = off.items_per_sec > 0.0
                         ? (off.items_per_sec - on.items_per_sec) /
                               off.items_per_sec * 100.0
                         : 0.0;
    }
    shape = shape && off.completed == n && on.completed == n && on.attested;
    if (largest) {
      worst_overhead_pct = overhead_pct;
      shape = shape && (kSanitized || overhead_pct <= kOverheadLimitPct);
    }
    table.add_row({std::to_string(n), "off", std::to_string(off.completed),
                   fmt1(off.wall_ms), fmt1(off.items_per_sec), "-", "-", "-",
                   "-", "-", "-"});
    table.add_row({std::to_string(n), "on", std::to_string(on.completed),
                   fmt1(on.wall_ms), fmt1(on.items_per_sec),
                   fmt1(overhead_pct), std::to_string(on.recorded),
                   std::to_string(on.dropped), on.attested ? "yes" : "NO",
                   std::to_string(on.ack_p50_us),
                   std::to_string(on.retx_permille)});
  }
  std::cout << "\n" << table.to_ascii();

  // Ring-capacity sweep: bounded memory, explicit drop accounting.
  analysis::Table rings({"ring", "completed", "recorded", "dropped",
                         "drained", "accounted"});
  for (const std::size_t cap : {std::size_t{256}, std::size_t{4096},
                                std::size_t{65536}}) {
    const auto res = run_point(64, /*recorder_on=*/true, cap,
                               /*concurrent_drain=*/false, nullptr, false);
    // Drop-newest never overwrites: everything recorded is still in the
    // rings at the end, so one tail drain must account exactly.
    const bool accounted = res.drained == res.recorded;
    shape = shape && res.completed == 64 && accounted;
    rings.add_row({std::to_string(cap), std::to_string(res.completed),
                   std::to_string(res.recorded), std::to_string(res.dropped),
                   std::to_string(res.drained), accounted ? "yes" : "NO"});
  }
  std::cout << "\nring-capacity sweep (n=64, tail drain only):\n"
            << rings.to_ascii();

  std::cout << "\nshape " << (shape ? "confirmed" : "VIOLATED")
            << ": every session completed at every point, the drained "
               "trace attests prefix safety, recorder overhead "
            << fmt1(worst_overhead_pct) << "% "
            << (kSanitized ? "(reported only: sanitized build)" : "<= 5%")
            << " at n=" << points.back() << ", drops exactly accounted\n";
  return bench.finish(shape);
}

// R4 (robustness) — the wire service layer under load, measured.
//
// For each session count n in {1, 64, 1024}: n concurrent Stenning
// sessions over a lossy, reordering loopback link (periodic drop in both
// directions, scripted by fault::periodic_plan), every session expected to
// finish with its output an exact copy of its input.  Reported per point:
//
//   * sessions/sec and items/sec (wall-clock throughput of the mux pair),
//   * ack-RTT p50/p99 in microseconds (sender-side Karn samples: one
//     send answered by the next inbound frame), read from the client's
//     net.ack_rtt_us histogram, so at most 6.25 % high,
//   * frame-level accounting (sent/received/dropped) to confirm the link
//     really was hostile,
//   * in the report's "perf" block: items/s, frames sent per item,
//     ack-RTT p50/p99 and process CPU-seconds.
//
// Report-schema note: record_trial() is fed one trial per session — steps
// carries the session's outbound frame count (the wire analogue of
// protocol steps) and msgs its total frame traffic — so `trial_steps`
// percentiles describe per-session wire effort.  The metrics snapshot
// attached to the JSON is the client+server publish_metrics() output of
// the largest point.
#include <chrono>
#include <iostream>
#include <memory>
#include <string>

#include "analysis/table.hpp"
#include "common.hpp"
#include "fault/plan.hpp"
#include "net/loopback.hpp"
#include "net/service.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace stpx;
using namespace stpx::bench;
using net::MuxCounter;

constexpr int kDomain = 8;
constexpr std::size_t kSeqLen = 8;
constexpr std::uint64_t kDropPeriodSr = 9;
constexpr std::uint64_t kDropPeriodRs = 11;
constexpr std::uint64_t kPlanHorizon = 500000;

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
                                   sim::Dir::kSenderToReceiver, kDropPeriodSr,
                                   1, kPlanHorizon);
  const auto rs = fault::periodic_plan(fault::FaultKind::kDropBurst,
                                       sim::Dir::kReceiverToSender,
                                       kDropPeriodRs, 1, kPlanHorizon);
  wire.plan.actions.insert(wire.plan.actions.end(), rs.actions.begin(),
                           rs.actions.end());
  wire.reorder_window = 4;
  wire.seed = 0xBE0C4;
  wire.max_queue = 16384;
  return wire;
}

struct PointResult {
  std::size_t sessions = 0;
  std::size_t completed = 0;
  double wall_ms = 0.0;
  double sessions_per_sec = 0.0;
  double items_per_sec = 0.0;
  std::uint64_t rtt_p50_us = 0;  // net.ack_rtt_us quantiles
  std::uint64_t rtt_p99_us = 0;
  obs::CounterTable<net::MuxCounter>::Snapshot client_stats;
  obs::CounterTable<net::MuxCounter>::Snapshot server_stats;
  std::uint64_t wire_dropped = 0;
};

PointResult run_point(std::size_t n, BenchRun& bench, bool attach_metrics) {
  auto wire = net::make_loopback(lossy_wire());

  net::MuxConfig cfg;
  cfg.workers = 2;

  net::StpClient client(wire.a.get(), cfg);
  net::StpServer server(wire.b.get(), cfg);
  for (std::uint32_t id = 0; id < n; ++id) {
    auto pair = proto::make_stenning(kDomain);
    const auto x = seq_for(id, kSeqLen);
    client.add_session(id, std::move(pair.sender), x);
    server.add_session(id, std::move(pair.receiver), x);
  }

  const double cpu0 = process_cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  const bool drained =
      net::run_service_pair(client, server, std::chrono::seconds(120));
  const auto t1 = std::chrono::steady_clock::now();
  const double cpu_s = process_cpu_s() - cpu0;

  PointResult res;
  res.sessions = n;
  res.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          t1 - t0)
          .count();
  res.client_stats = client.mux().stats();
  res.server_stats = server.mux().stats();
  res.wire_dropped = wire.stats(sim::Dir::kSenderToReceiver).dropped +
                     wire.stats(sim::Dir::kReceiverToSender).dropped;

  obs::MetricsRegistry reg;
  client.mux().publish_metrics(reg);
  server.mux().publish_metrics(reg);
  const obs::Histogram& rtt = reg.histograms().at("net.ack_rtt_us");
  res.rtt_p50_us = rtt.quantile(0.50);
  res.rtt_p99_us = rtt.quantile(0.99);

  // One report trial per session: steps = outbound frames, msgs = total
  // frame traffic, completed = both ends terminal-completed.
  const auto server_reports = server.mux().reports();
  for (std::size_t i = 0; i < server_reports.size(); ++i) {
    const auto& r = server_reports[i];
    const bool ok = drained && r.state == net::SessionState::kCompleted &&
                    r.items == kSeqLen;
    if (ok) ++res.completed;
    bench.record_trial(r.frames_out, r.frames_in + r.frames_out, ok);
  }

  const double secs = res.wall_ms / 1000.0;
  if (secs > 0.0) {
    res.sessions_per_sec = static_cast<double>(res.completed) / secs;
    res.items_per_sec =
        static_cast<double>(res.server_stats[MuxCounter::kItemsDone]) / secs;
  }

  const std::string at = "n" + std::to_string(n) + ".";
  const auto items =
      static_cast<double>(res.server_stats[MuxCounter::kItemsDone]);
  const auto frames =
      static_cast<double>(res.client_stats[MuxCounter::kFramesSent] +
                          res.server_stats[MuxCounter::kFramesSent]);
  bench.metric(at + "items_per_s", res.items_per_sec, "1/s");
  bench.metric(at + "frames_per_item", items > 0.0 ? frames / items : 0.0,
               "count");
  bench.metric(at + "ack_rtt_p50_us", static_cast<double>(res.rtt_p50_us),
               "us");
  bench.metric(at + "ack_rtt_p99_us", static_cast<double>(res.rtt_p99_us),
               "us");
  bench.metric(at + "cpu_s", cpu_s, "s");

  if (attach_metrics) bench.metrics_json(reg.to_json());
  return res;
}

std::string fmt1(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  BenchRun bench("r4_mux", argc, argv);
  const std::vector<std::size_t> points = {1, 64, 1024};
  bench.param("seq_len", static_cast<std::int64_t>(kSeqLen));
  bench.param("drop_period_sr", static_cast<std::int64_t>(kDropPeriodSr));
  bench.param("drop_period_rs", static_cast<std::int64_t>(kDropPeriodRs));
  bench.param("reorder_window", 4);
  bench.param("max_sessions", static_cast<std::int64_t>(points.back()));

  std::cout << analysis::heading(
      "R4 (robustness): session mux throughput over a lossy reordering "
      "link");

  analysis::Table table({"sessions", "completed", "wall ms", "sessions/s",
                         "items/s", "rtt p50 us", "rtt p99 us", "frames out",
                         "frames in", "wire drops"});
  bool shape = true;
  for (const std::size_t n : points) {
    const auto res = run_point(n, bench, /*attach_metrics=*/n == points.back());
    shape = shape && res.completed == n;
    table.add_row({std::to_string(res.sessions), std::to_string(res.completed),
                   fmt1(res.wall_ms), fmt1(res.sessions_per_sec),
                   fmt1(res.items_per_sec), std::to_string(res.rtt_p50_us),
                   std::to_string(res.rtt_p99_us),
                   std::to_string(res.client_stats[MuxCounter::kFramesSent] +
                                  res.server_stats[MuxCounter::kFramesSent]),
                   std::to_string(
                       res.client_stats[MuxCounter::kFramesReceived] +
                       res.server_stats[MuxCounter::kFramesReceived]),
                   std::to_string(res.wire_dropped)});
  }
  std::cout << "\n" << table.to_ascii();
  std::cout << "\nshape " << (shape ? "confirmed" : "VIOLATED")
            << ": every session completed with an exact copy at every "
               "point\n";
  return bench.finish(shape);
}

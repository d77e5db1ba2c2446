// R5 (robustness) — crash-restart rehydration of the durable mux, measured.
//
// For each session count n in {1000, 10000}: n concurrent Stenning
// sessions over a lossy, reordering loopback link, against a server whose
// shards checkpoint every session into two stable stores by group commit.
// Once every session has landed at least one item (so every session is
// manifested), the server is kill()ed mid-traffic — crash-shaped, no final
// flush — and a second generation is constructed on the same transport
// endpoint and stores.  rehydrate() re-admits every manifested session;
// the run then drains to completion across the restart.  Reported per
// point:
//
//   * per-session restore latency p50/p99 in microseconds plus the whole
//     rehydrate() wall time (scan + fold + restore for all n sessions),
//   * items/sec before the kill vs after the restart — the cost of
//     superseded checkpoints is bounded retransmission, visible as the
//     gap between the two rates,
//   * rehydrated / cold-readded / completed counts and the generation-1
//     checkpoint accounting (group-commit flushes, records, bytes),
//   * in the report's "perf" block: items/s over the whole point and
//     before/after the restart, frames sent per item, ack-RTT p50/p99
//     (the client's net.ack_rtt_us histogram, at most 6.25 % high) and
//     process CPU-seconds.
//
// Report-schema note: record_trial() is fed one trial per generation-2
// session — steps carries the session's outbound frame count and msgs its
// total frame traffic, so `trial_steps` percentiles describe the
// post-restart wire effort per session.  The metrics snapshot attached to
// the JSON is the client+gen2 publish_metrics() output of the largest
// point.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/table.hpp"
#include "common.hpp"
#include "fault/plan.hpp"
#include "net/loopback.hpp"
#include "net/service.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "proto/suite.hpp"
#include "store/stable_store.hpp"

namespace {

using namespace stpx;
using namespace stpx::bench;
using net::MuxCounter;

constexpr int kDomain = 8;
constexpr std::size_t kSeqLen = 6;
constexpr std::uint64_t kDropPeriodSr = 9;
constexpr std::uint64_t kDropPeriodRs = 11;
constexpr std::uint64_t kPlanHorizon = 2000000;

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
  wire.seed = 0xD0B5;
  wire.max_queue = 65536;
  return wire;
}

/// Per-session prefix attestation across a restart: the rehydrate event
/// seeds the expected next index from the restored durable position, so a
/// superseded checkpoint re-earns items but never skips or repeats one
/// within a server generation.
class ProgressProbe final : public obs::IProbe {
 public:
  explicit ProgressProbe(std::size_t max_sessions) : next_(max_sessions) {
    for (auto& a : next_) a.store(0, std::memory_order_relaxed);
  }

  void record(const obs::TraceEvent& ev) override {
    const auto index = static_cast<std::size_t>(ev.msg);
    if (ev.kind == obs::TraceEventKind::kItem) {
      ++items_;
      const std::size_t want =
          next_[ev.session].fetch_add(1, std::memory_order_relaxed);
      if (index != want) out_of_order_ = true;
    } else if (ev.kind == obs::TraceEventKind::kRehydrate) {
      ++rehydrated_;
      next_[ev.session].store(index, std::memory_order_relaxed);
    }
  }

  std::size_t min_progress(std::size_t n) const {
    std::size_t lo = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < n; ++i) {
      lo = std::min(lo, next_[i].load(std::memory_order_relaxed));
    }
    return lo;
  }
  std::uint64_t items() const { return items_; }
  std::uint64_t rehydrated() const { return rehydrated_; }
  bool out_of_order() const { return out_of_order_; }

 private:
  std::vector<std::atomic<std::size_t>> next_;
  std::atomic<std::uint64_t> items_{0}, rehydrated_{0};
  std::atomic<bool> out_of_order_{false};
};

net::StpServer::ReceiverFactory stenning_receiver_factory() {
  return [](std::uint32_t,
            std::uint64_t tag) -> std::unique_ptr<sim::IReceiver> {
    if (tag != store::proto_tag_of("stenning-receiver")) return nullptr;
    return proto::make_stenning(kDomain).receiver;
  };
}

struct PointResult {
  std::size_t sessions = 0;
  std::size_t rehydrated = 0;
  std::size_t cold_adds = 0;
  std::size_t completed = 0;
  obs::Percentiles restore;     // per-session restore latency, us
  double rehydrate_wall_ms = 0.0;
  double items_per_sec_before = 0.0;
  double items_per_sec_after = 0.0;
  std::uint64_t ckpt_flushes = 0;
  std::uint64_t ckpt_records = 0;
  std::uint64_t ckpt_bytes = 0;
  std::uint64_t wire_dropped = 0;
  bool ok = false;
};

PointResult run_point(std::size_t n, BenchRun& bench, bool attach_metrics) {
  auto wire = net::make_loopback(lossy_wire());
  store::MemStore st0, st1;
  st0.reset();
  st1.reset();
  ProgressProbe probe1(n), probe2(n);

  net::MuxConfig cfg;
  cfg.workers = 4;

  net::StpClient client(wire.a.get(), cfg);
  net::MuxConfig scfg = cfg;
  scfg.probe = &probe1;
  scfg.session_stores = {&st0, &st1};
  net::StpServer server(wire.b.get(), scfg);
  for (std::uint32_t id = 0; id < n; ++id) {
    // Dup-ack go-back on: a durably-rewound receiver must pull the sender
    // back instead of wedging the stop-and-wait pair.
    auto pair = proto::make_stenning(kDomain, /*sender_ack_rewind=*/true);
    const auto x = seq_for(id, kSeqLen);
    client.add_session(id, std::move(pair.sender), x);
    server.add_session(id, std::move(pair.receiver), x);
  }

  PointResult res;
  res.sessions = n;

  // Phase A: run until every session has made progress (and is therefore
  // manifested), then kill generation 1 crash-shaped.
  const double cpu0 = process_cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  client.mux().start();
  server.mux().start();
  const auto window_deadline = t0 + std::chrono::seconds(180);
  bool window = false;
  while (std::chrono::steady_clock::now() < window_deadline) {
    if (probe1.min_progress(n) >= 1) {
      window = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.mux().kill();
  const auto t_kill = std::chrono::steady_clock::now();
  const double phase_a_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          t_kill - t0)
          .count();
  const auto gen1 = server.mux().stats();
  res.ckpt_flushes = gen1[MuxCounter::kCheckpointFlushes];
  res.ckpt_records = gen1[MuxCounter::kCheckpointRecords];
  res.ckpt_bytes = gen1[MuxCounter::kCheckpointBytes];

  // Restart: generation 2 on the same endpoint and stores, rehydration
  // timed end to end (log scan + newest-per-session fold + restores).
  net::MuxConfig s2cfg = cfg;
  s2cfg.probe = &probe2;
  s2cfg.session_stores = {&st0, &st1};
  net::StpServer gen2(wire.b.get(), s2cfg);
  const auto t_r0 = std::chrono::steady_clock::now();
  const auto rep = gen2.rehydrate(
      stenning_receiver_factory(),
      [](std::uint32_t id) { return seq_for(id, kSeqLen); });
  res.rehydrate_wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          std::chrono::steady_clock::now() - t_r0)
          .count();
  res.rehydrated = rep.sessions;
  res.restore = obs::percentiles_u64(
      std::vector<std::uint64_t>(rep.restore_latency_us));

  // Storage-amnesia fallback: a session killed before its second cadence
  // flush may have had no surviving record; the operator re-adds it cold
  // and the wire heals by full retransmission.
  std::vector<bool> present(n, false);
  for (const auto& r : gen2.mux().reports()) present[r.id] = true;
  for (std::uint32_t id = 0; id < n; ++id) {
    if (present[id]) continue;
    gen2.add_session(id, proto::make_stenning(kDomain).receiver,
                     seq_for(id, kSeqLen));
    ++res.cold_adds;
  }

  // Phase B: drain both ends across the restart.
  const auto t_b0 = std::chrono::steady_clock::now();
  gen2.mux().start();
  const bool drained = client.mux().drain(std::chrono::seconds(300)) &&
                       gen2.mux().drain(std::chrono::seconds(300));
  gen2.mux().stop();
  client.mux().stop();
  const double cpu_s = process_cpu_s() - cpu0;
  const double phase_b_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          std::chrono::steady_clock::now() - t_b0)
          .count();

  const auto gen2_stats = gen2.mux().stats();
  if (phase_a_ms > 0.0) {
    res.items_per_sec_before =
        static_cast<double>(gen1[MuxCounter::kItemsDone]) /
        (phase_a_ms / 1000.0);
  }
  if (phase_b_ms > 0.0) {
    res.items_per_sec_after =
        static_cast<double>(gen2_stats[MuxCounter::kItemsDone]) /
        (phase_b_ms / 1000.0);
  }
  res.wire_dropped = wire.stats(sim::Dir::kSenderToReceiver).dropped +
                     wire.stats(sim::Dir::kReceiverToSender).dropped;

  // One report trial per generation-2 session: steps = outbound frames,
  // msgs = total frame traffic, completed = terminal with a full copy.
  for (const auto& r : gen2.mux().reports()) {
    const bool ok = drained && r.state == net::SessionState::kCompleted &&
                    r.items == kSeqLen;
    if (ok) ++res.completed;
    bench.record_trial(r.frames_out, r.frames_in + r.frames_out, ok);
  }

  res.ok = window && drained && res.completed == n && rep.violations == 0 &&
           rep.declined == 0 && !probe2.out_of_order() &&
           probe2.rehydrated() == rep.sessions &&
           res.rehydrated + res.cold_adds == n;

  // Items count once even when superseded checkpoints replay them; the
  // frames are everything both ends sent over both generations.
  obs::MetricsRegistry reg;
  client.mux().publish_metrics(reg);
  gen2.mux().publish_metrics(reg);
  const obs::Histogram& rtt = reg.histograms().at("net.ack_rtt_us");
  const auto items = static_cast<double>(n * kSeqLen);
  const auto frames = static_cast<double>(
      client.mux().stats()[MuxCounter::kFramesSent] +
      gen1[MuxCounter::kFramesSent] + gen2_stats[MuxCounter::kFramesSent]);
  const double wall_s = (phase_a_ms + phase_b_ms) / 1000.0;
  const std::string at = "n" + std::to_string(n) + ".";
  bench.metric(at + "items_per_s", wall_s > 0.0 ? items / wall_s : 0.0, "1/s");
  bench.metric(at + "items_per_s_before", res.items_per_sec_before, "1/s");
  bench.metric(at + "items_per_s_after", res.items_per_sec_after, "1/s");
  bench.metric(at + "frames_per_item", frames / items, "count");
  bench.metric(at + "ack_rtt_p50_us",
               static_cast<double>(rtt.quantile(0.50)), "us");
  bench.metric(at + "ack_rtt_p99_us",
               static_cast<double>(rtt.quantile(0.99)), "us");
  bench.metric(at + "cpu_s", cpu_s, "s");
  bench.metric(at + "rehydrate_ms", res.rehydrate_wall_ms, "ms");
  bench.metric(at + "checkpoint_bytes_per_record",
               res.ckpt_records > 0
                   ? static_cast<double>(res.ckpt_bytes) /
                         static_cast<double>(res.ckpt_records)
                   : 0.0,
               "bytes");

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
  BenchRun bench("r5_durable_mux", argc, argv);
  const std::vector<std::size_t> points = {1000, 10000};
  bench.param("seq_len", static_cast<std::int64_t>(kSeqLen));
  bench.param("drop_period_sr", static_cast<std::int64_t>(kDropPeriodSr));
  bench.param("drop_period_rs", static_cast<std::int64_t>(kDropPeriodRs));
  bench.param("reorder_window", 4);
  bench.param("session_stores", 2);
  bench.param("max_sessions", static_cast<std::int64_t>(points.back()));

  std::cout << analysis::heading(
      "R5 (robustness): kill + restart rehydration of the durable session "
      "mux");

  analysis::Table table({"sessions", "rehydrated", "cold", "restore p50 us",
                         "restore p99 us", "rehydrate ms", "items/s before",
                         "items/s after", "completed", "ckpt flushes",
                         "wire drops"});
  bool shape = true;
  for (const std::size_t n : points) {
    const auto res = run_point(n, bench, /*attach_metrics=*/n == points.back());
    shape = shape && res.ok;
    table.add_row({std::to_string(res.sessions),
                   std::to_string(res.rehydrated),
                   std::to_string(res.cold_adds), fmt1(res.restore.p50),
                   fmt1(res.restore.p99), fmt1(res.rehydrate_wall_ms),
                   fmt1(res.items_per_sec_before),
                   fmt1(res.items_per_sec_after),
                   std::to_string(res.completed),
                   std::to_string(res.ckpt_flushes),
                   std::to_string(res.wire_dropped)});
  }
  std::cout << "\n" << table.to_ascii();
  std::cout << "\nshape " << (shape ? "confirmed" : "VIOLATED")
            << ": every manifested session rehydrated and every session "
               "completed in order across the restart at every point\n";
  return bench.finish(shape);
}

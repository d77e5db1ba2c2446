// Pinned output shapes: the metric key sets that
// publish_metrics emits, the byte-exact registry document a MetricsProbe
// builds from engine runs, and the byte-exact Chrome trace documents of
// both trace families.  Dashboards, the benchmark and archived traces read
// these by name or byte, so a refactor of the counting or exporting code
// must leave every line here passing unchanged.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "channel/del_channel.hpp"
#include "channel/dup_channel.hpp"
#include "channel/schedulers.hpp"
#include "fabric/membership.hpp"
#include "fabric/router.hpp"
#include "fault/plan.hpp"
#include "net/flight_recorder.hpp"
#include "net/loopback.hpp"
#include "net/service.hpp"
#include "net/trace_sinks.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "proto/suite.hpp"
#include "store/stable_store.hpp"
#include "stp/runner.hpp"
#include "stp/soak.hpp"

namespace stpx {
namespace {

using namespace std::chrono_literals;

constexpr int kDomain = 8;

seq::Sequence seq_for(std::uint32_t id, std::size_t len) {
  seq::Sequence x;
  for (std::size_t i = 0; i < len; ++i) {
    x.push_back(static_cast<seq::DataItem>((id + i) % kDomain));
  }
  return x;
}

/// Every instrument name in `reg`, tagged by kind, in registry order.
std::vector<std::string> key_set(const obs::MetricsRegistry& reg) {
  std::vector<std::string> keys;
  for (const auto& [name, c] : reg.counters()) keys.push_back("counter " + name);
  for (const auto& [name, g] : reg.gauges()) keys.push_back("gauge " + name);
  for (const auto& [name, h] : reg.histograms()) {
    keys.push_back("histogram " + name);
  }
  return keys;
}

/// The mux key set when every session completed.
const std::vector<std::string> kMuxKeys = {
    "counter net.checkpoint_bytes",
    "counter net.checkpoint_flushes",
    "counter net.checkpoint_records",
    "counter net.fins.sent",
    "counter net.frames.received",
    "counter net.frames.rejected",
    "counter net.frames.sent",
    "counter net.frames.shed",
    "counter net.frames.unknown_session",
    "counter net.items.done",
    "counter net.probes.answered",
    "counter net.rehydrated_sessions",
    "counter net.rejects.bad-checksum",
    "counter net.rejects.bad-dir",
    "counter net.rejects.bad-kind",
    "counter net.rejects.bad-magic",
    "counter net.rejects.bad-size",
    "counter net.rejects.bad-version",
    "counter net.sheds",
    "counter net.verdict.completed",
    "gauge net.sessions.active",
    "histogram net.ack_rtt_us",
};

TEST(MetricKeys, VolatilePair) {
  auto wire = net::make_loopback();
  net::MuxConfig cfg;
  net::StpClient client(wire.a.get(), cfg);
  net::StpServer server(wire.b.get(), cfg);
  for (std::uint32_t id = 0; id < 3; ++id) {
    auto pair = proto::make_stenning(kDomain);
    client.add_session(id, std::move(pair.sender), seq_for(id, 3));
    server.add_session(id, std::move(pair.receiver), seq_for(id, 3));
  }
  ASSERT_TRUE(net::run_service_pair(client, server, 10s));

  obs::MetricsRegistry creg;
  client.mux().publish_metrics(creg);
  EXPECT_EQ(key_set(creg), kMuxKeys);
  obs::MetricsRegistry sreg;
  server.mux().publish_metrics(sreg);
  EXPECT_EQ(key_set(sreg), kMuxKeys);
}

TEST(MetricKeys, DrainedDurableServer) {
  store::MemStore st;
  st.reset();
  auto wire = net::make_loopback();
  net::MuxConfig cfg;
  net::StpClient client(wire.a.get(), cfg);
  net::MuxConfig scfg = cfg;
  scfg.session_stores = {&st};
  net::StpServer server(wire.b.get(), scfg);
  for (std::uint32_t id = 0; id < 3; ++id) {
    auto pair = proto::make_stenning(kDomain, true);
    client.add_session(id, std::move(pair.sender), seq_for(id, 3));
    server.add_session(id, std::move(pair.receiver), seq_for(id, 3));
  }
  ASSERT_TRUE(net::run_service_pair(client, server, 10s));

  obs::MetricsRegistry reg;
  server.mux().publish_metrics(reg);
  EXPECT_EQ(key_set(reg), kMuxKeys);
}

TEST(MetricKeys, FabricRouter) {
  fabric::MembershipTable membership;
  auto client_link = net::make_loopback();
  fabric::FabricRouter router(client_link.b.get(), &membership);
  obs::MetricsRegistry reg;
  router.publish_metrics(reg);
  const std::vector<std::string> want = {
      "counter fabric.drops.data_suppressed",
      "counter fabric.drops.dead_owner",
      "counter fabric.drops.no_owner",
      "counter fabric.drops.partition",
      "counter fabric.drops.stale_lease",
      "counter fabric.forwarded.backend_to_client",
      "counter fabric.forwarded.client_to_backend",
      "counter fabric.joins",
      "counter fabric.probes.acks",
      "counter fabric.probes.sent",
      "counter fabric.probes.suppressed",
      "counter fabric.rejects",
  };
  EXPECT_EQ(key_set(reg), want);
}

TEST(MetricKeys, FlightRecorder) {
  net::FlightRecorder rec;
  obs::MetricsRegistry reg;
  rec.publish_metrics(reg);
  const std::vector<std::string> want = {
      "counter net.trace.dropped",
      "counter net.trace.recorded",
  };
  EXPECT_EQ(key_set(reg), want);
}

// --------------------------------------------------------------------------
// Engine metrics, byte for byte.
// --------------------------------------------------------------------------

/// The seeded chaos run ChromeGolden.EngineRun renders: two overlapping
/// fault windows, an instant fault and a receiver crash-restart.
stp::SystemSpec chaos_golden_spec() {
  stp::SystemSpec spec;
  spec.protocols = [] { return proto::make_repfree_del(2); };
  spec.channel = [](std::uint64_t seed) {
    return std::make_unique<channel::DelChannel>(0.0, seed);
  };
  spec.scheduler = [](std::uint64_t seed) {
    return std::make_unique<channel::FairRandomScheduler>(seed);
  };
  spec.engine.max_steps = 2000;
  return spec;
}

const char* const kChaosGoldenPlan =
    "blackout @step 2 dir SR len 6 match *\n"
    "freeze @step 4 len 3\n"
    "drop @step 1 dir RS count 1 match *\n"
    "crash-receiver @step 9\n";

TEST(MetricsGolden, EngineRuns) {
  obs::MetricsRegistry reg;
  obs::MetricsProbe probe(&reg);

  stp::SystemSpec chaos = chaos_golden_spec();
  chaos.engine.probe = &probe;
  const auto r1 = stp::run_one(
      stp::with_chaos(chaos, fault::plan_from_text(kChaosGoldenPlan)), {0, 1},
      5);
  ASSERT_TRUE(r1.completed);

  // A scrambled receiver under a convergence window: the stabilization.*
  // family (the repetition-free receiver rejects the scrambled blob, and
  // the run still converges).
  stp::SystemSpec scramble;
  scramble.protocols = [] { return proto::make_repfree_dup(6); };
  scramble.channel = [](std::uint64_t) {
    return std::make_unique<channel::DupChannel>();
  };
  scramble.scheduler = [](std::uint64_t seed) {
    return std::make_unique<channel::FairRandomScheduler>(seed);
  };
  scramble.engine.max_steps = 60000;
  scramble.engine.stall_window = 6000;
  scramble.engine.convergence_window = 2;
  scramble.engine.probe = &probe;
  const auto r2 = stp::run_one(
      stp::with_chaos(scramble,
                      fault::plan_from_text(
                          "scramble-state @writes 2 proc receiver count 7\n")),
      {0, 1, 2, 3, 4, 5}, 2026);
  ASSERT_EQ(r2.verdict, sim::RunVerdict::kCompleted);

  const std::string want =
      R"j({"counters":{"crashes.receiver":1,"delivers.rs":41,"delivers.sr":58,)j"
      R"j("dup_replays.rs":35,"dup_replays.sr":50,"faults.blackout":1,)j"
      R"j("faults.crash-receiver":1,"faults.drop":1,"faults.freeze":1,)j"
      R"j("faults.scramble-state":1,"recoveries.cold":1,"runs":2,"sends.rs":10,)j"
      R"j("sends.sr":9,"stabilization.converged":1,"stabilization.scrambles":1,)j"
      R"j("stabilization.scrambles.rejected":1,"steps":205,"verdict.completed":2,)j"
      R"j("writes":8},"gauges":{"inflight.rs":{"value":-32,"max":1},)j"
      R"j("inflight.sr":{"value":-50,"max":1}},"histograms":{)j"
      R"j("ack_rtt":{"count":7,"sum":33,"max":13,"p50":3,"p90":13,"p99":13},)j"
      R"j("occupancy.rs":{"count":205,"sum":6,"max":1,"p50":1,"p90":1,"p99":1},)j"
      R"j("occupancy.sr":{"count":205,"sum":5,"max":1,"p50":1,"p90":1,"p99":1},)j"
      R"j("recovery.latency":{"count":1,"sum":3,"max":3,"p50":3,"p90":3,"p99":3},)j"
      R"j("stabilization.latency":{"count":1,"sum":163,"max":163,"p50":168,)j"
      R"j("p90":168,"p99":168},)j"
      R"j("write_latency":{"count":8,"sum":203,"max":60,"p50":17,"p90":60,"p99":60}}})j";
  EXPECT_EQ(reg.to_json(), want);
}

// --------------------------------------------------------------------------
// Chrome trace documents, byte for byte.
// --------------------------------------------------------------------------

TEST(ChromeGolden, EngineRun) {
  stp::SystemSpec spec;
  spec.protocols = [] { return proto::make_repfree_del(2); };
  spec.channel = [](std::uint64_t seed) {
    return std::make_unique<channel::DelChannel>(0.0, seed);
  };
  spec.scheduler = [](std::uint64_t seed) {
    return std::make_unique<channel::FairRandomScheduler>(seed);
  };
  spec.engine.max_steps = 2000;
  net::ChromeTraceSink sink;
  spec.engine.probe = &sink;
  // Two overlapping windows (two fault lanes), an instant fault, and a
  // crash-restart, so every record shape is on the page.
  const auto plan = fault::plan_from_text(
      "blackout @step 2 dir SR len 6 match *\n"
      "freeze @step 4 len 3\n"
      "drop @step 1 dir RS count 1 match *\n"
      "crash-receiver @step 9\n");
  const auto r = stp::run_one(stp::with_chaos(spec, plan), {0, 1}, 5);
  ASSERT_TRUE(r.completed);
  const std::string want =
      R"j({"displayTimeUnit":"ms","traceEvents":[)j"
      R"j({"name":"process_name","ph":"M","pid":1,"args":{"name":"stpx run"}},)j"
      R"j({"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"sender"}},)j"
      R"j({"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"receiver"}},)j"
      R"j({"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"channel S->R"}},)j"
      R"j({"name":"thread_name","ph":"M","pid":1,"tid":4,"args":{"name":"channel R->S"}},)j"
      R"j({"name":"thread_name","ph":"M","pid":1,"tid":5,"args":{"name":"engine"}},)j"
      R"j({"name":"thread_name","ph":"M","pid":1,"tid":6,"args":{"name":"faults"}},)j"
      R"j({"name":"thread_name","ph":"M","pid":1,"tid":7,"args":{"name":"faults (overflow lane)"}},)j"
      R"j({"name":"run_begin","ph":"i","pid":1,"tid":5,"ts":0,"s":"t","args":{"items":2}},)j"
      R"j({"name":"S-step","ph":"X","pid":1,"tid":1,"ts":0,"dur":1},)j"
      R"j({"name":"send 0","ph":"i","pid":1,"tid":3,"ts":0,"s":"t","args":{"msg":0}},)j"
      R"j({"name":"drop R->S","ph":"i","pid":1,"tid":6,"ts":1,"s":"t","args":{"kind":"drop","dir":"R->S","count":1,"match":-1}},)j"
      R"j({"name":"deliver 0","ph":"i","pid":1,"tid":3,"ts":1,"s":"t","args":{"msg":0}},)j"
      R"j({"name":"blackout S->R","ph":"B","pid":1,"tid":6,"ts":2,"args":{"kind":"blackout","dir":"S->R","count":0,"match":-1}},)j"
      R"j({"name":"R-step","ph":"X","pid":1,"tid":2,"ts":2,"dur":1},)j"
      R"j({"name":"send 0","ph":"i","pid":1,"tid":4,"ts":2,"s":"t","args":{"msg":0}},)j"
      R"j({"name":"write[0]","ph":"i","pid":1,"tid":2,"ts":2,"s":"t","args":{"index":0,"item":0}},)j"
      R"j({"name":"deliver 0","ph":"i","pid":1,"tid":4,"ts":3,"s":"t","args":{"msg":0}},)j"
      R"j({"name":"freeze S->R","ph":"B","pid":1,"tid":7,"ts":4,"args":{"kind":"freeze","dir":"S->R","count":0,"match":-1}},)j"
      R"j({"name":"R-step","ph":"X","pid":1,"tid":2,"ts":4,"dur":1},)j"
      R"j({"name":"send 0","ph":"i","pid":1,"tid":4,"ts":4,"s":"t","args":{"msg":0}},)j"
      R"j({"name":"deliver 0","ph":"i","pid":1,"tid":4,"ts":5,"s":"t","args":{"msg":0}},)j"
      R"j({"name":"R-step","ph":"X","pid":1,"tid":2,"ts":6,"dur":1},)j"
      R"j({"name":"send 0","ph":"i","pid":1,"tid":4,"ts":6,"s":"t","args":{"msg":0}},)j"
      R"j({"name":"deliver 0","ph":"i","pid":1,"tid":4,"ts":7,"s":"t","args":{"msg":0}},)j"
      R"j({"name":"freeze S->R","ph":"E","pid":1,"tid":7,"ts":7},)j"
      R"j({"name":"S-step","ph":"X","pid":1,"tid":1,"ts":8,"dur":1},)j"
      R"j({"name":"send 1","ph":"i","pid":1,"tid":3,"ts":8,"s":"t","args":{"msg":1}},)j"
      R"j({"name":"blackout S->R","ph":"E","pid":1,"tid":6,"ts":8},)j"
      R"j({"name":"crash-receiver S->R","ph":"i","pid":1,"tid":6,"ts":9,"s":"t","args":{"kind":"crash-receiver","dir":"S->R","count":0,"match":-1}},)j"
      R"j({"name":"crash-restart","ph":"i","pid":1,"tid":2,"ts":9,"s":"t"},)j"
      R"j({"name":"restart (cold)","ph":"i","pid":1,"tid":2,"ts":9,"s":"t","args":{"rehydrated":false,"records_replayed":0}},)j"
      R"j({"name":"R-step","ph":"X","pid":1,"tid":2,"ts":9,"dur":1},)j"
      R"j({"name":"deliver 1","ph":"i","pid":1,"tid":3,"ts":10,"s":"t","args":{"msg":1}},)j"
      R"j({"name":"S-step","ph":"X","pid":1,"tid":1,"ts":11,"dur":1},)j"
      R"j({"name":"send 1","ph":"i","pid":1,"tid":3,"ts":11,"s":"t","args":{"msg":1}},)j"
      R"j({"name":"R-step","ph":"X","pid":1,"tid":2,"ts":12,"dur":1},)j"
      R"j({"name":"send 1","ph":"i","pid":1,"tid":4,"ts":12,"s":"t","args":{"msg":1}},)j"
      R"j({"name":"write[1]","ph":"i","pid":1,"tid":2,"ts":12,"s":"t","args":{"index":1,"item":1}}]})j";
  EXPECT_EQ(sink.to_json(), want);
}

TEST(ChromeGolden, WireEvents) {
  using obs::TraceEvent;
  using obs::TraceEventKind;
  const auto ev = [](TraceEventKind kind, std::uint64_t ts,
                     std::uint32_t session, std::int64_t msg,
                     std::uint8_t detail = 0, std::uint64_t aux = 0) {
    TraceEvent e;
    e.kind = kind;
    e.ts_us = ts;
    e.session = session;
    e.msg = msg;
    e.detail = detail;
    e.aux = aux;
    return e;
  };
  const auto fk = [](net::FrameKind k) { return static_cast<std::uint8_t>(k); };
  std::vector<TraceEvent> evs = {
      ev(TraceEventKind::kFrameSent, 5, 2, 16, fk(net::FrameKind::kData)),
      ev(TraceEventKind::kFrameRejected, 10, 0, 0,
         static_cast<std::uint8_t>(net::RejectReason::kBadChecksum)),
      ev(TraceEventKind::kFrameReceived, 20, 1, 8, fk(net::FrameKind::kData)),
      ev(TraceEventKind::kItem, 20, 1, 0),
      ev(TraceEventKind::kFrameShed, 30, 2, 0),
      ev(TraceEventKind::kCheckpointFlush, 40, 0, 2, 0, 15),
      ev(TraceEventKind::kRehydrate, 45, 3, 1,
         static_cast<std::uint8_t>(net::SessionState::kActive)),
      ev(TraceEventKind::kProbeAnswered, 50, 0, -4),
      ev(TraceEventKind::kFrameSent, 60, 1, 1, fk(net::FrameKind::kFin)),
      ev(TraceEventKind::kSessionState, 60, 1, 0,
         static_cast<std::uint8_t>(net::SessionState::kCompleted)),
      ev(TraceEventKind::kCheckpointFlush, 70, 1, 1, 0, 0),
  };
  evs[8].dir = sim::Dir::kReceiverToSender;
  const std::vector<net::TraceSpan> windows = {
      {"blackout S->R", 15, 45},
      {"freeze \"R->S\"", 20, 30},  // overlaps: second lane; needs escaping
      {"blackout R->S", 50, 60},    // first lane again; E meets an instant
  };
  std::ostringstream os;
  net::write_wire_chrome_trace(os, evs, windows);
  const std::string want =
      R"j({"displayTimeUnit":"ms","traceEvents":[)j"
      R"j({"name":"process_name","ph":"M","pid":1,"args":{"name":"stpx wire"}},)j"
      R"j({"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"rejects"}},)j"
      R"j({"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"faults"}},)j"
      R"j({"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"faults (overflow lane)"}},)j"
      R"j({"name":"thread_name","ph":"M","pid":1,"tid":4,"args":{"name":"flush shard 0"}},)j"
      R"j({"name":"thread_name","ph":"M","pid":1,"tid":5,"args":{"name":"flush shard 1"}},)j"
      R"j({"name":"thread_name","ph":"M","pid":1,"tid":6,"args":{"name":"session 0"}},)j"
      R"j({"name":"thread_name","ph":"M","pid":1,"tid":7,"args":{"name":"session 1"}},)j"
      R"j({"name":"thread_name","ph":"M","pid":1,"tid":8,"args":{"name":"session 2"}},)j"
      R"j({"name":"thread_name","ph":"M","pid":1,"tid":9,"args":{"name":"session 3"}},)j"
      R"j({"name":"send data 16","ph":"i","pid":1,"tid":8,"ts":5,"s":"t","args":{"dir":"S->R","msg":16}},)j"
      R"j({"name":"reject bad-checksum","ph":"i","pid":1,"tid":1,"ts":10,"s":"t"},)j"
      R"j({"name":"blackout S->R","ph":"B","pid":1,"tid":2,"ts":15},)j"
      R"j({"name":"freeze \"R->S\"","ph":"B","pid":1,"tid":3,"ts":20},)j"
      R"j({"name":"recv data 8","ph":"i","pid":1,"tid":7,"ts":20,"s":"t","args":{"dir":"S->R","msg":8}},)j"
      R"j({"name":"item[0]","ph":"i","pid":1,"tid":7,"ts":20,"s":"t","args":{"index":0}},)j"
      R"j({"name":"flush 2","ph":"X","pid":1,"tid":4,"ts":25,"dur":15,"args":{"records":2,"dur_us":15}},)j"
      R"j({"name":"shed","ph":"i","pid":1,"tid":8,"ts":30,"s":"t"},)j"
      R"j({"name":"freeze \"R->S\"","ph":"E","pid":1,"tid":3,"ts":30},)j"
      R"j({"name":"rehydrate@1","ph":"i","pid":1,"tid":9,"ts":45,"s":"t","args":{"position":1,"state":"active"}},)j"
      R"j({"name":"blackout S->R","ph":"E","pid":1,"tid":2,"ts":45},)j"
      R"j({"name":"blackout R->S","ph":"B","pid":1,"tid":2,"ts":50},)j"
      R"j({"name":"probe-ack -4","ph":"i","pid":1,"tid":6,"ts":50,"s":"t"},)j"
      R"j({"name":"send fin 1","ph":"i","pid":1,"tid":7,"ts":60,"s":"t","args":{"dir":"R->S","msg":1}},)j"
      R"j({"name":"completed","ph":"i","pid":1,"tid":7,"ts":60,"s":"t"},)j"
      R"j({"name":"blackout R->S","ph":"E","pid":1,"tid":2,"ts":60},)j"
      R"j({"name":"flush 1","ph":"X","pid":1,"tid":5,"ts":70,"dur":1,"args":{"records":1,"dur_us":0}}]})j";
  EXPECT_EQ(os.str(), want);
}

}  // namespace
}  // namespace stpx

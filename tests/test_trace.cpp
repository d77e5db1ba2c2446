// Conformance suite for the wire observability stack (ctest -L
// trace_smoke):
//
//   * TraceEvent JSONL codec — golden lines pinned in BOTH directions
//     (emit must match the pinned string, the pinned string must parse to
//     the identical event), plus malformed-line rejection;
//   * FlightRecorder — bounded rings with explicit drop-newest accounting,
//     drain-consumes semantics, k-way merged time order, multi-threaded
//     stress with a concurrent drainer (the TSan stage runs this);
//   * trace sinks — JSONL stream round-trip and Chrome-trace export
//     structural validity;
//   * analysis::TracePipeline — every standard analyzer exercised on
//     synthetic streams, including attestor violation cases;
//   * integration — a real mux run with recorders attached: the drained
//     trace re-derives the acceptance verdict (prefix attestor), survives
//     an archive round-trip with an identical TraceReport, and the
//     injected corrupt frame shows up both as a per-reason reject counter
//     and as a trace event; capped at the 1000-session acceptance run,
//     attested from the trace alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/trace_pipeline.hpp"
#include "fault/plan.hpp"
#include "net/flight_recorder.hpp"
#include "net/frame.hpp"
#include "net/loopback.hpp"
#include "net/mux.hpp"
#include "net/service.hpp"
#include "net/trace_sinks.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "proto/suite.hpp"
#include "store/stable_store.hpp"

#include "delivery_gate.hpp"

namespace stpx {
namespace {

using namespace std::chrono_literals;
using obs::TraceEvent;
using obs::TraceEventKind;
using net::MuxCounter;

constexpr int kDomain = 8;

seq::Sequence seq_for(std::uint32_t id, std::size_t len) {
  seq::Sequence x;
  x.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    x.push_back(static_cast<seq::DataItem>((id + i) % kDomain));
  }
  return x;
}

TraceEvent make_ev(TraceEventKind kind, std::uint64_t ts,
                   std::uint32_t session = 0, std::int64_t msg = 0,
                   std::uint8_t detail = 0,
                   sim::Dir dir = sim::Dir::kSenderToReceiver) {
  TraceEvent ev;
  ev.kind = kind;
  ev.ts_us = ts;
  ev.session = session;
  ev.msg = msg;
  ev.detail = detail;
  ev.dir = dir;
  return ev;
}

/// An engine-kind event at `step` (engine kinds carry no session).
TraceEvent engine_ev(TraceEventKind kind, std::uint64_t step,
                     std::int64_t msg = 0, std::uint64_t aux = 0,
                     std::uint8_t detail = 0,
                     sim::Dir dir = sim::Dir::kSenderToReceiver) {
  auto ev = make_ev(kind, step, 0, msg, detail, dir);
  ev.aux = aux;
  return ev;
}

/// What the mux records when `session` writes output item `index`.
TraceEvent item_ev(std::uint32_t session, std::size_t index) {
  return make_ev(TraceEventKind::kItem, 0, session,
                 static_cast<std::int64_t>(index));
}

/// What the mux records when `session` completes.
TraceEvent completed_ev(std::uint32_t session) {
  return make_ev(TraceEventKind::kSessionState, 0, session, 0,
                 static_cast<std::uint8_t>(net::SessionState::kCompleted));
}

// --------------------------------------------------------------------------
// JSONL codec: golden lines, both directions.
// --------------------------------------------------------------------------

struct GoldenCase {
  TraceEvent ev;
  const char* line;
};

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  {
    auto ev = make_ev(TraceEventKind::kFrameSent, 12, 7, 5,
                      static_cast<std::uint8_t>(net::FrameKind::kData));
    ev.seq = 3;
    cases.push_back({ev,
                     "{\"ts\":12,\"seq\":3,\"ev\":\"frame-sent\",\"session\""
                     ":7,\"kind\":\"data\",\"dir\":\"S->R\",\"msg\":5}"});
  }
  {
    auto ev = make_ev(TraceEventKind::kFrameReceived, 34, 7, -1,
                      static_cast<std::uint8_t>(net::FrameKind::kFin),
                      sim::Dir::kReceiverToSender);
    cases.push_back({ev,
                     "{\"ts\":34,\"seq\":0,\"ev\":\"frame-received\","
                     "\"session\":7,\"kind\":\"fin\",\"dir\":\"R->S\","
                     "\"msg\":-1}"});
  }
  {
    auto ev = make_ev(
        TraceEventKind::kFrameRejected, 56, 0, 0,
        static_cast<std::uint8_t>(net::RejectReason::kBadChecksum));
    cases.push_back({ev,
                     "{\"ts\":56,\"seq\":0,\"ev\":\"frame-rejected\","
                     "\"why\":\"bad-checksum\"}"});
  }
  cases.push_back({make_ev(TraceEventKind::kFrameShed, 78, 9),
                   "{\"ts\":78,\"seq\":0,\"ev\":\"frame-shed\","
                   "\"session\":9}"});
  cases.push_back({make_ev(TraceEventKind::kItem, 90, 4, 2),
                   "{\"ts\":90,\"seq\":0,\"ev\":\"item\",\"session\":4,"
                   "\"index\":2}"});
  cases.push_back(
      {make_ev(TraceEventKind::kSessionState, 101, 4, 0,
               static_cast<std::uint8_t>(net::SessionState::kCompleted)),
       "{\"ts\":101,\"seq\":0,\"ev\":\"session-state\",\"session\":4,"
       "\"state\":\"completed\"}"});
  cases.push_back(
      {make_ev(TraceEventKind::kRehydrate, 115, 6, 2,
               static_cast<std::uint8_t>(net::SessionState::kActive)),
       "{\"ts\":115,\"seq\":0,\"ev\":\"rehydrate\",\"session\":6,"
       "\"position\":2,\"state\":\"active\"}"});
  {
    auto ev = make_ev(TraceEventKind::kCheckpointFlush, 130, 1, 17);
    ev.aux = 42;
    cases.push_back({ev,
                     "{\"ts\":130,\"seq\":0,\"ev\":\"checkpoint-flush\","
                     "\"shard\":1,\"records\":17,\"dur_us\":42}"});
  }
  // Fabric heartbeat echo — note: all cases above have backend == 0 and
  // pin the pre-fabric line shape byte-identically (no "backend" key).
  cases.push_back({make_ev(TraceEventKind::kProbeAnswered, 140, 0, -7),
                   "{\"ts\":140,\"seq\":0,\"ev\":\"probe-answered\","
                   "\"nonce\":-7}"});
  // A nonzero backend id is appended as the trailing key, on any kind.
  {
    auto ev = make_ev(TraceEventKind::kItem, 150, 4, 2);
    ev.backend = 3;
    cases.push_back({ev,
                     "{\"ts\":150,\"seq\":0,\"ev\":\"item\",\"session\":4,"
                     "\"index\":2,\"backend\":3}"});
  }
  {
    auto ev = make_ev(TraceEventKind::kProbeAnswered, 160, 0, 9);
    ev.backend = 2;
    cases.push_back({ev,
                     "{\"ts\":160,\"seq\":0,\"ev\":\"probe-answered\","
                     "\"nonce\":9,\"backend\":2}"});
  }
  return cases;
}

TEST(TraceEventCodec, GoldenEmit) {
  for (const auto& c : golden_cases()) {
    EXPECT_EQ(net::to_jsonl(c.ev), c.line);
    EXPECT_TRUE(obs::json_valid(c.line));
  }
}

TEST(TraceEventCodec, GoldenParse) {
  for (const auto& c : golden_cases()) {
    const auto parsed = net::parse_jsonl(c.line);
    ASSERT_TRUE(parsed.has_value()) << c.line;
    EXPECT_EQ(*parsed, c.ev) << c.line;
  }
}

TEST(TraceEventCodec, RoundTripSweep) {
  std::vector<TraceEvent> evs;
  for (const auto& c : golden_cases()) evs.push_back(c.ev);
  // Every value of every enum the codec writes by name.
  for (std::uint8_t k = 0; k <= net::kMaxFrameKind; ++k) {
    for (const auto dir :
         {sim::Dir::kSenderToReceiver, sim::Dir::kReceiverToSender}) {
      evs.push_back(make_ev(TraceEventKind::kFrameSent, 1, 2, 3, k, dir));
      evs.push_back(make_ev(TraceEventKind::kFrameReceived, 1, 2, 3, k, dir));
    }
  }
  for (std::uint8_t r = 0;
       r <= static_cast<std::uint8_t>(net::RejectReason::kBadChecksum); ++r) {
    evs.push_back(make_ev(TraceEventKind::kFrameRejected, 1, 0, 0, r));
  }
  for (std::uint8_t st = 0;
       st <= static_cast<std::uint8_t>(net::SessionState::kRecoveryViolation);
       ++st) {
    evs.push_back(make_ev(TraceEventKind::kSessionState, 1, 2, 0, st));
    evs.push_back(make_ev(TraceEventKind::kRehydrate, 1, 2, 4, st));
  }
  // The engine kinds, each over every value of the enums it names:
  // ActionKind, Dir, Proc, RunVerdict and FaultKind.
  const auto dirs = {sim::Dir::kSenderToReceiver, sim::Dir::kReceiverToSender};
  evs.push_back(engine_ev(TraceEventKind::kRunBegin, 7, 6));
  for (std::uint8_t a = 0;
       a <= static_cast<std::uint8_t>(sim::ActionKind::kDeliverToSender);
       ++a) {
    evs.push_back(engine_ev(TraceEventKind::kStep, 7, -1, 0, a));
  }
  for (const auto dir : dirs) {
    evs.push_back(engine_ev(TraceEventKind::kSend, 7, 3, 0, 0, dir));
    evs.push_back(engine_ev(TraceEventKind::kDeliver, 7, 3, 0, 0, dir));
  }
  evs.push_back(engine_ev(TraceEventKind::kWrite, 7, 5, 2));
  for (std::uint8_t p = 0; p <= static_cast<std::uint8_t>(sim::Proc::kReceiver);
       ++p) {
    evs.push_back(engine_ev(TraceEventKind::kCrash, 7, 0, 0, p));
    for (const std::uint64_t yes : {0u, 1u}) {
      evs.push_back(engine_ev(TraceEventKind::kRestart, 7, 4, yes, p));
      evs.push_back(engine_ev(TraceEventKind::kScramble, 7, 0, yes, p));
    }
  }
  evs.push_back(engine_ev(TraceEventKind::kStall, 7));
  evs.push_back(engine_ev(TraceEventKind::kConverge, 7, 0, 163));
  for (std::uint8_t v = 0;
       v <= static_cast<std::uint8_t>(sim::RunVerdict::kCompleted); ++v) {
    evs.push_back(engine_ev(TraceEventKind::kRunEnd, 7, 0, 0, v));
  }
  for (std::uint8_t k = 0;
       k <= static_cast<std::uint8_t>(fault::FaultKind::kScrambleState); ++k) {
    for (const auto dir : dirs) {
      evs.push_back(engine_ev(TraceEventKind::kFault, 7, -1, 6, k, dir));
      evs.push_back(engine_ev(TraceEventKind::kFault, 7, 4, 0, k, dir));
    }
  }
  for (const auto& ev : evs) {
    const std::string line = net::to_jsonl(ev);
    const auto parsed = net::parse_jsonl(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(*parsed, ev) << line;
  }
}

TEST(TraceEventCodec, EngineGoldenLines) {
  // One pinned line per engine kind, emitted and parsed back.
  const auto u8 = [](auto e) { return static_cast<std::uint8_t>(e); };
  const std::vector<GoldenCase> cases = {
      {engine_ev(TraceEventKind::kRunBegin, 0, 6),
       R"({"ts":0,"seq":0,"ev":"run_begin","items":6})"},
      {engine_ev(TraceEventKind::kStep, 4, 2, 0,
                 u8(sim::ActionKind::kDeliverToSender)),
       R"({"ts":4,"seq":0,"ev":"step","action":"deliver->S","msg":2})"},
      {engine_ev(TraceEventKind::kSend, 5, 3),
       R"({"ts":5,"seq":0,"ev":"send","dir":"S->R","msg":3})"},
      {engine_ev(TraceEventKind::kDeliver, 6, 3, 0, 0,
                 sim::Dir::kReceiverToSender),
       R"({"ts":6,"seq":0,"ev":"deliver","dir":"R->S","msg":3})"},
      {engine_ev(TraceEventKind::kWrite, 7, 1, 0),
       R"({"ts":7,"seq":0,"ev":"write","index":0,"item":1})"},
      {engine_ev(TraceEventKind::kCrash, 9, 0, 0, u8(sim::Proc::kReceiver)),
       R"({"ts":9,"seq":0,"ev":"crash","proc":"receiver"})"},
      {engine_ev(TraceEventKind::kRestart, 9, 2, 1, u8(sim::Proc::kReceiver)),
       R"({"ts":9,"seq":0,"ev":"restart","proc":"receiver","rehydrated":true,"records_replayed":2})"},
      {engine_ev(TraceEventKind::kStall, 40),
       R"({"ts":40,"seq":0,"ev":"stall"})"},
      {engine_ev(TraceEventKind::kScramble, 12, 0, 0, u8(sim::Proc::kSender)),
       R"({"ts":12,"seq":0,"ev":"scramble","proc":"sender","accepted":false})"},
      {engine_ev(TraceEventKind::kConverge, 175, 0, 163),
       R"({"ts":175,"seq":0,"ev":"converge","latency":163})"},
      {engine_ev(TraceEventKind::kRunEnd, 175, 0, 0,
                 u8(sim::RunVerdict::kCompleted)),
       R"({"ts":175,"seq":0,"ev":"run_end","verdict":"completed"})"},
      {engine_ev(TraceEventKind::kFault, 2, -1, 6,
                 u8(fault::FaultKind::kBlackout)),
       R"({"ts":2,"seq":0,"ev":"fault","kind":"blackout","dir":"S->R","n":6,"match":-1})"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(net::to_jsonl(c.ev), c.line);
    const auto parsed = net::parse_jsonl(c.line);
    ASSERT_TRUE(parsed.has_value()) << c.line;
    EXPECT_EQ(*parsed, c.ev) << c.line;
  }
}

TEST(TraceEventCodec, RejectsMalformedEngineLines) {
  const char* bad[] = {
      "{\"ts\":1,\"seq\":0,\"ev\":\"crash\",\"proc\":\"nobody\"}",
      "{\"ts\":1,\"seq\":0,\"ev\":\"restart\",\"proc\":\"sender\","
      "\"rehydrated\":maybe,\"records_replayed\":0}",
      "{\"ts\":1,\"seq\":0,\"ev\":\"write\",\"index\":-1,\"item\":0}",
      "{\"ts\":1,\"seq\":0,\"ev\":\"step\",\"action\":\"jump\",\"msg\":0}",
      "{\"ts\":1,\"seq\":0,\"ev\":\"fault\",\"kind\":\"drop\","
      "\"dir\":\"S->R\",\"match\":-1}",  // no n
      "{\"ts\":1,\"seq\":0,\"ev\":\"run_end\",\"verdict\":\"won\"}",
  };
  for (const char* line : bad) {
    EXPECT_FALSE(net::parse_jsonl(line).has_value()) << line;
  }
}

TEST(TraceEventCodec, RejectsMalformed) {
  const char* bad[] = {
      "",
      "not json",
      "{\"ts\":1,\"seq\":0}",                                   // no ev
      "{\"ts\":1,\"seq\":0,\"ev\":\"no-such-kind\"}",           // bad kind
      "{\"ts\":-1,\"seq\":0,\"ev\":\"frame-shed\",\"session\":1}",
      "{\"ts\":1,\"seq\":0,\"ev\":\"frame-shed\"}",             // no session
      "{\"ts\":1,\"seq\":0,\"ev\":\"item\",\"session\":1}",     // no index
      "{\"ts\":1,\"seq\":0,\"ev\":\"frame-rejected\",\"why\":\"nope\"}",
      "{\"ts\":1,\"seq\":0,\"ev\":\"session-state\",\"session\":1,"
      "\"state\":\"half-done\"}",
      "{\"ts\":1,\"seq\":0,\"ev\":\"frame-sent\",\"session\":1,"
      "\"kind\":\"data\",\"dir\":\"up\",\"msg\":0}",
      "{\"ts\":x,\"seq\":0,\"ev\":\"frame-shed\",\"session\":1}",
  };
  for (const char* line : bad) {
    EXPECT_FALSE(net::parse_jsonl(line).has_value()) << line;
  }
}

// --------------------------------------------------------------------------
// FlightRecorder semantics.
// --------------------------------------------------------------------------

TEST(FlightRecorder, RecordsAndDrainsInOrder) {
  net::FlightRecorderConfig cfg;
  cfg.shards = 2;
  net::FlightRecorder rec(cfg);
  for (std::size_t i = 0; i < 10; ++i) rec.record(item_ev(1, i));
  rec.record(completed_ev(1));

  const auto evs = rec.drain();
  ASSERT_EQ(evs.size(), 11u);
  for (std::size_t i = 0; i + 1 < evs.size(); ++i) {
    EXPECT_LE(evs[i].ts_us, evs[i + 1].ts_us);
  }
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(evs[i].kind, TraceEventKind::kItem);
    EXPECT_EQ(evs[i].msg, static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(evs[10].kind, TraceEventKind::kSessionState);

  const auto st = rec.stats();
  EXPECT_EQ(st.recorded, 11u);
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_TRUE(rec.drain().empty());  // drain consumes
}

TEST(FlightRecorder, DrainThenRecordAgain) {
  net::FlightRecorder rec;
  rec.record(item_ev(1, 0));
  EXPECT_EQ(rec.drain().size(), 1u);
  rec.record(item_ev(1, 1));
  rec.record(item_ev(1, 2));
  const auto evs = rec.drain();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].msg, 1);
  EXPECT_EQ(evs[1].msg, 2);
}

TEST(FlightRecorder, FullRingDropsNewestAndAccounts) {
  net::FlightRecorderConfig cfg;
  cfg.shards = 1;
  cfg.ring_capacity = 8;  // already a power of two, min is 8
  net::FlightRecorder rec(cfg);
  ASSERT_EQ(rec.ring_capacity(), 8u);

  for (std::size_t i = 0; i < 20; ++i) rec.record(item_ev(1, i));
  const auto st = rec.stats();
  EXPECT_EQ(st.recorded, 8u);
  EXPECT_EQ(st.dropped, 12u);
  ASSERT_EQ(st.dropped_per_shard.size(), 1u);
  EXPECT_EQ(st.dropped_per_shard[0], 12u);

  // Drop-newest: the survivors are the FIRST 8, and their per-shard seq
  // runs 0..7 (the 12 dropped events advanced seq past the window, so a
  // later record would show the hole).
  const auto evs = rec.drain();
  ASSERT_EQ(evs.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(evs[i].msg, static_cast<std::int64_t>(i));
    EXPECT_EQ(evs[i].seq, i);
  }

  // The ring is drained: recording resumes, with the seq hole visible.
  rec.record(item_ev(1, 99));
  const auto more = rec.drain();
  ASSERT_EQ(more.size(), 1u);
  EXPECT_EQ(more[0].seq, 20u);

  obs::MetricsRegistry reg;
  rec.publish_metrics(reg);
  EXPECT_EQ(reg.counter_value("net.trace.recorded"), 9u);
  EXPECT_EQ(reg.counter_value("net.trace.dropped"), 12u);
}

TEST(FlightRecorder, StampsItsBackendIdIntoEveryEvent) {
  net::FlightRecorderConfig cfg;
  cfg.backend_id = 5;
  net::FlightRecorder rec(cfg);
  rec.record(item_ev(1, 0));
  rec.record(make_ev(TraceEventKind::kProbeAnswered, 0, 0, 42));
  rec.record(completed_ev(1));
  const auto evs = rec.drain();
  ASSERT_EQ(evs.size(), 3u);
  for (const auto& ev : evs) EXPECT_EQ(ev.backend, 5u);
  // The heartbeat echo carries its nonce through to JSONL.
  EXPECT_EQ(evs[1].kind, TraceEventKind::kProbeAnswered);
  EXPECT_EQ(evs[1].msg, 42);
  EXPECT_NE(net::to_jsonl(evs[1]).find("\"nonce\":42"), std::string::npos);
  EXPECT_NE(net::to_jsonl(evs[1]).find("\"backend\":5"), std::string::npos);
}

TEST(FlightRecorder, RecycledAddressDoesNotInheritARingBinding) {
  // Each thread caches the ring it bound per recorder.  A recorder built
  // in a dead one's storage, with fewer rings, must bind afresh.
  alignas(net::FlightRecorder) unsigned char storage[sizeof(
      net::FlightRecorder)];
  net::FlightRecorderConfig eight;
  eight.shards = 8;
  auto* rec = new (storage) net::FlightRecorder(eight);
  std::thread([rec] { rec->record(item_ev(1, 0)); }).join();  // ring 0
  rec->record(item_ev(1, 1));  // this thread binds ring 1
  rec->~FlightRecorder();

  net::FlightRecorderConfig one;
  one.shards = 1;
  rec = new (storage) net::FlightRecorder(one);
  rec->record(item_ev(2, 0));
  const auto evs = rec->drain();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].session, 2u);
  EXPECT_EQ(rec->stats().recorded, 1u);
  rec->~FlightRecorder();
}

TEST(FlightRecorder, EpochOffsetAnchorsRecordersOnAMachineWideClock) {
  // Two recorders born in sequence: the later one's epoch offset is never
  // smaller (CLOCK_MONOTONIC is machine-wide), which is what lets
  // per-backend streams be rebased onto one time axis after a merge.
  net::FlightRecorder first;
  net::FlightRecorder second;
  EXPECT_GE(second.epoch_offset_us(), first.epoch_offset_us());
  first.record(item_ev(1, 0));
  const auto evs = first.drain();
  ASSERT_EQ(evs.size(), 1u);
  // Event timestamps are relative to the recorder's own epoch.
  EXPECT_LT(evs[0].ts_us, 60'000'000u);
}

TEST(FlightRecorder, ConcurrentProducersAndDrainerLoseNothing) {
  net::FlightRecorderConfig cfg;
  cfg.shards = 2;  // fewer shards than producers: rings are shared
  cfg.ring_capacity = 1 << 10;
  net::FlightRecorder rec(cfg);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 10000;
  std::vector<TraceEvent> drained;
  {
    std::atomic<bool> done{false};
    std::jthread drainer([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto batch = rec.drain();
        drained.insert(drained.end(), batch.begin(), batch.end());
        std::this_thread::sleep_for(100us);
      }
      auto tail = rec.drain();
      drained.insert(drained.end(), tail.begin(), tail.end());
    });
    {
      std::vector<std::jthread> producers;
      for (std::size_t t = 0; t < kThreads; ++t) {
        producers.emplace_back([&rec, t] {
          for (std::size_t i = 0; i < kPerThread; ++i) {
            rec.record(item_ev(static_cast<std::uint32_t>(t), i));
          }
        });
      }
    }
    done.store(true, std::memory_order_release);
  }

  const auto st = rec.stats();
  EXPECT_EQ(st.recorded + st.dropped, kThreads * kPerThread);
  EXPECT_EQ(drained.size(), st.recorded);

  // Per (session == producer) the surviving indices are strictly
  // increasing — drops leave holes, never reorderings.
  std::size_t next_index[kThreads];
  std::fill(std::begin(next_index), std::end(next_index), 0);
  for (const auto& ev : drained) {
    ASSERT_LT(ev.session, kThreads);
    EXPECT_GE(static_cast<std::size_t>(ev.msg), next_index[ev.session]);
    next_index[ev.session] = static_cast<std::size_t>(ev.msg) + 1;
  }
}

/// Drops the FINs the wrapped endpoint sends for one session: its peer
/// sees every item acked but never the completion notice.
class FinWithholder final : public net::ITransport {
 public:
  FinWithholder(net::ITransport* inner, std::uint32_t session)
      : inner_(inner), session_(session) {}
  bool send(const std::vector<std::uint8_t>& bytes) override {
    const auto f = net::decode(bytes);
    if (f && f->kind == net::FrameKind::kFin && f->session == session_) {
      return true;
    }
    return inner_->send(bytes);
  }
  std::optional<std::vector<std::uint8_t>> poll() override {
    return inner_->poll();
  }
  std::string name() const override { return "fin-withholder"; }

 private:
  net::ITransport* inner_;
  std::uint32_t session_;
};

std::uint64_t count_kind(const std::vector<TraceEvent>& evs,
                         TraceEventKind kind) {
  return static_cast<std::uint64_t>(
      std::count_if(evs.begin(), evs.end(),
                    [kind](const TraceEvent& ev) { return ev.kind == kind; }));
}

std::uint64_t count_state(const std::vector<TraceEvent>& evs,
                          net::SessionState s) {
  return static_cast<std::uint64_t>(std::count_if(
      evs.begin(), evs.end(), [s](const TraceEvent& ev) {
        return ev.kind == TraceEventKind::kSessionState &&
               ev.detail == static_cast<std::uint8_t>(s);
      }));
}

/// The recorder saw every event the mux counted, kind by kind.
void expect_census(const net::SessionMux& mux,
                   const std::vector<TraceEvent>& evs) {
  const auto st = mux.stats();
  EXPECT_EQ(count_kind(evs, TraceEventKind::kFrameSent),
            st[MuxCounter::kFramesSent]);
  EXPECT_EQ(count_kind(evs, TraceEventKind::kFrameReceived),
            st[MuxCounter::kFramesReceived]);
  EXPECT_EQ(count_kind(evs, TraceEventKind::kFrameRejected),
            st[MuxCounter::kFramesRejected]);
  EXPECT_EQ(count_kind(evs, TraceEventKind::kFrameShed),
            st[MuxCounter::kFramesShed]);
  EXPECT_EQ(count_kind(evs, TraceEventKind::kItem), st[MuxCounter::kItemsDone]);
  EXPECT_EQ(count_kind(evs, TraceEventKind::kProbeAnswered),
            st[MuxCounter::kProbesAnswered]);
  EXPECT_EQ(count_kind(evs, TraceEventKind::kCheckpointFlush),
            st[MuxCounter::kCheckpointFlushes]);
  EXPECT_EQ(count_state(evs, net::SessionState::kCompleted),
            st[MuxCounter::kSessionsCompleted]);
  EXPECT_EQ(count_state(evs, net::SessionState::kSafetyViolation),
            st[MuxCounter::kSessionsViolated]);
  EXPECT_EQ(count_state(evs, net::SessionState::kEvicted),
            st[MuxCounter::kSessionsEvicted]);
  EXPECT_EQ(count_state(evs, net::SessionState::kRecoveryViolation),
            st[MuxCounter::kSessionsRecoveryViolated]);
}

TEST(FlightRecorder, CensusMatchesMuxCountersIncludingKeepalives) {
  constexpr std::uint32_t kWithheld = 1;  // its FIN never leaves the server
  constexpr std::uint32_t kFlooded = 9;   // server-only, shed by the flood
  store::MemStore log;
  log.reset();
  auto wire = net::make_loopback();
  FinWithholder server_side(wire.b.get(), kWithheld);

  net::FlightRecorder client_rec;
  net::FlightRecorder server_rec;
  test::DeliveryGate gate(&server_rec);
  net::MuxConfig cfg;
  net::MuxConfig ccfg = cfg;
  ccfg.probe = &client_rec;
  net::MuxConfig scfg = cfg;
  scfg.probe = &gate;
  scfg.session_stores = {&log};
  net::StpClient client(wire.a.get(), ccfg);
  net::StpServer server(&server_side, scfg);
  for (std::uint32_t id = 0; id < 4; ++id) {
    auto pair = proto::make_stenning(kDomain, true);
    client.add_session(id, std::move(pair.sender), seq_for(id, 3));
    server.add_session(id, std::move(pair.receiver), seq_for(id, 3));
  }
  auto flooded = proto::make_stenning(kDomain, true);
  server.add_session(kFlooded, std::move(flooded.receiver),
                     seq_for(kFlooded, 3));

  // Queued ahead of start(): a garbage datagram, a wrong-direction frame,
  // a heartbeat, and a burst for one session far past its inbox bound.
  net::Frame wrong_dir;
  wrong_dir.dir = sim::Dir::kReceiverToSender;
  wire.a->send({0x13, 0x37, 0x00});
  wire.a->send(net::encode(wrong_dir));
  net::Frame probe;
  probe.kind = net::FrameKind::kProbe;
  probe.session = net::kFabricSession;
  probe.msg = 11;
  wire.a->send(net::encode(probe));
  net::Frame first_item;
  first_item.session = kFlooded;
  first_item.msg = seq_for(kFlooded, 1)[0];  // Stenning id of item 0
  for (int i = 0; i < 300; ++i) wire.a->send(net::encode(first_item));

  server.mux().start();
  // The gate holds the server's worker in its first delivery until the
  // pump has routed or shed the whole flood, so at most two inbox shares
  // of it get in, whatever the scheduling.
  const auto flood_deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < flood_deadline) {
    const auto st = server.mux().stats();
    if (st[MuxCounter::kFramesReceived] + st[MuxCounter::kFramesShed] >= 300) {
      break;
    }
    std::this_thread::sleep_for(1ms);
  }
  gate.open();
  client.mux().start();
  const auto deadline = std::chrono::steady_clock::now() + 20s;
  while (std::chrono::steady_clock::now() < deadline &&
         (server.mux().stats()[MuxCounter::kSessionsCompleted] < 4 ||
          client.mux().stats()[MuxCounter::kSessionsCompleted] < 3)) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(server.mux().stats()[MuxCounter::kSessionsCompleted], 4u);
  ASSERT_EQ(client.mux().stats()[MuxCounter::kSessionsCompleted], 3u);
  // The withheld session's sender has every item acked and nothing left
  // to send: only its keepalive resends move the sent counter now.
  const std::uint64_t sent_before =
      client.mux().stats()[MuxCounter::kFramesSent];
  while (std::chrono::steady_clock::now() < deadline &&
         client.mux().stats()[MuxCounter::kFramesSent] < sent_before + 5) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_GE(client.mux().stats()[MuxCounter::kFramesSent], sent_before + 5);

  // Graceful stops: every routed frame is delivered, every checkpoint
  // flushed, before the counts are compared.
  EXPECT_FALSE(client.mux().drain(5ms));
  client.mux().stop();
  EXPECT_FALSE(server.mux().drain(5ms));
  server.mux().stop();

  const auto client_evs = client_rec.drain();
  const auto server_evs = server_rec.drain();
  EXPECT_EQ(client_rec.stats().dropped, 0u);
  EXPECT_EQ(server_rec.stats().dropped, 0u);
  expect_census(client.mux(), client_evs);
  expect_census(server.mux(), server_evs);

  const auto ss = server.mux().stats();
  EXPECT_EQ(ss[MuxCounter::kFramesRejected], 2u);
  EXPECT_GT(ss[MuxCounter::kFramesShed], 0u);
  EXPECT_EQ(ss[MuxCounter::kProbesAnswered], 1u);
  EXPECT_GT(ss[MuxCounter::kCheckpointFlushes], 0u);
  // Every item, plus item 0 of the flooded session.
  EXPECT_EQ(ss[MuxCounter::kItemsDone], 4u * 3u + 1u);
}

TEST(FlightRecorder, ToTraceSpansRebasesAndClamps) {
  const auto epoch = std::chrono::steady_clock::now();
  std::vector<net::WireWindow> windows;
  windows.push_back({"blackout S->R", epoch + 100us, epoch + 300us});
  windows.push_back({"before epoch", epoch - 200us, epoch - 100us});
  windows.push_back({"straddles", epoch - 50us, epoch + 50us});

  const auto spans = net::to_trace_spans(windows, epoch);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "blackout S->R");
  EXPECT_EQ(spans[0].begin_us, 100u);
  EXPECT_EQ(spans[0].end_us, 300u);
  EXPECT_EQ(spans[1].name, "straddles");
  EXPECT_EQ(spans[1].begin_us, 0u);  // clamped
  EXPECT_EQ(spans[1].end_us, 50u);
}

// --------------------------------------------------------------------------
// Sinks.
// --------------------------------------------------------------------------

TEST(TraceSinks, JsonlStreamRoundTrip) {
  std::vector<TraceEvent> evs;
  for (const auto& c : golden_cases()) evs.push_back(c.ev);

  std::ostringstream os;
  net::write_trace_jsonl(os, evs);
  std::istringstream is(os.str());
  const auto back = net::read_trace_jsonl(is);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, evs);
}

TEST(TraceSinks, JsonlReadRejectsCorruptArchive) {
  std::istringstream is(
      "{\"ts\":1,\"seq\":0,\"ev\":\"item\",\"session\":1,\"index\":0}\n"
      "garbage\n");
  EXPECT_FALSE(net::read_trace_jsonl(is).has_value());
}

TEST(TraceSinks, ChromeTraceExportIsValidJson) {
  std::vector<TraceEvent> evs;
  for (const auto& c : golden_cases()) evs.push_back(c.ev);
  std::vector<net::TraceSpan> windows;
  windows.push_back({"blackout S->R", 10, 60});
  windows.push_back({"freeze R->S", 20, 40});  // overlaps -> second lane

  std::ostringstream os;
  net::write_wire_chrome_trace(os, evs, windows);
  const std::string doc = os.str();
  EXPECT_TRUE(obs::json_valid(doc));
  EXPECT_NE(doc.find("\"session 7\""), std::string::npos);
  EXPECT_NE(doc.find("\"rejects\""), std::string::npos);
  EXPECT_NE(doc.find("\"flush shard 1\""), std::string::npos);
  EXPECT_NE(doc.find("\"faults\""), std::string::npos);
  EXPECT_NE(doc.find("faults (overflow lane)"), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
}

// --------------------------------------------------------------------------
// TracePipeline analyzers on synthetic streams.
// --------------------------------------------------------------------------

TEST(TracePipeline, AckRttPairsSendWithNextInbound) {
  std::vector<TraceEvent> evs;
  evs.push_back(make_ev(TraceEventKind::kFrameSent, 100, 1, 0,
                        static_cast<std::uint8_t>(net::FrameKind::kData)));
  // A retransmission of the same pending send must not reset the clock.
  evs.push_back(make_ev(TraceEventKind::kFrameSent, 150, 1, 0,
                        static_cast<std::uint8_t>(net::FrameKind::kData)));
  evs.push_back(make_ev(TraceEventKind::kFrameReceived, 400, 1, 0,
                        static_cast<std::uint8_t>(net::FrameKind::kData),
                        sim::Dir::kReceiverToSender));

  analysis::TracePipeline p;
  p.add(analysis::make_ack_rtt_analyzer());
  const auto rep = p.run(evs, {});
  EXPECT_EQ(rep.value("ack_rtt.count"), 1);
  EXPECT_EQ(rep.value("ack_rtt.p50_us"), 300);
}

TEST(TracePipeline, ItemLatencyMeasuresPerSessionGaps) {
  std::vector<TraceEvent> evs;
  evs.push_back(make_ev(TraceEventKind::kItem, 100, 1, 0));
  evs.push_back(make_ev(TraceEventKind::kItem, 160, 1, 1));
  evs.push_back(make_ev(TraceEventKind::kItem, 200, 2, 0));  // other session
  evs.push_back(make_ev(TraceEventKind::kItem, 260, 1, 2));

  analysis::TracePipeline p;
  p.add(analysis::make_item_latency_analyzer());
  const auto rep = p.run(evs, {});
  EXPECT_EQ(rep.value("item_latency.count"), 2);  // 60 and 100, session 1
  EXPECT_EQ(rep.value("item_latency.p99_us"), 100);
}

TEST(TracePipeline, GoodputCountsRetransmissions) {
  std::vector<TraceEvent> evs;
  for (int i = 0; i < 4; ++i) {
    evs.push_back(
        make_ev(TraceEventKind::kFrameSent, 100 + i * 10, 1, i % 2,
                static_cast<std::uint8_t>(net::FrameKind::kData)));
  }
  evs.push_back(make_ev(TraceEventKind::kItem, 150, 1, 0));
  evs.push_back(make_ev(TraceEventKind::kItem, 200, 1, 1));

  analysis::TracePipeline p;
  p.add(analysis::make_goodput_analyzer());
  const auto rep = p.run(evs, {});
  EXPECT_EQ(rep.value("goodput.items"), 2);
  EXPECT_EQ(rep.value("goodput.data_frames"), 4);
  EXPECT_EQ(rep.value("goodput.retx_permille"), 500);
  EXPECT_EQ(rep.value("goodput.duration_us"), 100);
}

TEST(TracePipeline, PrefixAttestorAcceptsCleanTrace) {
  std::vector<TraceEvent> evs;
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (std::int64_t i = 0; i < 3; ++i) {
      evs.push_back(
          make_ev(TraceEventKind::kItem, 100 + s * 10 + i * 100, s, i));
    }
    evs.push_back(
        make_ev(TraceEventKind::kSessionState, 500 + s, s, 0,
                static_cast<std::uint8_t>(net::SessionState::kCompleted)));
  }
  analysis::TraceContext ctx;
  ctx.expected_items[0] = 3;
  ctx.expected_items[1] = 3;

  analysis::TracePipeline p;
  p.add(analysis::make_prefix_attestor());
  const auto rep = p.run(evs, ctx);
  EXPECT_EQ(rep.value("prefix.ok"), 1);
  EXPECT_EQ(rep.value("prefix.sessions"), 2);
  EXPECT_EQ(rep.value("prefix.completed"), 2);
  EXPECT_TRUE(rep.ok);
}

TEST(TracePipeline, PrefixAttestorFlagsOutOfOrderItem) {
  std::vector<TraceEvent> evs;
  evs.push_back(make_ev(TraceEventKind::kItem, 100, 1, 0));
  evs.push_back(make_ev(TraceEventKind::kItem, 200, 1, 2));  // skipped 1

  analysis::TracePipeline p;
  p.add(analysis::make_prefix_attestor());
  const auto rep = p.run(evs, {});
  EXPECT_EQ(rep.value("prefix.ok"), 0);
  EXPECT_EQ(rep.value("prefix.item_violations"), 1);
  EXPECT_FALSE(rep.ok);
  ASSERT_EQ(rep.notes.count("prefix.first_violation"), 1u);
  EXPECT_NE(rep.notes.at("prefix.first_violation").find("session 1"),
            std::string::npos);
}

TEST(TracePipeline, PrefixAttestorFlagsIncompleteSession) {
  std::vector<TraceEvent> evs;
  evs.push_back(make_ev(TraceEventKind::kItem, 100, 1, 0));
  analysis::TraceContext ctx;
  ctx.expected_items[1] = 2;  // never completed

  analysis::TracePipeline p;
  p.add(analysis::make_prefix_attestor());
  const auto rep = p.run(evs, ctx);
  EXPECT_EQ(rep.value("prefix.ok"), 0);
  EXPECT_EQ(rep.value("prefix.incomplete"), 1);
}

TEST(TracePipeline, PrefixAttestorHonorsRehydrationPosition) {
  // A crash-restart resumes session 1 at position 2: indices 0 and 1 were
  // accepted pre-crash and never reappear in this trace.
  std::vector<TraceEvent> evs;
  evs.push_back(
      make_ev(TraceEventKind::kRehydrate, 50, 1, 2,
              static_cast<std::uint8_t>(net::SessionState::kActive)));
  evs.push_back(make_ev(TraceEventKind::kItem, 100, 1, 2));
  evs.push_back(
      make_ev(TraceEventKind::kSessionState, 200, 1, 0,
              static_cast<std::uint8_t>(net::SessionState::kCompleted)));
  analysis::TraceContext ctx;
  ctx.expected_items[1] = 3;

  analysis::TracePipeline p;
  p.add(analysis::make_prefix_attestor());
  const auto rep = p.run(evs, ctx);
  EXPECT_EQ(rep.value("prefix.ok"), 1);
}

TEST(TracePipeline, FaultCorrelatorAttributesLossToWindows) {
  std::vector<TraceEvent> evs;
  evs.push_back(make_ev(TraceEventKind::kFrameShed, 150, 1));    // inside
  evs.push_back(make_ev(TraceEventKind::kFrameShed, 500, 1));    // outside
  evs.push_back(make_ev(
      TraceEventKind::kFrameRejected, 160, 0, 0,
      static_cast<std::uint8_t>(net::RejectReason::kBadChecksum)));
  evs.push_back(make_ev(TraceEventKind::kFrameSent, 170, 1, 0,
                        static_cast<std::uint8_t>(net::FrameKind::kData)));
  evs.push_back(make_ev(TraceEventKind::kFrameSent, 600, 1, 1,
                        static_cast<std::uint8_t>(net::FrameKind::kData)));
  analysis::TraceContext ctx;
  ctx.fault_windows.push_back({"blackout S->R", 100, 200});

  analysis::TracePipeline p;
  p.add(analysis::make_fault_correlator());
  const auto rep = p.run(evs, ctx);
  EXPECT_EQ(rep.value("faultcorr.windows"), 1);
  EXPECT_EQ(rep.value("faultcorr.covered_us"), 100);
  EXPECT_EQ(rep.value("faultcorr.sheds_in_window"), 1);
  EXPECT_EQ(rep.value("faultcorr.sheds_outside"), 1);
  EXPECT_EQ(rep.value("faultcorr.rejects_in_window"), 1);
  EXPECT_EQ(rep.value("faultcorr.rejects_outside"), 0);
  EXPECT_EQ(rep.value("faultcorr.sends_in_window"), 1);
}

TEST(TracePipeline, StallDetectorMeasuresGapsAndLivelock) {
  std::vector<TraceEvent> evs;
  evs.push_back(make_ev(TraceEventKind::kItem, 100, 1, 0));
  // A long silent gap, then frames churn with no further items.
  for (int i = 0; i < 5; ++i) {
    evs.push_back(
        make_ev(TraceEventKind::kFrameSent, 300'000 + i * 10, 1, 1,
                static_cast<std::uint8_t>(net::FrameKind::kData)));
  }
  analysis::TraceContext ctx;
  ctx.expected_items[1] = 2;  // incomplete: item 1 never accepted

  analysis::TracePipeline p;
  p.add(analysis::make_stall_detector(/*stall_threshold_us=*/100'000,
                                      /*livelock_frames=*/5));
  const auto rep = p.run(evs, ctx);
  EXPECT_EQ(rep.value("stall.max_gap_us"), 299'900);
  EXPECT_EQ(rep.value("stall.gaps_over_threshold"), 1);
  EXPECT_EQ(rep.value("stall.trailing_frames"), 5);
  EXPECT_EQ(rep.value("stall.livelock"), 1);
  EXPECT_FALSE(rep.ok);

  // The same trace with every session completed is keepalive churn, not
  // livelock.
  analysis::TracePipeline p2;
  p2.add(analysis::make_stall_detector(100'000, 5));
  const auto rep2 = p2.run(evs, {});
  EXPECT_EQ(rep2.value("stall.livelock"), 0);
  EXPECT_TRUE(rep2.ok);
}

TEST(TracePipeline, RehydrationLatencyToFirstItem) {
  std::vector<TraceEvent> evs;
  evs.push_back(
      make_ev(TraceEventKind::kRehydrate, 100, 1, 2,
              static_cast<std::uint8_t>(net::SessionState::kActive)));
  evs.push_back(make_ev(TraceEventKind::kItem, 350, 1, 2));
  evs.push_back(make_ev(TraceEventKind::kItem, 500, 1, 3));  // not a sample
  evs.push_back(
      make_ev(TraceEventKind::kRehydrate, 600, 2, 0,
              static_cast<std::uint8_t>(net::SessionState::kActive)));

  analysis::TracePipeline p;
  p.add(analysis::make_rehydration_analyzer());
  const auto rep = p.run(evs, {});
  EXPECT_EQ(rep.value("rehydrate.rehydrations"), 2);
  EXPECT_EQ(rep.value("rehydrate.latency.count"), 1);
  EXPECT_EQ(rep.value("rehydrate.latency.p50_us"), 250);
}

TEST(TracePipeline, ReportJsonAndMetricsPublish) {
  analysis::TraceReport rep;
  rep.values["prefix.ok"] = 1;
  rep.values["goodput.items"] = 42;
  rep.notes["prefix.first_violation"] = "none";
  EXPECT_TRUE(obs::json_valid(rep.to_json()));
  EXPECT_NE(rep.to_json().find("\"goodput.items\":42"), std::string::npos);

  obs::MetricsRegistry reg;
  analysis::publish_trace_report(rep, reg);
  EXPECT_EQ(reg.gauges().at("trace.prefix.ok").value(), 1);
  EXPECT_EQ(reg.gauges().at("trace.goodput.items").value(), 42);
  EXPECT_EQ(reg.gauges().at("trace.ok").value(), 1);

  analysis::TraceReport same = rep;
  EXPECT_EQ(same, rep);
  same.values["goodput.items"] = 41;
  EXPECT_NE(same, rep);
}

TEST(TracePipeline, StandardPipelineHasAllSevenAnalyzers) {
  EXPECT_EQ(analysis::make_standard_pipeline().size(), 7u);
}

// --------------------------------------------------------------------------
// Integration: recorder on a live mux; archive round-trip; acceptance.
// --------------------------------------------------------------------------

struct TracedRun {
  std::size_t sessions;
  std::vector<TraceEvent> server_events;
  analysis::TraceContext ctx;
  obs::MetricsRegistry server_metrics;
  bool drained_in_time = false;
  std::size_t completed = 0;
};

/// n sessions over a lossy reordering link with a FlightRecorder on the
/// server mux, drained periodically.  Injects one checksum-corrupted frame
/// so the reject path is part of every traced run.
TracedRun traced_run(std::size_t n, std::size_t len) {
  net::LoopbackConfig wire_cfg;
  fault::FaultPlan plan = fault::periodic_plan(
      fault::FaultKind::kDropBurst, sim::Dir::kSenderToReceiver, 9, 1,
      500'000);
  const auto rs = fault::periodic_plan(fault::FaultKind::kDropBurst,
                                       sim::Dir::kReceiverToSender, 11, 1,
                                       500'000);
  plan.actions.insert(plan.actions.end(), rs.actions.begin(),
                      rs.actions.end());
  wire_cfg.plan = plan;
  wire_cfg.reorder_window = 4;
  wire_cfg.seed = 0xACCE55;
  wire_cfg.max_queue = 16384;
  auto wire = net::make_loopback(wire_cfg);

  net::FlightRecorder recorder;
  net::MuxConfig cfg;
  cfg.workers = 2;
  net::MuxConfig server_cfg = cfg;
  server_cfg.probe = &recorder;

  net::StpClient client(wire.a.get(), cfg);
  net::StpServer server(wire.b.get(), server_cfg);
  TracedRun run;
  run.sessions = n;
  for (std::uint32_t id = 0; id < n; ++id) {
    auto pair = proto::make_stenning(kDomain);
    const auto x = seq_for(id, len);
    client.add_session(id, std::move(pair.sender), x);
    server.add_session(id, std::move(pair.receiver), x);
    run.ctx.expected_items[id] = len;
  }

  // One corrupt frame onto the S->R link: the server pump must reject it
  // (bad-checksum) and the trace must show it.
  {
    net::Frame f;
    f.session = 0;
    f.msg = 0;
    auto bytes = net::encode(f);
    bytes[net::kFrameSize - 1] ^= 0xFF;
    wire.a->send(bytes);
  }

  {
    std::jthread drainer([&](std::stop_token stop) {
      while (!stop.stop_requested()) {
        auto batch = recorder.drain();
        run.server_events.insert(run.server_events.end(), batch.begin(),
                                 batch.end());
        std::this_thread::sleep_for(2ms);
      }
    });
    run.drained_in_time = net::run_service_pair(client, server, 120s);
  }
  auto tail = recorder.drain();
  run.server_events.insert(run.server_events.end(), tail.begin(),
                           tail.end());
  std::stable_sort(run.server_events.begin(), run.server_events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  EXPECT_EQ(recorder.stats().dropped, 0u);

  run.ctx.fault_windows =
      net::to_trace_spans(wire.fault_windows(), recorder.epoch());
  for (const auto& r : server.mux().reports()) {
    if (r.state == net::SessionState::kCompleted && r.items == len) {
      ++run.completed;
    }
  }
  server.mux().publish_metrics(run.server_metrics);
  recorder.publish_metrics(run.server_metrics);
  return run;
}

TEST(TraceIntegration, MuxRunAttestsAndCountsRejects) {
  const auto run = traced_run(8, 3);
  ASSERT_TRUE(run.drained_in_time);
  ASSERT_EQ(run.completed, 8u);

  // The injected corrupt frame: per-reason counter and trace event agree.
  EXPECT_EQ(run.server_metrics.counter_value("net.rejects.bad-checksum"),
            1u);
  EXPECT_EQ(run.server_metrics.counter_value("net.rejects.bad-magic"), 0u);
  EXPECT_EQ(run.server_metrics.counters().count("net.sheds"), 1u);
  const auto rejected = std::count_if(
      run.server_events.begin(), run.server_events.end(),
      [](const TraceEvent& ev) {
        return ev.kind == TraceEventKind::kFrameRejected &&
               static_cast<net::RejectReason>(ev.detail) ==
                   net::RejectReason::kBadChecksum;
      });
  EXPECT_EQ(rejected, 1);

  // The trace alone re-derives the acceptance verdict.
  auto rep = analysis::make_standard_pipeline().run(run.server_events,
                                                    run.ctx);
  EXPECT_EQ(rep.value("prefix.ok"), 1);
  EXPECT_EQ(rep.value("prefix.completed"), 8);
  EXPECT_EQ(rep.value("goodput.items"), 24);
  EXPECT_GT(rep.value("goodput.data_frames"), 0);
  EXPECT_TRUE(rep.ok);
}

TEST(TraceIntegration, ArchiveRoundTripYieldsIdenticalReport) {
  const auto run = traced_run(4, 3);
  ASSERT_TRUE(run.drained_in_time);

  const auto live = analysis::make_standard_pipeline().run(
      run.server_events, run.ctx);

  std::ostringstream archive;
  net::write_trace_jsonl(archive, run.server_events);
  std::istringstream is(archive.str());
  const auto parsed = net::read_trace_jsonl(is);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(*parsed, run.server_events);

  const auto offline =
      analysis::make_standard_pipeline().run(*parsed, run.ctx);
  EXPECT_EQ(offline, live);

  // And the same stream exports as a loadable Chrome trace.
  std::ostringstream chrome;
  net::write_wire_chrome_trace(chrome, *parsed, run.ctx.fault_windows);
  EXPECT_TRUE(obs::json_valid(chrome.str()));
}

TEST(TraceAcceptance, ThousandSessionVerdictFromTraceAlone) {
  const auto run = traced_run(1000, 3);
  ASSERT_TRUE(run.drained_in_time);
  EXPECT_EQ(run.completed, 1000u);

  const auto rep = analysis::make_standard_pipeline().run(
      run.server_events, run.ctx);
  EXPECT_EQ(rep.value("prefix.ok"), 1) << rep.to_json();
  EXPECT_EQ(rep.value("prefix.sessions"), 1000);
  EXPECT_EQ(rep.value("prefix.completed"), 1000);
  EXPECT_EQ(rep.value("prefix.item_violations"), 0);
  EXPECT_EQ(rep.value("goodput.items"), 3000);
  EXPECT_EQ(rep.value("stall.livelock"), 0);
  EXPECT_TRUE(rep.ok);
}

}  // namespace
}  // namespace stpx

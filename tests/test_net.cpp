// Conformance suite for the wire layer (ctest -L net_smoke):
//
//   * codec — round-trip identity, field validation, and the byte-mangling
//     sweep (every single-byte corruption of a valid frame is rejected;
//     decode never throws on arbitrary bytes);
//   * loopback transport — FaultPlan-scripted drop/dup/blackout/freeze/cap
//     semantics, bounded queues, seeded reordering;
//   * session adapters — engine-free protocol driving with the online
//     prefix-safety check;
//   * SessionMux / service façade — small perfect-link runs, lossy runs,
//     routing rejects, inbox backpressure, idle eviction, metrics; and the
//     acceptance run: >= 1000 concurrent sessions over a lossy reordering
//     link, every one completing with its output an exact copy of its
//     input, prefix-safe at every write (attested by a checking probe);
//   * UDP transport — skipped gracefully where the environment forbids
//     sockets.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "fault/plan.hpp"
#include "net/flight_recorder.hpp"
#include "net/frame.hpp"
#include "net/loopback.hpp"
#include "net/mux.hpp"
#include "net/rtt.hpp"
#include "net/service.hpp"
#include "net/udp.hpp"
#include "obs/metrics.hpp"
#include "proto/session_adapter.hpp"
#include "proto/suite.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"
#include "util/sanitized.hpp"

#include "delivery_gate.hpp"

namespace stpx {
namespace {

using namespace std::chrono_literals;
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

std::vector<std::uint8_t> frame_bytes(std::uint32_t session, sim::MsgId msg,
                                      sim::Dir dir = sim::Dir::kSenderToReceiver,
                                      net::FrameKind kind = net::FrameKind::kData) {
  net::Frame f;
  f.kind = kind;
  f.dir = dir;
  f.session = session;
  f.msg = msg;
  return net::encode(f);
}

/// Re-stamp the checksum after tampering with header bytes, so the reject
/// reason under test is the field check rather than the checksum.
void restamp(std::vector<std::uint8_t>& b) {
  const std::uint32_t sum = net::fnv1a32(b.data(), net::kFrameSize - 4);
  b[17] = static_cast<std::uint8_t>(sum & 0xFF);
  b[18] = static_cast<std::uint8_t>((sum >> 8) & 0xFF);
  b[19] = static_cast<std::uint8_t>((sum >> 16) & 0xFF);
  b[20] = static_cast<std::uint8_t>((sum >> 24) & 0xFF);
}

// --------------------------------------------------------------------------
// Codec
// --------------------------------------------------------------------------

TEST(NetFrame, EncodeLayout) {
  const auto b = frame_bytes(0x01020304, 7);
  ASSERT_EQ(b.size(), net::kFrameSize);
  EXPECT_EQ(b[0], net::kMagic0);
  EXPECT_EQ(b[1], net::kMagic1);
  EXPECT_EQ(b[2], net::kWireVersion);
  EXPECT_EQ(b[3], 0);  // data
  EXPECT_EQ(b[4], 0);  // S->R
  // Session id, little-endian.
  EXPECT_EQ(b[5], 0x04);
  EXPECT_EQ(b[6], 0x03);
  EXPECT_EQ(b[7], 0x02);
  EXPECT_EQ(b[8], 0x01);
}

TEST(NetFrame, RoundTripSweep) {
  const std::uint32_t sessions[] = {0, 1, 77, 0xFFFFFFFFu};
  const sim::MsgId msgs[] = {0, 1, 4096, -1,
                             std::numeric_limits<sim::MsgId>::max(),
                             std::numeric_limits<sim::MsgId>::min()};
  for (const auto kind :
       {net::FrameKind::kData, net::FrameKind::kFin, net::FrameKind::kProbe,
        net::FrameKind::kProbeAck, net::FrameKind::kJoin,
        net::FrameKind::kJoinAck}) {
    for (const auto dir :
         {sim::Dir::kSenderToReceiver, sim::Dir::kReceiverToSender}) {
      for (const auto session : sessions) {
        for (const auto msg : msgs) {
          net::Frame f;
          f.kind = kind;
          f.dir = dir;
          f.session = session;
          f.msg = msg;
          const auto decoded = net::decode(net::encode(f));
          ASSERT_TRUE(decoded.has_value());
          EXPECT_EQ(*decoded, f);
        }
      }
    }
  }
}

TEST(NetFrame, Fnv1aKnownVectors) {
  EXPECT_EQ(net::fnv1a32(nullptr, 0), 0x811C9DC5u);
  const std::uint8_t a = 'a';
  EXPECT_EQ(net::fnv1a32(&a, 1), 0xE40C292Cu);
  // Single-byte sensitivity at a fixed position: all 256 values hash apart.
  std::uint8_t buf[4] = {1, 2, 3, 4};
  std::map<std::uint32_t, int> seen;
  for (int v = 0; v < 256; ++v) {
    buf[2] = static_cast<std::uint8_t>(v);
    ++seen[net::fnv1a32(buf, 4)];
  }
  EXPECT_EQ(seen.size(), 256u);
}

TEST(NetFrame, RejectsBadSize) {
  const auto good = frame_bytes(3, 9);
  for (std::size_t len = 0; len < net::kFrameSize; ++len) {
    net::RejectReason why{};
    EXPECT_FALSE(net::decode(good.data(), len, &why).has_value());
    EXPECT_EQ(why, net::RejectReason::kBadSize);
  }
  auto longer = good;
  longer.resize(net::kFrameSize + 3, 0);
  net::RejectReason why{};
  EXPECT_FALSE(net::decode(longer, &why).has_value());
  EXPECT_EQ(why, net::RejectReason::kBadSize);
}

TEST(NetFrame, RejectsBadFields) {
  struct Case {
    std::size_t offset;
    std::uint8_t value;
    net::RejectReason want;
  };
  const Case cases[] = {
      {0, 0x00, net::RejectReason::kBadMagic},
      {1, 0xFF, net::RejectReason::kBadMagic},
      {2, net::kWireVersion + 1, net::RejectReason::kBadVersion},
      {3, net::kMaxFrameKind + 1, net::RejectReason::kBadKind},
      {4, 2, net::RejectReason::kBadDir},
  };
  for (const auto& c : cases) {
    auto b = frame_bytes(3, 9);
    b[c.offset] = c.value;
    restamp(b);  // isolate the field check from the checksum check
    net::RejectReason why{};
    EXPECT_FALSE(net::decode(b, &why).has_value());
    EXPECT_EQ(why, c.want) << "offset " << c.offset;
  }
  // And an intact header with a wrong checksum.
  auto b = frame_bytes(3, 9);
  b[19] ^= 0x40;
  net::RejectReason why{};
  EXPECT_FALSE(net::decode(b, &why).has_value());
  EXPECT_EQ(why, net::RejectReason::kBadChecksum);
}

// The deterministic mangling sweep: every possible single-byte corruption
// of a valid frame (21 positions x 255 deltas) must be rejected — the
// checksum catches whatever the field checks let through.
TEST(NetFrame, SingleByteMangleAlwaysRejected) {
  const auto good = frame_bytes(0xDEADBEEF, 123456789, sim::Dir::kReceiverToSender,
                                net::FrameKind::kFin);
  ASSERT_TRUE(net::decode(good).has_value());
  for (std::size_t pos = 0; pos < net::kFrameSize; ++pos) {
    for (int delta = 1; delta < 256; ++delta) {
      auto b = good;
      b[pos] = static_cast<std::uint8_t>(b[pos] ^ delta);
      EXPECT_FALSE(net::decode(b).has_value())
          << "pos " << pos << " delta " << delta;
    }
  }
}

TEST(NetFrame, GarbageFuzzNeverThrows) {
  Rng rng(0xF00DF00DULL);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> b(static_cast<std::size_t>(rng.below(48)));
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.below(256));
    // Must not throw or crash; acceptance is allowed but wildly unlikely.
    (void)net::decode(b);
  }
}

// --------------------------------------------------------------------------
// Loopback transport
// --------------------------------------------------------------------------

TEST(NetLoopback, PerfectLinkIsFifoBothWays) {
  auto pair = net::make_loopback();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(pair.a->send(frame_bytes(1, i)));
    EXPECT_TRUE(pair.b->send(frame_bytes(2, 100 + i)));
  }
  for (int i = 0; i < 5; ++i) {
    const auto from_a = pair.b->poll();
    ASSERT_TRUE(from_a.has_value());
    EXPECT_EQ(net::decode(*from_a)->msg, i);
    const auto from_b = pair.a->poll();
    ASSERT_TRUE(from_b.has_value());
    EXPECT_EQ(net::decode(*from_b)->msg, 100 + i);
  }
  EXPECT_FALSE(pair.a->poll().has_value());
  EXPECT_FALSE(pair.b->poll().has_value());
}

TEST(NetLoopback, DropBurstDiscardsExactCount) {
  // Fires as the 2nd send arrives: sends #2 and #3 are discarded.
  net::LoopbackConfig cfg;
  cfg.plan = fault::plan_from_text("drop @sends 2 dir SR count 2");
  auto pair = net::make_loopback(cfg);
  for (int i = 1; i <= 5; ++i) pair.a->send(frame_bytes(1, i));
  std::vector<sim::MsgId> got;
  while (auto b = pair.b->poll()) got.push_back(net::decode(*b)->msg);
  EXPECT_EQ(got, (std::vector<sim::MsgId>{1, 4, 5}));
  EXPECT_EQ(pair.stats(sim::Dir::kSenderToReceiver).dropped, 2u);
  EXPECT_EQ(pair.stats(sim::Dir::kReceiverToSender).dropped, 0u);
}

TEST(NetLoopback, DropCountZeroFlushesQueue) {
  net::LoopbackConfig cfg;
  cfg.plan = fault::plan_from_text("drop @sends 4 dir SR count 0");
  auto pair = net::make_loopback(cfg);
  for (int i = 1; i <= 4; ++i) pair.a->send(frame_bytes(1, i));
  std::vector<sim::MsgId> got;
  while (auto b = pair.b->poll()) got.push_back(net::decode(*b)->msg);
  // The 4th send triggers the flush of the three queued frames, then lands.
  EXPECT_EQ(got, (std::vector<sim::MsgId>{4}));
  EXPECT_EQ(pair.stats(sim::Dir::kSenderToReceiver).dropped, 3u);
}

TEST(NetLoopback, DupBurstDuplicates) {
  net::LoopbackConfig cfg;
  cfg.plan = fault::plan_from_text("dup @sends 1 dir RS count 2");
  auto pair = net::make_loopback(cfg);
  for (int i = 1; i <= 3; ++i) pair.b->send(frame_bytes(1, i));
  std::vector<sim::MsgId> got;
  while (auto b = pair.a->poll()) got.push_back(net::decode(*b)->msg);
  EXPECT_EQ(got, (std::vector<sim::MsgId>{1, 1, 2, 2, 3}));
  EXPECT_EQ(pair.stats(sim::Dir::kReceiverToSender).duplicated, 2u);
}

TEST(NetLoopback, BlackoutSwallowsSendsUntilTicksElapse) {
  net::LoopbackConfig cfg;
  cfg.plan = fault::plan_from_text("blackout @step 0 dir SR len 3");
  auto pair = net::make_loopback(cfg);
  EXPECT_FALSE(pair.a->send(frame_bytes(1, 1)));  // swallowed
  // Three polls advance the link clock past the window.
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(pair.b->poll().has_value());
  EXPECT_TRUE(pair.a->send(frame_bytes(1, 2)));
  const auto b = pair.b->poll();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(net::decode(*b)->msg, 2);
  EXPECT_EQ(pair.stats(sim::Dir::kSenderToReceiver).blacked_out, 1u);
}

TEST(NetLoopback, FreezeRetainsFramesUntilThaw) {
  net::LoopbackConfig cfg;
  cfg.plan = fault::plan_from_text("freeze @step 0 dir SR len 3");
  auto pair = net::make_loopback(cfg);
  EXPECT_TRUE(pair.a->send(frame_bytes(1, 9)));  // queued, not dropped
  EXPECT_FALSE(pair.b->poll().has_value());      // tick 1 < 3: frozen
  EXPECT_FALSE(pair.b->poll().has_value());      // tick 2 < 3: frozen
  const auto b = pair.b->poll();                 // tick 3: thawed
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(net::decode(*b)->msg, 9);
  EXPECT_EQ(pair.stats(sim::Dir::kSenderToReceiver).frozen_polls, 2u);
}

TEST(NetLoopback, CapShedsOverflow) {
  net::LoopbackConfig cfg;
  cfg.plan = fault::plan_from_text("cap @sends 1 dir SR count 2");
  auto pair = net::make_loopback(cfg);
  EXPECT_TRUE(pair.a->send(frame_bytes(1, 1)));
  EXPECT_TRUE(pair.a->send(frame_bytes(1, 2)));
  EXPECT_FALSE(pair.a->send(frame_bytes(1, 3)));  // queue at cap: shed
  EXPECT_EQ(pair.stats(sim::Dir::kSenderToReceiver).shed, 1u);
}

TEST(NetLoopback, MaxQueueBoundSheds) {
  net::LoopbackConfig cfg;
  cfg.max_queue = 1;
  auto pair = net::make_loopback(cfg);
  EXPECT_TRUE(pair.a->send(frame_bytes(1, 1)));
  EXPECT_FALSE(pair.a->send(frame_bytes(1, 2)));
  EXPECT_EQ(pair.stats(sim::Dir::kSenderToReceiver).shed, 1u);
}

TEST(NetLoopback, DupBurstsRespectQueueBounds) {
  {
    // A per-send dup: the copy would be the link's second frame.
    net::LoopbackConfig cfg;
    cfg.max_queue = 1;
    cfg.plan = fault::plan_from_text("dup @sends 1 dir SR count 1");
    auto pair = net::make_loopback(cfg);
    EXPECT_TRUE(pair.a->send(frame_bytes(1, 1)));
    const auto st = pair.stats(sim::Dir::kSenderToReceiver);
    EXPECT_EQ(st.duplicated, 0u);
    EXPECT_EQ(st.shed, 1u);
    std::vector<sim::MsgId> got;
    while (auto b = pair.b->poll()) got.push_back(net::decode(*b)->msg);
    EXPECT_EQ(got, (std::vector<sim::MsgId>{1}));
  }
  {
    // Dup-all of two queued frames under a bound of three: one copy fits,
    // the other is shed, and so is the send that fired the burst.
    net::LoopbackConfig cfg;
    cfg.max_queue = 3;
    cfg.plan = fault::plan_from_text("dup @sends 3 dir SR count 0");
    auto pair = net::make_loopback(cfg);
    EXPECT_TRUE(pair.a->send(frame_bytes(1, 1)));
    EXPECT_TRUE(pair.a->send(frame_bytes(1, 2)));
    EXPECT_FALSE(pair.a->send(frame_bytes(1, 3)));
    const auto st = pair.stats(sim::Dir::kSenderToReceiver);
    EXPECT_EQ(st.duplicated, 1u);
    EXPECT_EQ(st.shed, 2u);
    std::vector<sim::MsgId> got;
    while (auto b = pair.b->poll()) got.push_back(net::decode(*b)->msg);
    EXPECT_EQ(got, (std::vector<sim::MsgId>{1, 2, 1}));
  }
}

TEST(NetLoopback, WaitWakesOnSend) {
  auto pair = net::make_loopback();
  std::atomic<bool> waiting{false};
  std::chrono::steady_clock::duration waited{};
  std::jthread waiter([&] {
    waiting.store(true);
    const auto t0 = std::chrono::steady_clock::now();
    pair.b->wait(5s);
    waited = std::chrono::steady_clock::now() - t0;
  });
  while (!waiting.load()) std::this_thread::yield();
  std::this_thread::sleep_for(20ms);  // let the waiter block
  ASSERT_TRUE(pair.a->send(frame_bytes(1, 7)));
  waiter.join();
  EXPECT_LT(waited, 2500ms);
  const auto b = pair.b->poll();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(net::decode(*b)->msg, 7);
}

TEST(NetLoopback, WaitReturnsAtOnceWithAFrameQueued) {
  auto pair = net::make_loopback();
  ASSERT_TRUE(pair.a->send(frame_bytes(1, 3)));
  const auto t0 = std::chrono::steady_clock::now();
  pair.b->wait(5s);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 2500ms);
  // Only the link that holds the frame is woken; the other one is empty.
  const auto t1 = std::chrono::steady_clock::now();
  pair.a->wait(20ms);
  EXPECT_GE(std::chrono::steady_clock::now() - t1, 20ms);
  const auto b = pair.b->poll();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(net::decode(*b)->msg, 3);
}

TEST(NetLoopback, WaitSleepsItsBoundThroughFreezeAndBlackout) {
  // Only lower bounds: a waiter must not be woken by a frame the next
  // poll cannot deliver, but a slow build may oversleep freely.
  const auto waited_with_send = [](net::LoopbackPair& pair) {
    std::jthread sender([&] {
      std::this_thread::sleep_for(5ms);
      pair.a->send(frame_bytes(1, 2));
    });
    const auto t0 = std::chrono::steady_clock::now();
    pair.b->wait(30ms);
    const auto waited = std::chrono::steady_clock::now() - t0;
    sender.join();
    return waited;
  };
  {
    net::LoopbackConfig cfg;
    cfg.plan = fault::plan_from_text("freeze @step 0 dir SR len 1000");
    auto pair = net::make_loopback(cfg);
    ASSERT_TRUE(pair.a->send(frame_bytes(1, 1)));  // queued, frozen
    EXPECT_GE(waited_with_send(pair), 30ms);
    EXPECT_FALSE(pair.b->poll().has_value());
  }
  {
    net::LoopbackConfig cfg;
    cfg.plan = fault::plan_from_text("blackout @step 0 dir SR len 1000");
    auto pair = net::make_loopback(cfg);
    EXPECT_FALSE(pair.a->send(frame_bytes(1, 1)));  // swallowed
    EXPECT_GE(waited_with_send(pair), 30ms);
    EXPECT_FALSE(pair.b->poll().has_value());
    EXPECT_EQ(pair.stats(sim::Dir::kSenderToReceiver).blacked_out, 2u);
  }
}

TEST(NetLoopback, ReorderDeliversPermutation) {
  net::LoopbackConfig cfg;
  cfg.reorder_window = 4;
  cfg.seed = 42;
  auto pair = net::make_loopback(cfg);
  std::vector<sim::MsgId> sent;
  for (int i = 0; i < 16; ++i) {
    sent.push_back(i);
    pair.a->send(frame_bytes(1, i));
  }
  std::vector<sim::MsgId> got;
  while (auto b = pair.b->poll()) got.push_back(net::decode(*b)->msg);
  ASSERT_EQ(got.size(), sent.size());
  auto sorted = got;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, sent);  // a permutation: nothing lost, nothing invented
  EXPECT_EQ(pair.stats(sim::Dir::kSenderToReceiver).delivered, 16u);
}

TEST(NetFaultPlan, PeriodicPlanShapeAndTextRoundTrip) {
  const auto plan = fault::periodic_plan(fault::FaultKind::kDropBurst,
                                         sim::Dir::kSenderToReceiver,
                                         /*period=*/10, /*count=*/1,
                                         /*horizon=*/35);
  ASSERT_EQ(plan.size(), 3u);
  std::uint64_t at = 10;
  for (const auto& a : plan.actions) {
    EXPECT_EQ(a.kind, fault::FaultKind::kDropBurst);
    EXPECT_EQ(a.trigger.kind, fault::TriggerKind::kSends);
    EXPECT_EQ(a.trigger.at, at);
    EXPECT_EQ(a.dir, sim::Dir::kSenderToReceiver);
    EXPECT_EQ(a.count, 1u);
    at += 10;
  }
  EXPECT_EQ(fault::plan_from_text(fault::to_text(plan)), plan);
}

// --------------------------------------------------------------------------
// Session adapters (engine-free protocol driving)
// --------------------------------------------------------------------------

TEST(NetSessionAdapter, DirectShuttleTransfersAndChecksPrefix) {
  const seq::Sequence x = {3, 1, 4, 1, 5};
  auto pair = proto::make_stenning(kDomain);
  proto::SenderSessionEndpoint snd(std::move(pair.sender), x);
  proto::ReceiverSessionEndpoint rcv(std::move(pair.receiver), x);

  // Hostile ids at the trust boundary are ignored, not asserted on.
  rcv.on_deliver(-5);
  snd.on_deliver(-1);
  EXPECT_TRUE(rcv.safety_ok());

  for (int step = 0; step < 200 && !rcv.done(); ++step) {
    if (const auto m = snd.step()) rcv.on_deliver(*m);
    if (const auto a = rcv.step()) snd.on_deliver(*a);
  }
  ASSERT_TRUE(rcv.done());
  EXPECT_EQ(rcv.output(), x);
  EXPECT_TRUE(rcv.safety_ok());
  EXPECT_EQ(rcv.items_done(), x.size());

  // The sender only finishes on the wire-level receipt notice.
  EXPECT_FALSE(snd.done());
  snd.on_fin();
  EXPECT_TRUE(snd.done());
  EXPECT_EQ(snd.items_done(), x.size());
}

TEST(NetSessionAdapter, ViolationSticksAndSilences) {
  const seq::Sequence expected = {0, 1, 2};
  auto pair = proto::make_stenning(kDomain);
  proto::ReceiverSessionEndpoint rcv(std::move(pair.receiver), expected);
  // Stenning's receiver writes item `m` when the in-order id arrives; feed
  // it a first message that decodes to the wrong item for position 0.
  // Stenning data ids encode (index, item) as id = index * domain + item.
  rcv.on_deliver(5);  // index 0, item 5 != expected 0
  (void)rcv.step();
  EXPECT_FALSE(rcv.safety_ok());
  EXPECT_FALSE(rcv.done());
  // Silenced: further steps produce no output.
  EXPECT_FALSE(rcv.step().has_value());
}

// --------------------------------------------------------------------------
// SessionMux + service façade
// --------------------------------------------------------------------------

struct ServiceRun {
  net::LoopbackPair wire;
  std::unique_ptr<net::StpClient> client;
  std::unique_ptr<net::StpServer> server;
};

ServiceRun make_service(std::size_t n_sessions, net::LoopbackConfig wire_cfg,
                        net::MuxConfig mux_cfg, std::size_t seq_len = 4) {
  ServiceRun run;
  run.wire = net::make_loopback(wire_cfg);
  run.client = std::make_unique<net::StpClient>(run.wire.a.get(), mux_cfg);
  run.server = std::make_unique<net::StpServer>(run.wire.b.get(), mux_cfg);
  for (std::uint32_t id = 0; id < n_sessions; ++id) {
    auto pair = proto::make_stenning(kDomain);
    const auto x = seq_for(id, seq_len);
    run.client->add_session(id, std::move(pair.sender), x);
    run.server->add_session(id, std::move(pair.receiver), x);
  }
  return run;
}

/// How many of `rec`'s recorded events are of `kind` (and, for session
/// states, of state `s`).  Drains the recorder.
std::size_t census(net::FlightRecorder& rec, obs::TraceEventKind kind,
                   net::SessionState s = net::SessionState::kActive) {
  const auto evs = rec.drain();
  return static_cast<std::size_t>(
      std::count_if(evs.begin(), evs.end(), [&](const obs::TraceEvent& ev) {
        return ev.kind == kind &&
               (kind != obs::TraceEventKind::kSessionState ||
                ev.detail == static_cast<std::uint8_t>(s));
      }));
}

void expect_all_completed(const net::SessionMux& mux, std::size_t n,
                          std::size_t seq_len) {
  const auto reports = mux.reports();
  ASSERT_EQ(reports.size(), n);
  for (const auto& r : reports) {
    EXPECT_EQ(r.state, net::SessionState::kCompleted) << "session " << r.id;
    EXPECT_EQ(r.items, seq_len) << "session " << r.id;
  }
}

TEST(NetMux, PerfectLinkSmallRun) {
  net::MuxConfig cfg;
  auto run = make_service(4, {}, cfg);
  ASSERT_TRUE(net::run_service_pair(*run.client, *run.server, 10s));
  expect_all_completed(run.client->mux(), 4, 4);
  expect_all_completed(run.server->mux(), 4, 4);

  const auto cs = run.client->mux().stats();
  const auto ss = run.server->mux().stats();
  EXPECT_GT(cs[MuxCounter::kFramesSent], 0u);
  EXPECT_GT(ss[MuxCounter::kFinsSent], 0u);
  EXPECT_EQ(ss[MuxCounter::kItemsDone], 16u);
  EXPECT_EQ(cs[MuxCounter::kSessionsCompleted], 4u);
  EXPECT_EQ(ss[MuxCounter::kSessionsViolated], 0u);
  EXPECT_EQ(run.client->mux().active_sessions(), 0u);

  // Sender sessions collected ack-RTT samples.
  obs::MetricsRegistry reg;
  run.client->mux().publish_metrics(reg);
  EXPECT_GT(reg.histograms().at("net.ack_rtt_us").count(), 0u);
}

TEST(NetMux, LossyDupReorderRunCompletes) {
  net::LoopbackConfig wire;
  fault::FaultPlan plan = fault::periodic_plan(
      fault::FaultKind::kDropBurst, sim::Dir::kSenderToReceiver, 5, 1, 200000);
  const auto rs_drop = fault::periodic_plan(
      fault::FaultKind::kDropBurst, sim::Dir::kReceiverToSender, 6, 1, 200000);
  const auto sr_dup = fault::periodic_plan(
      fault::FaultKind::kDupBurst, sim::Dir::kSenderToReceiver, 7, 1, 200000);
  plan.actions.insert(plan.actions.end(), rs_drop.actions.begin(),
                      rs_drop.actions.end());
  plan.actions.insert(plan.actions.end(), sr_dup.actions.begin(),
                      sr_dup.actions.end());
  wire.plan = plan;
  wire.reorder_window = 3;
  wire.seed = 7;
  wire.max_queue = 4096;

  net::MuxConfig cfg;
  auto run = make_service(16, wire, cfg);
  ASSERT_TRUE(net::run_service_pair(*run.client, *run.server, 30s));
  expect_all_completed(run.client->mux(), 16, 4);
  expect_all_completed(run.server->mux(), 16, 4);
  EXPECT_GT(run.wire.stats(sim::Dir::kSenderToReceiver).dropped, 0u);
}

TEST(NetMux, RejectsGarbageWrongDirAndUnknownSession) {
  auto wire = net::make_loopback();
  net::MuxConfig cfg;
  net::FlightRecorder recorder;
  cfg.probe = &recorder;
  net::StpServer server(wire.b.get(), cfg);
  auto pair = proto::make_stenning(kDomain);
  server.add_session(7, std::move(pair.receiver), seq_for(7, 3));
  server.mux().start();

  wire.a->send({0x13, 0x37, 0x00});                      // garbage: rejected
  wire.a->send(frame_bytes(99, 0));                      // unknown session
  wire.a->send(frame_bytes(7, 0, sim::Dir::kReceiverToSender));  // wrong dir

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto st = server.mux().stats();
    if (st[MuxCounter::kFramesRejected] >= 2 &&
        st[MuxCounter::kFramesUnknownSession] >= 1) {
      break;
    }
    std::this_thread::sleep_for(1ms);
  }
  server.mux().stop();

  const auto st = server.mux().stats();
  EXPECT_EQ(st[MuxCounter::kFramesRejected], 2u);  // garbage + wrong direction
  EXPECT_EQ(st[MuxCounter::kFramesUnknownSession], 1u);
  EXPECT_EQ(st[MuxCounter::kFramesReceived], 0u);
  EXPECT_EQ(census(recorder, obs::TraceEventKind::kFrameRejected), 2u);
}

TEST(NetMux, StrayControlFramesNeverReachASession) {
  // The pump keeps every kind but data, FIN and probe out of deliver(),
  // where a control frame naming a live session would read as a protocol
  // message.  Kind bytes past kMaxFrameKind (6-8 are unassigned) are
  // rejected at decode, even under a valid checksum.
  auto wire = net::make_loopback();
  net::StpServer server(wire.b.get(), {});
  auto pair = proto::make_stenning(kDomain);
  server.add_session(7, std::move(pair.receiver), seq_for(7, 3));
  server.mux().start();

  for (const auto kind : {net::FrameKind::kProbeAck, net::FrameKind::kJoin,
                          net::FrameKind::kJoinAck}) {
    wire.a->send(frame_bytes(7, 0, sim::Dir::kSenderToReceiver, kind));
  }
  for (const std::uint8_t kind : {6, 7, 8}) {
    auto b = frame_bytes(7, 0);
    b[3] = kind;
    restamp(b);  // the kind byte alone is at fault
    ASSERT_EQ(b.size(), net::kFrameSize);
    wire.a->send(b);
  }

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto st = server.mux().stats();
    if (st[MuxCounter::kFramesUnknownSession] +
            st[MuxCounter::kFramesRejected] >= 6) {
      break;
    }
    std::this_thread::sleep_for(1ms);
  }
  server.mux().stop();

  const auto st = server.mux().stats();
  EXPECT_EQ(st[MuxCounter::kFramesUnknownSession], 3u);
  EXPECT_EQ(st[MuxCounter::kRejectBadKind], 3u);
  EXPECT_EQ(st[MuxCounter::kFramesRejected], 3u);
  EXPECT_EQ(st[MuxCounter::kFramesReceived], 0u);
  const auto reports = server.mux().reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].frames_in, 0u);
  EXPECT_EQ(reports[0].items, 0u);
}

TEST(NetMux, InboxBackpressureSheds) {
  auto wire = net::make_loopback();
  test::DeliveryGate gate;
  net::MuxConfig cfg;
  cfg.workers = 1;  // both sessions share one shard inbox
  cfg.probe = &gate;
  net::StpServer server(wire.b.get(), cfg);
  auto p1 = proto::make_stenning(kDomain);
  auto p2 = proto::make_stenning(kDomain);
  server.add_session(1, std::move(p1.receiver), seq_for(1, 3));
  server.add_session(2, std::move(p2.receiver), seq_for(2, 3));
  // The flood is queued before start(), and the gate holds the worker in
  // the first delivery, so the pump routes it against a kInboxLimit-frame
  // share (64 of 200).  Session 2's two frames follow it: the flood must
  // not take their share.
  for (int i = 0; i < 200; ++i) wire.a->send(frame_bytes(1, 0));
  for (int i = 0; i < 2; ++i) wire.a->send(frame_bytes(2, 0));
  server.mux().start();

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto st = server.mux().stats();
    if (st[MuxCounter::kFramesReceived] + st[MuxCounter::kFramesShed] >= 202) {
      break;
    }
    std::this_thread::sleep_for(1ms);
  }
  gate.open();
  server.mux().stop();
  const std::uint64_t shed = server.mux().stats()[MuxCounter::kFramesShed];
  EXPECT_GT(shed, 0u);
  const auto reports = server.mux().reports();
  ASSERT_EQ(reports.size(), 2u);
  ASSERT_EQ(reports[0].id, 1u);
  ASSERT_EQ(reports[1].id, 2u);
  EXPECT_EQ(reports[1].frames_in, 2u);
  EXPECT_EQ(reports[0].frames_in + shed, 200u);
}

TEST(NetMux, IdleSessionsAreEvicted) {
  auto wire = net::make_loopback();
  net::MuxConfig cfg;
  cfg.idle_eviction = 3ms;
  net::FlightRecorder recorder;
  cfg.probe = &recorder;
  net::StpServer server(wire.b.get(), cfg);  // no client: a dead peer
  auto pair = proto::make_stenning(kDomain);
  server.add_session(1, std::move(pair.receiver), seq_for(1, 3));
  server.mux().start();
  EXPECT_TRUE(server.mux().drain(5s));
  server.mux().stop();

  const auto reports = server.mux().reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].state, net::SessionState::kEvicted);
  EXPECT_EQ(server.mux().stats()[MuxCounter::kSessionsEvicted], 1u);
  EXPECT_EQ(census(recorder, obs::TraceEventKind::kSessionState,
                   net::SessionState::kEvicted),
            1u);
}

// The wire cost of the event-driven core: a session steps when a frame
// arrives or its own deadline fires, so stop-and-wait spends one data
// frame and one ack per item, and a session without a peer stays quiet.

TEST(NetMux, LosslessStenningPairSpendsAtMostTwoFramesPerItem) {
  constexpr std::size_t kItems = 64;
  // One data frame and one ack per item, plus the receiver's greeting ack
  // and its FIN.  A thread stalled past the retransmit timeout adds a
  // spurious retransmission, which costs a data frame and a duplicate
  // ack: a few on a loaded build, up to one per two items under a
  // sanitizer.  The best of three runs is judged, so a passing stall
  // does not fail the test and a standing regression does.  Per-sweep
  // resends cost about six frames per item.
  constexpr std::uint64_t kSpurious = kSanitized ? kItems / 2 : 4;
  constexpr std::uint64_t kBound = 2 * kItems + 2 + 2 * kSpurious;
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (int attempt = 0; attempt < 3 && best > kBound; ++attempt) {
    auto run = make_service(1, {}, {}, kItems);
    ASSERT_TRUE(net::run_service_pair(*run.client, *run.server, 20s));
    expect_all_completed(run.client->mux(), 1, kItems);
    expect_all_completed(run.server->mux(), 1, kItems);
    best = std::min<std::uint64_t>(
        best, run.client->mux().stats()[MuxCounter::kFramesSent] +
                  run.server->mux().stats()[MuxCounter::kFramesSent]);
  }
  EXPECT_LE(best, kBound);
}

TEST(NetMux, ReceiverWithoutPeerStaysQuiet) {
  auto wire = net::make_loopback();
  net::StpServer server(wire.b.get(), {});  // no client ever connects
  auto pair = proto::make_stenning(kDomain);
  server.add_session(1, std::move(pair.receiver), seq_for(1, 3));
  server.mux().start();
  std::this_thread::sleep_for(100ms);
  server.mux().stop();
  // One greeting ack; a receiver keeps no timer of its own.
  EXPECT_GE(server.mux().stats()[MuxCounter::kFramesSent], 1u);
  EXPECT_LT(server.mux().stats()[MuxCounter::kFramesSent], 20u);
}

// --------------------------------------------------------------------------
// RttEstimator: Karn samples, RFC 6298 timeout, backoff (injected time)
// --------------------------------------------------------------------------

using Rtt = net::RttEstimator;

TEST(RttEstimator, RetransmittedSendGivesNoSample) {
  const Rtt::time_point t0{};
  Rtt est;
  est.on_send(t0);
  est.on_timeout();
  est.on_send(t0 + 1ms);  // the retransmission
  const auto h = est.on_receive(t0 + 1200us);
  EXPECT_FALSE(h.sample.has_value());  // which send did it answer?
  EXPECT_FALSE(est.srtt().has_value());
  EXPECT_EQ(est.rto(), Rtt::kInitialRto);
}

TEST(RttEstimator, LostFrameDoesNotShiftLaterSamples) {
  const Rtt::time_point t0{};
  Rtt est;
  est.on_send(t0);
  ASSERT_EQ(est.on_receive(t0 + 300us).sample, 300us);
  // A frame is lost and retransmitted: that exchange yields nothing ...
  est.on_send(t0 + 1ms);
  est.on_timeout();
  est.on_send(t0 + 2ms);
  EXPECT_FALSE(est.on_receive(t0 + 2300us).sample.has_value());
  // ... a duplicate answer with nothing outstanding yields nothing ...
  EXPECT_FALSE(est.on_receive(t0 + 2400us).sample.has_value());
  // ... and the next clean exchange is timed from its own send.
  est.on_send(t0 + 3ms);
  EXPECT_EQ(est.on_receive(t0 + 3300us).sample, 300us);
  EXPECT_EQ(est.srtt(), 300us);
}

TEST(RttEstimator, RtoStaysBetweenFloorAndCap) {
  const Rtt::time_point t0{};
  Rtt fast;
  for (int i = 0; i < 32; ++i) {
    const auto t = t0 + std::chrono::milliseconds(i);
    fast.on_send(t);
    fast.on_receive(t + 10us);
  }
  EXPECT_EQ(fast.rto(), Rtt::kMinRto);
  Rtt slow;
  slow.on_send(t0);
  slow.on_receive(t0 + 10s);
  EXPECT_EQ(slow.rto(), Rtt::kMaxRto);
  for (int i = 0; i < 64; ++i) fast.on_timeout();
  EXPECT_EQ(fast.rto(), Rtt::kMaxRto);
}

TEST(RttEstimator, BackoffDoublesAfterTheFreeRetriesAndHoldsUntilCleanSample) {
  const Rtt::time_point t0{};
  Rtt est;
  est.on_send(t0);
  est.on_receive(t0 + 400us);  // srtt 400, rttvar 200
  const auto base = 400us + Rtt::kRttvarWeight * 200us;
  ASSERT_EQ(est.rto(), base);
  // Losses answered after one retransmission each: every timeout counts,
  // and the answers are ambiguous, so none releases the count.
  auto t = t0 + 1ms;
  for (std::uint32_t i = 0; i < Rtt::kFreeRetries; ++i) {
    est.on_send(t);
    est.on_timeout();
    EXPECT_EQ(est.rto(), base) << "free retry " << i;
    est.on_send(t + 500us);
    EXPECT_FALSE(est.on_receive(t + 900us).peer_returned);
    t += 1ms;
  }
  // The next timeout doubles ...
  est.on_send(t);
  est.on_timeout();
  EXPECT_EQ(est.rto(), 2 * base);
  est.on_send(t + 500us);
  // ... and an ambiguous answer does not release the backoff.
  EXPECT_FALSE(est.on_receive(t + 900us).sample.has_value());
  EXPECT_EQ(est.rto(), 2 * base);
  EXPECT_EQ(est.backoff(), 1u);
  // A clean exchange does.
  est.on_send(t + 2ms);
  EXPECT_EQ(est.on_receive(t + 2400us).sample, 400us);
  EXPECT_EQ(est.backoff(), 0u);
  EXPECT_LT(est.rto(), 2 * base);
}

TEST(RttEstimator, BackoffCollapsesWhenASilentPeerSpeaksAgain) {
  const Rtt::time_point t0{};
  Rtt est;
  est.on_send(t0);
  est.on_receive(t0 + 400us);
  const auto base = est.rto();
  est.on_send(t0 + 1ms);
  for (std::uint32_t i = 0; i < Rtt::kPeerGoneTimeouts + 3; ++i) {
    est.on_timeout();
    est.on_send(t0 + std::chrono::milliseconds(2 + i));
  }
  EXPECT_GT(est.rto(), base);
  const auto h = est.on_receive(t0 + 20ms);  // e.g. a restarted server
  EXPECT_FALSE(h.sample.has_value());
  EXPECT_TRUE(h.peer_returned);
  EXPECT_EQ(est.backoff(), 0u);
  EXPECT_EQ(est.rto(), base);
}

TEST(NetMux, PublishMetricsWhileLiveIsAContractError) {
  auto wire = net::make_loopback();
  net::SessionMux mux(wire.b.get(), {});
  auto pair = proto::make_stenning(kDomain);
  mux.add_session(5,
                  std::make_unique<proto::ReceiverSessionEndpoint>(
                      std::move(pair.receiver), seq_for(5, 2)),
                  false);
  obs::MetricsRegistry before;
  mux.publish_metrics(before);
  mux.start();
  obs::MetricsRegistry live;
  EXPECT_THROW(mux.publish_metrics(live), ContractError);
  mux.stop();
  obs::MetricsRegistry after;
  mux.publish_metrics(after);
  EXPECT_EQ(after.histograms().count("net.ack_rtt_us"), 1u);
}

TEST(NetMux, DuplicateSessionIdIsAContractError) {
  auto wire = net::make_loopback();
  net::SessionMux mux(wire.b.get(), {});
  auto p1 = proto::make_stenning(kDomain);
  auto p2 = proto::make_stenning(kDomain);
  mux.add_session(5,
                  std::make_unique<proto::ReceiverSessionEndpoint>(
                      std::move(p1.receiver), seq_for(5, 2)),
                  false);
  EXPECT_THROW(mux.add_session(5,
                               std::make_unique<proto::ReceiverSessionEndpoint>(
                                   std::move(p2.receiver), seq_for(5, 2)),
                               false),
               ContractError);
}

TEST(NetMux, PublishesMetrics) {
  net::MuxConfig cfg;
  auto run = make_service(3, {}, cfg);
  ASSERT_TRUE(net::run_service_pair(*run.client, *run.server, 10s));

  obs::MetricsRegistry reg;
  run.server->mux().publish_metrics(reg);
  EXPECT_GT(reg.counter_value("net.frames.sent"), 0u);
  EXPECT_GT(reg.counter_value("net.frames.received"), 0u);
  EXPECT_GT(reg.counter_value("net.fins.sent"), 0u);
  EXPECT_EQ(reg.counter_value("net.items.done"), 12u);
  EXPECT_EQ(reg.counter_value("net.verdict.completed"), 3u);
  EXPECT_EQ(reg.counter_value("net.verdict.safety-violation"), 0u);
  ASSERT_EQ(reg.gauges().count("net.sessions.active"), 1u);
  EXPECT_EQ(reg.gauges().at("net.sessions.active").value(), 0);

  obs::MetricsRegistry creg;
  run.client->mux().publish_metrics(creg);
  ASSERT_EQ(creg.histograms().count("net.ack_rtt_us"), 1u);
  EXPECT_GT(creg.histograms().at("net.ack_rtt_us").count(), 0u);
}

// --------------------------------------------------------------------------
// Acceptance: >= 1000 concurrent sessions over a lossy, reordering link.
// --------------------------------------------------------------------------

/// Attests prefix safety *at all times*: item events (session, i) must
/// arrive in exactly ascending order per session (the adapter has already
/// equality-checked the written item against expected[i]).
class PrefixOrderProbe final : public obs::IProbe {
 public:
  explicit PrefixOrderProbe(std::size_t max_sessions)
      : next_(max_sessions) {
    for (auto& a : next_) a.store(0, std::memory_order_relaxed);
  }

  void record(const obs::TraceEvent& ev) override {
    if (ev.kind == obs::TraceEventKind::kItem) {
      ++items_;
      const std::size_t want =
          next_[ev.session].fetch_add(1, std::memory_order_relaxed);
      if (static_cast<std::size_t>(ev.msg) != want) out_of_order_ = true;
    } else if (ev.kind == obs::TraceEventKind::kSessionState &&
               static_cast<net::SessionState>(ev.detail) ==
                   net::SessionState::kSafetyViolation) {
      ++violations_;
    }
  }

  std::uint64_t items() const { return items_; }
  std::uint64_t violations() const { return violations_; }
  bool out_of_order() const { return out_of_order_; }

 private:
  std::vector<std::atomic<std::size_t>> next_;
  std::atomic<std::uint64_t> items_{0};
  std::atomic<std::uint64_t> violations_{0};
  std::atomic<bool> out_of_order_{false};
};

TEST(NetMuxAcceptance, ThousandSessionsOverLossyReorderingLink) {
  constexpr std::size_t kSessions = 1000;
  constexpr std::size_t kLen = 3;

  net::LoopbackConfig wire;
  fault::FaultPlan plan = fault::periodic_plan(
      fault::FaultKind::kDropBurst, sim::Dir::kSenderToReceiver, 9, 1,
      500'000);
  const auto rs = fault::periodic_plan(fault::FaultKind::kDropBurst,
                                       sim::Dir::kReceiverToSender, 11, 1,
                                       500'000);
  plan.actions.insert(plan.actions.end(), rs.actions.begin(),
                      rs.actions.end());
  wire.plan = plan;
  wire.reorder_window = 4;
  wire.seed = 0xACCE55;
  wire.max_queue = 16384;  // bounded channel: overflow is just more loss

  PrefixOrderProbe probe(kSessions);
  net::MuxConfig cfg;
  cfg.workers = 2;

  net::MuxConfig server_cfg = cfg;
  server_cfg.probe = &probe;

  auto runp = net::make_loopback(wire);
  net::StpClient client(runp.a.get(), cfg);
  net::StpServer server(runp.b.get(), server_cfg);
  for (std::uint32_t id = 0; id < kSessions; ++id) {
    auto pair = proto::make_stenning(kDomain);
    const auto x = seq_for(id, kLen);
    client.add_session(id, std::move(pair.sender), x);
    server.add_session(id, std::move(pair.receiver), x);
  }

  ASSERT_TRUE(net::run_service_pair(client, server, 120s));

  // Every session on both ends completed; no violations, no evictions.
  const auto ss = server.mux().stats();
  const auto cs = client.mux().stats();
  EXPECT_EQ(ss[MuxCounter::kSessionsCompleted], kSessions);
  EXPECT_EQ(cs[MuxCounter::kSessionsCompleted], kSessions);
  EXPECT_EQ(ss[MuxCounter::kSessionsViolated], 0u);
  EXPECT_EQ(ss[MuxCounter::kSessionsEvicted], 0u);

  // Exact copy: each receiver's tape equals its expected sequence (the
  // adapter equality-checks every write; items == len at completion).
  expect_all_completed(server.mux(), kSessions, kLen);
  expect_all_completed(client.mux(), kSessions, kLen);

  // Prefix safety held at every write, not just at the end.
  EXPECT_FALSE(probe.out_of_order());
  EXPECT_EQ(probe.violations(), 0u);
  EXPECT_EQ(probe.items(), kSessions * kLen);
  EXPECT_EQ(ss[MuxCounter::kItemsDone], kSessions * kLen);

  // The link really was hostile.
  EXPECT_GT(runp.stats(sim::Dir::kSenderToReceiver).dropped, 0u);
  EXPECT_GT(runp.stats(sim::Dir::kReceiverToSender).dropped, 0u);
}

// --------------------------------------------------------------------------
// Fabric heartbeat: the pump answers kProbe with an echoed kProbeAck
// --------------------------------------------------------------------------

TEST(NetMux, PumpAnswersProbesWithEchoedNonce) {
  auto link = net::make_loopback({});
  net::FlightRecorder recorder;
  net::MuxConfig cfg;
  cfg.probe = &recorder;
  net::StpServer server(link.b.get(), cfg);
  auto pp = proto::make_stenning(kDomain);
  server.add_session(1, std::move(pp.receiver), seq_for(1, 2));
  server.mux().start();

  // A router's heartbeat: kProbe on the reserved fabric session, nonce in
  // msg.  The pump must answer with kProbeAck, flipped direction, nonce
  // echoed — without disturbing any session.
  for (const sim::MsgId nonce : {sim::MsgId{7}, sim::MsgId{-3}}) {
    ASSERT_TRUE(link.a->send(frame_bytes(net::kFabricSession, nonce,
                                         sim::Dir::kSenderToReceiver,
                                         net::FrameKind::kProbe)));
    std::optional<net::Frame> ack;
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (!ack && std::chrono::steady_clock::now() < deadline) {
      if (auto bytes = link.a->poll()) {
        auto f = net::decode(*bytes);
        ASSERT_TRUE(f.has_value());
        if (f->kind == net::FrameKind::kProbeAck) ack = f;
        // Session traffic (acks/keepalives) may interleave; skip it.
      } else {
        std::this_thread::sleep_for(1ms);
      }
    }
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->session, net::kFabricSession);
    EXPECT_EQ(ack->msg, nonce);
    EXPECT_EQ(ack->dir, sim::Dir::kReceiverToSender);
  }
  server.mux().stop();
  EXPECT_GE(server.mux().stats()[MuxCounter::kProbesAnswered], 2u);
  EXPECT_GE(census(recorder, obs::TraceEventKind::kProbeAnswered), 2u);
  // The heartbeat never touched the hosted session.
  EXPECT_EQ(server.mux().stats()[MuxCounter::kSessionsViolated], 0u);
}

// --------------------------------------------------------------------------
// UDP transport (skipped where the sandbox forbids sockets)
// --------------------------------------------------------------------------

TEST(NetUdp, PairRoundTripsFrames) {
  if (!net::udp_supported()) GTEST_SKIP() << "UDP not compiled in";
  auto pair = net::make_udp_pair();
  if (!pair) GTEST_SKIP() << "environment forbids UDP sockets";

  const auto out = frame_bytes(11, 42);
  ASSERT_TRUE(pair->a->send(out));
  std::optional<std::vector<std::uint8_t>> in;
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!in && std::chrono::steady_clock::now() < deadline) {
    in = pair->b->poll();
    if (!in) std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(in.has_value());
  const auto f = net::decode(*in);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->session, 11u);
  EXPECT_EQ(f->msg, 42);

  // And the reverse direction.
  ASSERT_TRUE(pair->b->send(frame_bytes(11, 43, sim::Dir::kReceiverToSender)));
  std::optional<std::vector<std::uint8_t>> back;
  const auto deadline2 = std::chrono::steady_clock::now() + 2s;
  while (!back && std::chrono::steady_clock::now() < deadline2) {
    back = pair->a->poll();
    if (!back) std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(net::decode(*back)->msg, 43);
}

TEST(NetUdp, SmallServiceRunOverRealSockets) {
  if (!net::udp_supported()) GTEST_SKIP() << "UDP not compiled in";
  auto pair = net::make_udp_pair();
  if (!pair) GTEST_SKIP() << "environment forbids UDP sockets";

  net::MuxConfig cfg;
  net::StpClient client(pair->a.get(), cfg);
  net::StpServer server(pair->b.get(), cfg);
  for (std::uint32_t id = 0; id < 2; ++id) {
    auto proto_pair = proto::make_stenning(kDomain);
    const auto x = seq_for(id, 3);
    client.add_session(id, std::move(proto_pair.sender), x);
    server.add_session(id, std::move(proto_pair.receiver), x);
  }
  ASSERT_TRUE(net::run_service_pair(client, server, 20s));
  expect_all_completed(server.mux(), 2, 3);
  expect_all_completed(client.mux(), 2, 3);
}

TEST(NetUdp, TransientSendErrorsCountAsWireLossNotSheds) {
  if (!net::udp_supported()) GTEST_SKIP() << "UDP not compiled in";
  // Learn an ephemeral port the kernel just handed out, then close it so
  // nobody listens there; sends to it draw ECONNREFUSED on a connected
  // socket — wire loss, not a hard error.
  std::uint16_t dead_port = 0;
  {
    auto probe_pair = net::make_udp_pair();
    if (!probe_pair) GTEST_SKIP() << "environment forbids UDP sockets";
    dead_port = probe_pair->b->local_port();
  }
  ASSERT_NE(dead_port, 0);
  auto t = net::make_udp_connected(dead_port);
  if (!t) GTEST_SKIP() << "environment forbids UDP sockets";

  // The kernel echoes the refusal on the NEXT send or on recv, depending
  // on timing; either way it must be counted as transient wire loss —
  // send() keeps reporting frames accepted and nothing lands in
  // send_sheds.  Some sandboxes suppress the refusal echo entirely; skip
  // there, the invariant under test never gets exercised.
  const auto out = frame_bytes(5, 1);
  std::size_t sends = 0;
  std::size_t accepted = 0;
  auto refusals = [&] {
    const auto st = (*t)->stats();
    return st.send_transient_drops + st.recv_transient_errors;
  };
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (refusals() == 0 && std::chrono::steady_clock::now() < deadline) {
    ++sends;
    if ((*t)->send(out)) ++accepted;
    (*t)->poll();
    std::this_thread::sleep_for(1ms);
  }
  if (refusals() == 0) {
    GTEST_SKIP() << "environment never echoes ECONNREFUSED for dead ports";
  }
  const auto st = (*t)->stats();
  EXPECT_GE(st.send_transient_drops + st.recv_transient_errors, 1u);
  EXPECT_EQ(st.send_sheds, 0u);
  EXPECT_EQ(accepted, sends);  // every send still reported accepted
}

TEST(NetUdp, WaitWakesOnDatagram) {
  if (!net::udp_supported()) GTEST_SKIP() << "UDP not compiled in";
  auto pair = net::make_udp_pair();
  if (!pair) GTEST_SKIP() << "environment forbids UDP sockets";

  std::atomic<bool> waiting{false};
  std::chrono::steady_clock::duration waited{};
  std::jthread waiter([&] {
    waiting.store(true);
    const auto t0 = std::chrono::steady_clock::now();
    pair->b->wait(5s);
    waited = std::chrono::steady_clock::now() - t0;
  });
  while (!waiting.load()) std::this_thread::yield();
  std::this_thread::sleep_for(20ms);  // let the waiter block
  ASSERT_TRUE(pair->a->send(frame_bytes(4, 21)));
  waiter.join();
  EXPECT_LT(waited, 2500ms);
  const auto in = pair->b->poll();
  ASSERT_TRUE(in.has_value());
  EXPECT_EQ(net::decode(*in)->msg, 21);
}

TEST(NetUdp, RendezvousHandshakeConnectsAPeer) {
  if (!net::udp_supported()) GTEST_SKIP() << "UDP not compiled in";
  auto rv = net::make_udp_rendezvous();
  if (!rv) GTEST_SKIP() << "environment forbids UDP sockets";
  auto dialer = net::make_udp_connected((*rv)->port());
  ASSERT_TRUE(dialer.has_value());
  // The hello is consumed by accept_peer; send a frame we can lose.
  ASSERT_TRUE((*dialer)->send(frame_bytes(1, 0)));
  auto accepted = (*rv)->accept_peer(2s);
  ASSERT_NE(accepted, nullptr);

  // After the handshake both ends are ordinary connected transports.
  // accept_peer answers the hello with a confirm (a stray kProbeAck on
  // the reserved fabric session, there for the retrying dialer) — a
  // plain dialer drops it like every other consumer.
  ASSERT_TRUE(accepted->send(frame_bytes(9, 77, sim::Dir::kReceiverToSender)));
  std::optional<std::vector<std::uint8_t>> in;
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (std::chrono::steady_clock::now() < deadline) {
    in = (*dialer)->poll();
    if (!in) {
      std::this_thread::sleep_for(1ms);
      continue;
    }
    const auto g = net::decode(*in);
    if (g && g->session == net::kFabricSession) {
      in.reset();  // the rendezvous confirm; not the frame under test
      continue;
    }
    break;
  }
  ASSERT_TRUE(in.has_value());
  const auto f = net::decode(*in);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->session, 9u);
  EXPECT_EQ(f->msg, 77);
}

}  // namespace
}  // namespace stpx

// Service-fabric conformance suite (ctest -L fabric_smoke):
//
//   * MembershipTable — assignment, sticky death, re-home bookkeeping,
//     least-loaded survivor election;
//   * HealthMonitor — the injected-time probe FSM: ack cycle, timeout
//     strikes with exponential backoff, death after the strike budget,
//     sticky death, late/stray acks, the maintenance pause;
//   * Fabric — clean multi-backend runs (probes answered, sessions
//     sharded and completed), crash re-homing onto a survivor with
//     manifest provenance, probe-blackout false suspicion (short:
//     converges back to alive; long: fenced and re-homed, still exact
//     copy), router-split healing;
//   * merge_backend_traces — epoch rebasing and stable ordering;
//   * the fabric soak harness — scripted crash plans, sampled sweeps,
//     1-minimal plan shrinking, and the 256-session / 3-backend
//     acceptance run with trace-derived prefix attestation matching the
//     live verdicts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fabric/fabric.hpp"
#include "net/flight_recorder.hpp"
#include "net/service.hpp"
#include "proto/suite.hpp"
#include "store/session_log.hpp"
#include "store/stable_store.hpp"
#include "stp/fabric_soak.hpp"
#include "stp/last_item_gate.hpp"
#include "util/sanitized.hpp"

namespace stpx {
namespace {

using namespace std::chrono_literals;
using net::MuxCounter;

constexpr int kDomain = 8;

// The full-width acceptance gate is an uninstrumented-build claim;
// instrumented builds run the same crash/re-home shape at reduced width
// (enough sessions that every backend still owns a share both before and
// after the re-home).
constexpr std::size_t kAcceptanceSessions = kSanitized ? 48 : 256;

seq::Sequence seq_for(std::uint32_t id, std::size_t len) {
  seq::Sequence x;
  x.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    x.push_back(static_cast<seq::DataItem>((id + i) % kDomain));
  }
  return x;
}

net::StpServer::ReceiverFactory stenning_factory() {
  return [](std::uint32_t, std::uint64_t tag)
             -> std::unique_ptr<sim::IReceiver> {
    if (tag != 0 && tag != store::proto_tag_of("stenning-receiver")) {
      return nullptr;
    }
    return proto::make_stenning(kDomain).receiver;
  };
}

/// Health tuned so only a genuinely dead backend is ever declared dead
/// (three strikes at 215, 430 and 860ms need ~1.5s of unbroken silence —
/// scheduler jitter cannot fake that).
fabric::HealthConfig lenient_health() {
  fabric::HealthConfig h;
  h.probe_interval = 2ms;
  h.probe_timeout = 215ms;
  return h;
}

/// Health tuned for fast detection (~35ms of silence) — crash drills.
/// Instrumented builds widen the ladder (~700ms to a verdict): a
/// sanitizer scheduler can starve a healthy backend's threads past the
/// fast ladder, and a false verdict on ALL backends wedges the fleet
/// (death is sticky; no survivor means no re-home).
fabric::HealthConfig aggressive_health() {
  fabric::HealthConfig h;
  h.probe_interval = kSanitized ? 5ms : 1ms;
  h.probe_timeout = kSanitized ? 100ms : 5ms;
  return h;
}

net::MuxConfig fabric_mux() {
  net::MuxConfig m;
  m.workers = 2;
  return m;
}

/// An in-process fabric + client, one MemStore and FlightRecorder per
/// backend.  Declaration order doubles as teardown order: the client
/// dies before the fabric that owns its transport.
struct FabricRig {
  std::vector<std::unique_ptr<store::MemStore>> stores;
  std::vector<std::unique_ptr<net::FlightRecorder>> recorders;
  std::unique_ptr<fabric::Fabric> fab;
  std::unique_ptr<stp::LastItemGate> gate;
  std::unique_ptr<net::StpClient> client;
  std::size_t sessions = 0;
  std::size_t len = 0;
  /// Nonzero: the next receiver the fabric builds first crashes this
  /// backend — a death timed into the middle of a supervisor absorb.
  std::atomic<std::uint32_t> kill_in_next_absorb{0};

  /// `hold_until_kill`: every client session withholds its last item
  /// until kill_backend(), so the kill lands on live sessions however
  /// fast they run.
  void build(std::size_t backends, std::size_t nsessions, std::size_t slen,
             fabric::HealthConfig health, net::MuxConfig mux,
             bool hold_until_kill = false) {
    sessions = nsessions;
    len = slen;
    gate = std::make_unique<stp::LastItemGate>(!hold_until_kill);
    for (std::size_t i = 0; i < backends; ++i) {
      stores.push_back(std::make_unique<store::MemStore>());
      stores.back()->reset();
      net::FlightRecorderConfig rc;
      rc.backend_id = static_cast<std::uint32_t>(i + 1);
      recorders.push_back(std::make_unique<net::FlightRecorder>(rc));
    }
    fabric::FabricConfig fc;
    fc.backends = backends;
    fc.health = health;
    fc.mux = mux;
    fc.make_receiver = [this](std::uint32_t sid, std::uint64_t tag) {
      if (const std::uint32_t id = kill_in_next_absorb.exchange(0)) {
        fab->kill_backend(id);
      }
      return stenning_factory()(sid, tag);
    };
    fc.expected_for = [slen](std::uint32_t sid) {
      return seq_for(sid, slen);
    };
    fc.stores_for = [this](std::uint32_t id) {
      return std::vector<store::IStableStore*>{stores[id - 1].get()};
    };
    fc.probe_for = [this](std::uint32_t id) -> obs::IProbe* {
      return recorders[id - 1].get();
    };
    fab = std::make_unique<fabric::Fabric>(fc);
    net::MuxConfig cc = mux;
    cc.session_stores.clear();
    cc.probe = nullptr;
    client = std::make_unique<net::StpClient>(fab->client_endpoint(), cc);
    for (std::size_t i = 0; i < nsessions; ++i) {
      const std::uint32_t sid = static_cast<std::uint32_t>(i + 1);
      const auto x = seq_for(sid, slen);
      fab->add_session(sid);
      client->add_session(
          sid,
          gate->wrap(proto::make_stenning(kDomain, true).sender,
                     static_cast<sim::MsgId>(slen - 1) * kDomain + x.back()),
          x);
    }
  }

  /// Crash backend `id` and release the held last items.
  std::size_t kill_backend(std::uint32_t id) {
    const std::size_t active = fab->kill_backend(id);
    gate->open();
    return active;
  }

  void start() {
    fab->start();
    client->mux().start();
  }

  /// Block until backend `id` has written `items` items in all (read from
  /// its recorder, which outlives its generations), so a fault scripted
  /// after it lands mid-traffic however fast the run is.
  bool wait_items(std::uint32_t id, std::uint64_t items,
                  std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (recorders[id - 1]->items() < items) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(50us);
    }
    return true;
  }

  bool finish(std::chrono::milliseconds timeout) {
    gate->open();
    const bool ok =
        client->mux().drain(timeout) && fab->drain(timeout);
    client->mux().stop();
    fab->stop();
    return ok;
  }

  void expect_client_all_completed() const {
    EXPECT_EQ(client->mux().stats()[MuxCounter::kSessionsCompleted], sessions);
    for (const auto& r : client->mux().reports()) {
      EXPECT_EQ(r.state, net::SessionState::kCompleted)
          << "session " << r.id;
      EXPECT_EQ(r.items, len) << "session " << r.id;
    }
  }

  analysis::TraceReport attest() {
    std::vector<fabric::TracePart> parts;
    for (auto& rec : recorders) {
      parts.push_back({rec->epoch_offset_us(), rec->drain()});
    }
    analysis::TraceContext ctx;
    for (std::size_t i = 0; i < sessions; ++i) {
      ctx.expected_items[static_cast<std::uint32_t>(i + 1)] = len;
    }
    analysis::TracePipeline pipe;
    pipe.add(analysis::make_prefix_attestor());
    return pipe.run(fabric::merge_backend_traces(parts), ctx);
  }
};

// --------------------------------------------------------------------------
// MembershipTable
// --------------------------------------------------------------------------

TEST(Membership, AssignOwnerAndHealthBookkeeping) {
  fabric::MembershipTable t;
  t.add_backend(1);
  t.add_backend(2);
  t.add_backend(2);  // idempotent
  EXPECT_EQ(t.backends().size(), 2u);
  EXPECT_FALSE(t.owner(7).has_value());
  t.assign(7, 1);
  EXPECT_EQ(t.owner(7), 1u);
  t.assign(7, 2);  // reassignment
  EXPECT_EQ(t.owner(7), 2u);
  EXPECT_EQ(t.health(1), fabric::BackendHealth::kAlive);
  // Unknown backends read as dead — never routable.
  EXPECT_EQ(t.health(99), fabric::BackendHealth::kDead);
  t.set_health(1, fabric::BackendHealth::kSuspect);
  EXPECT_EQ(t.health(1), fabric::BackendHealth::kSuspect);
  t.set_health(1, fabric::BackendHealth::kAlive);
  EXPECT_EQ(t.health(1), fabric::BackendHealth::kAlive);
  // Death is sticky.
  t.set_health(1, fabric::BackendHealth::kDead);
  t.set_health(1, fabric::BackendHealth::kAlive);
  EXPECT_EQ(t.health(1), fabric::BackendHealth::kDead);
}

TEST(Membership, RehomeMovesEverySessionAndMarksDead) {
  fabric::MembershipTable t;
  t.add_backend(1);
  t.add_backend(2);
  for (std::uint32_t s = 1; s <= 6; ++s) t.assign(s, s % 2 ? 1 : 2);
  const auto moved = t.rehome(1, 2);
  EXPECT_EQ(moved, (std::vector<std::uint32_t>{1, 3, 5}));
  EXPECT_EQ(t.health(1), fabric::BackendHealth::kDead);
  for (std::uint32_t s = 1; s <= 6; ++s) EXPECT_EQ(t.owner(s), 2u);
  EXPECT_TRUE(t.sessions_of(1).empty());
  EXPECT_EQ(t.sessions_of(2).size(), 6u);
}

TEST(Membership, PickSurvivorPrefersLeastLoadedAliveBackend) {
  fabric::MembershipTable t;
  t.add_backend(1);
  t.add_backend(2);
  t.add_backend(3);
  t.assign(10, 2);
  t.assign(11, 2);
  t.assign(12, 3);
  EXPECT_EQ(t.pick_survivor(1), 3u);  // 3 carries less than 2
  t.set_health(3, fabric::BackendHealth::kDead);
  EXPECT_EQ(t.pick_survivor(1), 2u);
  t.set_health(2, fabric::BackendHealth::kDead);
  EXPECT_FALSE(t.pick_survivor(1).has_value());
  // Ties break toward the lowest id.
  fabric::MembershipTable u;
  u.add_backend(4);
  u.add_backend(5);
  EXPECT_EQ(u.pick_survivor(99), 4u);
}

TEST(Membership, PickSurvivorFallsBackToTheLeastLoadedSuspect) {
  // A suspect has missed a probe, not the strike budget: with no alive
  // backend left it still takes the re-home, rather than no one.
  fabric::MembershipTable t;
  for (std::uint32_t b = 1; b <= 4; ++b) t.add_backend(b);
  t.assign(10, 2);
  t.set_health(2, fabric::BackendHealth::kSuspect);
  t.set_health(3, fabric::BackendHealth::kSuspect);
  EXPECT_EQ(t.pick_survivor(1), 4u);  // alive beats a less loaded suspect
  t.set_health(4, fabric::BackendHealth::kDead);
  EXPECT_EQ(t.pick_survivor(1), 3u);  // the less loaded suspect
  t.set_health(3, fabric::BackendHealth::kDead);
  t.set_health(2, fabric::BackendHealth::kDead);
  EXPECT_FALSE(t.pick_survivor(1).has_value());
}

// --------------------------------------------------------------------------
// HealthMonitor (injected time: fully deterministic)
// --------------------------------------------------------------------------

using TP = fabric::HealthMonitor::time_point;

fabric::HealthConfig unit_health() {
  fabric::HealthConfig h;
  h.probe_interval = std::chrono::microseconds(1000);
  h.probe_timeout = std::chrono::microseconds(5000);
  return h;
}

TEST(Health, ProbeAckCycle) {
  fabric::HealthMonitor hm(unit_health());
  TP t{};
  hm.add_backend(1, t);
  const auto n1 = hm.next_probe(1, t);
  ASSERT_TRUE(n1.has_value());
  // Outstanding: no second probe, regardless of elapsed interval.
  EXPECT_FALSE(hm.next_probe(1, t + std::chrono::microseconds(2000)));
  hm.on_ack(1, *n1, t + std::chrono::microseconds(500));
  EXPECT_EQ(hm.health(1, t + std::chrono::microseconds(500)),
            fabric::BackendHealth::kAlive);
  EXPECT_EQ(hm.strikes(1), 0u);
  // Next probe only after the interval.
  EXPECT_FALSE(hm.next_probe(1, t + std::chrono::microseconds(600)));
  const auto n2 = hm.next_probe(1, t + std::chrono::microseconds(1600));
  ASSERT_TRUE(n2.has_value());
  EXPECT_NE(*n1, *n2);  // nonces never repeat
  EXPECT_EQ(hm.stats().probes_sent, 2u);
  EXPECT_EQ(hm.stats().acks, 1u);
}

TEST(Health, TimeoutStrikesBackOffExponentiallyThenDeclareDeath) {
  fabric::HealthMonitor hm(unit_health());
  TP t{};
  hm.add_backend(1, t);
  ASSERT_TRUE(hm.next_probe(1, t).has_value());
  // Strike 1 at 5ms; the retry is due immediately with a 10ms budget.
  t += std::chrono::microseconds(5000);
  ASSERT_TRUE(hm.next_probe(1, t).has_value());
  EXPECT_EQ(hm.strikes(1), 1u);
  EXPECT_EQ(hm.health(1, t), fabric::BackendHealth::kSuspect);
  // 9ms later the grown timeout has NOT expired yet.
  EXPECT_EQ(hm.health(1, t + std::chrono::microseconds(9000)),
            fabric::BackendHealth::kSuspect);
  EXPECT_EQ(hm.strikes(1), 1u);
  // 10ms later it has: strike 2.
  t += std::chrono::microseconds(10000);
  ASSERT_TRUE(hm.next_probe(1, t).has_value());
  EXPECT_EQ(hm.strikes(1), 2u);
  // 19ms later the twice-doubled timeout has NOT expired yet.
  EXPECT_EQ(hm.health(1, t + std::chrono::microseconds(19000)),
            fabric::BackendHealth::kSuspect);
  // The third timeout (20ms) is fatal.
  t += std::chrono::microseconds(20000);
  EXPECT_EQ(hm.health(1, t), fabric::BackendHealth::kDead);
  EXPECT_EQ(hm.stats().deaths, 1u);
  EXPECT_EQ(hm.stats().timeouts, 3u);
  // Dead backends are not probed.
  EXPECT_FALSE(hm.next_probe(1, t + std::chrono::seconds(1)).has_value());
}

TEST(Health, DeathIsStickyAndLateAcksAreCounted) {
  fabric::HealthMonitor hm(unit_health());
  TP t{};
  hm.add_backend(1, t);
  const auto n = hm.next_probe(1, t);
  ASSERT_TRUE(n.has_value());
  for (int i = 0; i < 3; ++i) {
    t += std::chrono::microseconds(20000);
    hm.health(1, t);
    hm.next_probe(1, t);
  }
  ASSERT_EQ(hm.health(1, t), fabric::BackendHealth::kDead);
  // The queued ack finally arrives: counted, changes nothing.
  hm.on_ack(1, *n, t);
  EXPECT_EQ(hm.health(1, t), fabric::BackendHealth::kDead);
  EXPECT_GE(hm.stats().late_or_stray_acks, 1u);
  // Acks for unknown backends are stray, not a crash.
  hm.on_ack(42, 7, t);
  EXPECT_GE(hm.stats().late_or_stray_acks, 2u);
}

TEST(Health, StaleNonceDoesNotAnswerTheOutstandingProbe) {
  fabric::HealthMonitor hm(unit_health());
  TP t{};
  hm.add_backend(1, t);
  const auto n = hm.next_probe(1, t);
  ASSERT_TRUE(n.has_value());
  hm.on_ack(1, *n + 99, t);  // wrong nonce
  t += std::chrono::microseconds(5000);
  EXPECT_EQ(hm.health(1, t), fabric::BackendHealth::kSuspect);
  EXPECT_EQ(hm.stats().acks, 0u);
  EXPECT_GE(hm.stats().late_or_stray_acks, 1u);
}

TEST(Health, MaintenancePauseForgivesStrikesAndStopsTheClock) {
  fabric::HealthMonitor hm(unit_health());
  TP t{};
  hm.add_backend(1, t);
  ASSERT_TRUE(hm.next_probe(1, t).has_value());
  t += std::chrono::microseconds(5000);
  hm.next_probe(1, t);  // strike 1
  ASSERT_EQ(hm.strikes(1), 1u);
  hm.set_paused(1, true, t);
  EXPECT_EQ(hm.strikes(1), 0u);
  // A paused backend is never probed and never times out.
  t += std::chrono::seconds(10);
  EXPECT_FALSE(hm.next_probe(1, t).has_value());
  EXPECT_EQ(hm.health(1, t), fabric::BackendHealth::kAlive);
  // Resume: next probe one interval out, fresh timeout budget.
  hm.set_paused(1, false, t);
  EXPECT_FALSE(hm.next_probe(1, t).has_value());
  EXPECT_TRUE(
      hm.next_probe(1, t + std::chrono::microseconds(1000)).has_value());
}

// --------------------------------------------------------------------------
// merge_backend_traces
// --------------------------------------------------------------------------

TEST(TraceMerge, RebasesOntoEarliestEpochAndOrdersStably) {
  obs::TraceEvent a1;
  a1.ts_us = 10;
  a1.kind = obs::TraceEventKind::kItem;
  a1.session = 1;
  a1.backend = 1;
  obs::TraceEvent b1 = a1;
  b1.ts_us = 5;
  b1.session = 2;
  b1.backend = 2;
  // Backend 2's recorder was born 20us later on the shared clock.
  const auto merged = fabric::merge_backend_traces(
      {{1000, {a1}}, {1020, {b1}}});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].ts_us, 10u);  // backend 1: 1000+10 rebased to 10
  EXPECT_EQ(merged[0].backend, 1u);
  EXPECT_EQ(merged[1].ts_us, 25u);  // backend 2: 1020+5 rebased to 25
  EXPECT_EQ(merged[1].backend, 2u);
}

TEST(TraceMerge, EmptyPartsMergeToEmpty) {
  EXPECT_TRUE(fabric::merge_backend_traces({}).empty());
  EXPECT_TRUE(fabric::merge_backend_traces({{5, {}}, {9, {}}}).empty());
}

// --------------------------------------------------------------------------
// Fabric: clean run
// --------------------------------------------------------------------------

TEST(Fabric, CleanRunShardsSessionsAndAnswersProbes) {
  FabricRig rig;
  rig.build(2, 8, 5, lenient_health(), net::MuxConfig{});
  // Round-robin assignment before start.
  EXPECT_EQ(rig.fab->membership().sessions_of(1).size(), 4u);
  EXPECT_EQ(rig.fab->membership().sessions_of(2).size(), 4u);
  rig.start();
  ASSERT_TRUE(rig.finish(30s));
  rig.expect_client_all_completed();
  EXPECT_TRUE(rig.fab->rehomes().empty());
  for (std::uint32_t b = 1; b <= 2; ++b) {
    EXPECT_EQ(rig.fab->membership().health(b),
              fabric::BackendHealth::kAlive);
    EXPECT_FALSE(rig.fab->cell(b).killed());
    const auto st = rig.fab->cell(b).server().mux().stats();
    EXPECT_EQ(st[MuxCounter::kSessionsCompleted], 4u);
    EXPECT_GT(st[MuxCounter::kProbesAnswered], 0u);
  }
  const auto rs = rig.fab->router().stats();
  EXPECT_GT(rs[fabric::RouterCounter::kProbeAcks], 0u);
  EXPECT_GT(rs[fabric::RouterCounter::kClientToBackend], 0u);
  EXPECT_GT(rs[fabric::RouterCounter::kBackendToClient], 0u);
  EXPECT_EQ(rs[fabric::RouterCounter::kDeadOwner], 0u);
  // The merged two-backend trace attests every session.
  const auto rep = rig.attest();
  EXPECT_TRUE(rep.ok) << rep.to_json();
  EXPECT_EQ(rep.value("prefix.completed"), 8);
}

// --------------------------------------------------------------------------
// Fabric: crash re-homing
// --------------------------------------------------------------------------

TEST(Fabric, CrashIsFencedAndRehomedOntoSurvivor) {
  FabricRig rig;
  rig.build(3, 24, 16, aggressive_health(), fabric_mux(),
            /*hold_until_kill=*/true);
  rig.start();
  // Kill once backend 2 is a quarter through its share (8 sessions x 16
  // items), so its sessions are still open and must be re-homed.
  ASSERT_TRUE(rig.wait_items(2, 8 * 4, 10s));
  EXPECT_GT(rig.kill_backend(2), 0u);  // the kill hit live traffic
  ASSERT_TRUE(rig.finish(60s));
  rig.expect_client_all_completed();

  const auto rehomes = rig.fab->rehomes();
  ASSERT_EQ(rehomes.size(), 1u);
  const auto& r = rehomes[0];
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.dead, 2u);
  ASSERT_NE(r.survivor, 0u);
  EXPECT_NE(r.survivor, 2u);
  EXPECT_EQ(r.moved.size(), 8u);  // 24 sessions round-robined over 3
  EXPECT_GT(r.absorb.latency_us, 0u);
  // Every moved session is owned by the survivor now.
  for (const std::uint32_t sid : r.moved) {
    EXPECT_EQ(rig.fab->membership().owner(sid), r.survivor);
  }
  EXPECT_EQ(rig.fab->membership().health(2), fabric::BackendHealth::kDead);
  EXPECT_GE(rig.fab->cell(r.survivor).generation(), 2u);

  // The survivor served the whole fleet share without a recovery break.
  const auto st = rig.fab->cell(r.survivor).server().mux().stats();
  EXPECT_EQ(st[MuxCounter::kSessionsRecoveryViolated], 0u);
  EXPECT_EQ(st[MuxCounter::kSessionsViolated], 0u);
  EXPECT_EQ(st[MuxCounter::kSessionsCompleted], 16u);  // own 8 + moved 8

  // Cross-process-shaped prefix attestation over the merged trace.
  const auto rep = rig.attest();
  EXPECT_TRUE(rep.ok) << rep.to_json();
  EXPECT_EQ(rep.value("prefix.completed"), 24);

  // Manifest provenance: the survivor's log re-manifested the absorbed
  // sessions under its own id; the dead log still attests the old owner.
  std::set<std::uint32_t> owners;
  for (const auto& payload : rig.stores[r.survivor - 1]->replay().payloads) {
    const auto m = store::SessionManifest::from_payload(payload);
    ASSERT_TRUE(m.has_value());
    owners.insert(m->owner);
  }
  EXPECT_EQ(owners, (std::set<std::uint32_t>{r.survivor}));
  owners.clear();
  for (const auto& payload : rig.stores[1]->replay().payloads) {
    const auto m = store::SessionManifest::from_payload(payload);
    ASSERT_TRUE(m.has_value());
    owners.insert(m->owner);
  }
  EXPECT_EQ(owners, (std::set<std::uint32_t>{2}));
}

TEST(Fabric, DrainPollsCellsWhileTheSupervisorRehomes) {
  // Fabric::drain asks every cell whether it is done while the supervisor
  // may be replacing that cell's generation in a re-home absorb.  No
  // client runs, so nothing completes and each drain(1ms) polls all three
  // cells until backend 2's re-home is recorded: under TSan, a poll that
  // read a generation the absorb was building or had freed is a report.
  FabricRig rig;
  rig.build(3, 6, 4, aggressive_health(), fabric_mux());
  rig.fab->start();
  rig.fab->kill_backend(2);
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (rig.fab->rehomes().empty() &&
         std::chrono::steady_clock::now() < deadline) {
    EXPECT_FALSE(rig.fab->drain(1ms));
  }
  rig.fab->stop();
  const auto rehomes = rig.fab->rehomes();
  ASSERT_EQ(rehomes.size(), 1u);
  EXPECT_TRUE(rehomes[0].ok);
  EXPECT_EQ(rehomes[0].dead, 2u);
  EXPECT_EQ(rehomes[0].moved.size(), 2u);
}

// --------------------------------------------------------------------------
// Fabric: probe blackout (false suspicion)
// --------------------------------------------------------------------------

TEST(Fabric, SurvivorKilledBeforeItsAbsorbIsPassedOver) {
  // Backend 2 dies unseen (its probes are paused, so the membership table
  // still reads it alive) just before backend 1 dies.  Backend 1's
  // re-home first picks backend 2 (least loaded, lowest id), finds it
  // dead, marks it so and absorbs into backend 3; backend 2's own death
  // verdict then re-homes its sessions too.
  FabricRig rig;
  rig.build(3, 12, 16, aggressive_health(), fabric_mux(),
            /*hold_until_kill=*/true);
  rig.start();
  ASSERT_TRUE(rig.wait_items(1, 4, 10s));
  ASSERT_TRUE(rig.wait_items(2, 4, 10s));
  rig.fab->router().set_probes_paused(2, true);
  rig.kill_backend(2);
  rig.kill_backend(1);
  const auto deadline = std::chrono::steady_clock::now() + 20s;
  while (rig.fab->rehomes().empty() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  auto rehomes = rig.fab->rehomes();
  ASSERT_EQ(rehomes.size(), 1u);
  EXPECT_TRUE(rehomes[0].ok);
  EXPECT_EQ(rehomes[0].dead, 1u);
  EXPECT_EQ(rehomes[0].survivor, 3u);
  for (const std::uint32_t sid : rehomes[0].moved) {
    EXPECT_EQ(rig.fab->membership().owner(sid), 3u);
  }
  EXPECT_EQ(rig.fab->membership().health(2), fabric::BackendHealth::kDead);

  rig.fab->router().set_probes_paused(2, false);
  while (rig.fab->rehomes().size() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(rig.finish(60s));
  rig.expect_client_all_completed();
  rehomes = rig.fab->rehomes();
  ASSERT_EQ(rehomes.size(), 2u);
  EXPECT_TRUE(rehomes[1].ok);
  EXPECT_EQ(rehomes[1].dead, 2u);
  EXPECT_EQ(rehomes[1].survivor, 3u);
  const auto rep = rig.attest();
  EXPECT_TRUE(rep.ok) << rep.to_json();
  EXPECT_EQ(rep.value("prefix.completed"), 12);
}

/// Block until `done()` holds or 20 s pass.
template <typename Pred>
bool wait_for(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + 20s;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(Fabric, ReclaimPassesOverAReleasingOwnerThatDied) {
  // Backend 1's sessions are re-homed onto backend 2, which then dies
  // unseen (probes paused).  When backend 1 rejoins, its reclaim finds
  // the releasing owner dead: it reclaims nothing, and backend 2's own
  // death verdict re-homes everything backend 2 held.
  FabricRig rig;
  rig.build(3, 12, 16, aggressive_health(), fabric_mux(),
            /*hold_until_kill=*/true);
  rig.start();
  ASSERT_TRUE(rig.wait_items(1, 4, 10s));
  rig.kill_backend(1);
  ASSERT_TRUE(wait_for([&] { return !rig.fab->rehomes().empty(); }));
  ASSERT_EQ(rig.fab->rehomes()[0].survivor, 2u);
  rig.fab->router().set_probes_paused(2, true);
  rig.kill_backend(2);
  ASSERT_TRUE(rig.fab->rejoin_backend(1));
  ASSERT_TRUE(wait_for([&] { return !rig.fab->reclaims().empty(); }));
  ASSERT_TRUE(wait_for([&] { return rig.fab->rehomes().size() >= 2; }));
  ASSERT_TRUE(rig.finish(60s));
  rig.expect_client_all_completed();

  const auto reclaim = rig.fab->reclaims()[0];
  EXPECT_TRUE(reclaim.ok);
  EXPECT_TRUE(reclaim.released_from.empty());
  EXPECT_TRUE(reclaim.reclaimed.empty());
  const auto rehome = rig.fab->rehomes()[1];
  EXPECT_TRUE(rehome.ok);
  EXPECT_EQ(rehome.dead, 2u);
  EXPECT_EQ(rehome.moved.size(), 8u);  // its own 4 + backend 1's 4
  const auto rep = rig.attest();
  EXPECT_TRUE(rep.ok) << rep.to_json();
  EXPECT_EQ(rep.value("prefix.completed"), 12);
}

TEST(Fabric, RejoinerThatDiesMidReclaimLeavesItsSessionsHosted) {
  // Backend 1 rejoins and passes probation, then dies while backend 2 is
  // releasing its sessions back.  The reclaim fails, and backend 2 hosts
  // the released sessions again, so every client session still
  // completes.
  FabricRig rig;
  rig.build(3, 12, 16, aggressive_health(), fabric_mux(),
            /*hold_until_kill=*/true);
  rig.start();
  ASSERT_TRUE(rig.wait_items(1, 4, 10s));
  rig.kill_backend(1);
  ASSERT_TRUE(wait_for([&] { return !rig.fab->rehomes().empty(); }));
  ASSERT_EQ(rig.fab->rehomes()[0].survivor, 2u);
  const auto moved = rig.fab->rehomes()[0].moved;
  rig.kill_in_next_absorb = 1;
  ASSERT_TRUE(rig.fab->rejoin_backend(1));
  ASSERT_TRUE(wait_for([&] { return !rig.fab->reclaims().empty(); }));
  ASSERT_TRUE(rig.finish(60s));
  rig.expect_client_all_completed();

  const auto reclaim = rig.fab->reclaims()[0];
  EXPECT_FALSE(reclaim.ok);
  EXPECT_EQ(reclaim.released_from, (std::vector<std::uint32_t>{2}));
  EXPECT_TRUE(rig.fab->cell(1).killed());
  for (const std::uint32_t sid : moved) {
    EXPECT_EQ(rig.fab->membership().owner(sid), 2u) << "session " << sid;
  }
  const auto rep = rig.attest();
  EXPECT_TRUE(rep.ok) << rep.to_json();
  EXPECT_EQ(rep.value("prefix.completed"), 12);
}

TEST(BackendCell, AbsorbKeepsOwnedSessionsThatNeverCheckpointed) {
  // A session the cell owns but that has heard nothing has no manifest
  // record, so the absorb's bare stop leaves nothing durable naming it.
  // It must still be hosted afterwards (cold-added, like an incoming
  // session no log names).  Two crashes in quick succession hit this: the
  // survivor of the first re-home absorbs again before the moved
  // sessions' senders, backed off, have reached it.
  store::MemStore own;
  own.reset();
  auto link = net::make_loopback();
  fabric::CellConfig cc;
  cc.id = 3;
  cc.stores = {&own};
  cc.make_receiver = stenning_factory();
  cc.expected_for = [](std::uint32_t sid) { return seq_for(sid, 4); };
  fabric::BackendCell cell(link.b.get(), cc);
  cell.add_session(7);
  cell.start();
  const auto rep = cell.absorb({}, {7});
  cell.stop();
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->cold_added, (std::vector<std::uint32_t>{7}));
  const auto reports = cell.server().mux().reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].id, 7u);
  EXPECT_EQ(reports[0].state, net::SessionState::kActive);
}

/// A session log that keeps only the appends made on the thread that
/// built it: every flush a mux worker makes vanishes, as if the
/// generation were killed before its first pass's flush landed.
class CallerThreadStore final : public store::IStableStore {
 public:
  void reset() override { inner_.reset(); }
  void append(const std::string& state) override {
    if (mine()) inner_.append(state);
  }
  void append_batch(const std::vector<std::string>& states) override {
    if (mine()) inner_.append_batch(states);
  }
  void compact() override { inner_.compact(); }
  store::RecoveredState recover() override { return inner_.recover(); }
  store::ReplayResult replay() override { return inner_.replay(); }
  std::uint64_t appends() const override { return inner_.appends(); }
  void fault_torn_next_append() override { inner_.fault_torn_next_append(); }
  void fault_lose_tail(std::uint64_t n) override { inner_.fault_lose_tail(n); }
  void fault_corrupt_record() override { inner_.fault_corrupt_record(); }
  void fault_stale_snapshot() override { inner_.fault_stale_snapshot(); }
  std::string name() const override { return "caller-thread"; }

 private:
  bool mine() const { return std::this_thread::get_id() == owner_; }
  const std::thread::id owner_ = std::this_thread::get_id();
  store::MemStore inner_;
};

TEST(BackendCell, AbsorbReturnsWithEveryRehydratedSessionInItsOwnLog) {
  // Cells 1 -> 2 -> 3 host one set of sessions in turn.  Cell 2 absorbs
  // cell 1's log and is killed before any pass of its own lands (its log
  // keeps only this thread's appends).  Cell 3 is handed cell 2's log
  // alone, as the re-home after cell 2's death is: every session cell 1
  // checkpointed must come back at its durable position, none cold.
  constexpr std::size_t kSessions = 12;
  constexpr std::size_t kLen = 16;
  store::MemStore log1, log3;
  CallerThreadStore log2;
  log1.reset();
  log2.reset();
  log3.reset();
  const auto cell_config = [](std::uint32_t id, store::IStableStore* log) {
    fabric::CellConfig cc;
    cc.id = id;
    cc.mux = fabric_mux();
    cc.stores = {log};
    cc.make_receiver = stenning_factory();
    cc.expected_for = [](std::uint32_t sid) { return seq_for(sid, kLen); };
    return cc;
  };
  std::vector<std::uint32_t> hosted;
  for (std::uint32_t sid = 1; sid <= kSessions; ++sid) hosted.push_back(sid);

  auto link1 = net::make_loopback();
  fabric::BackendCell cell1(link1.b.get(), cell_config(1, &log1));
  net::StpClient client(link1.a.get(), fabric_mux());
  for (const std::uint32_t sid : hosted) {
    cell1.add_session(sid);
    client.add_session(sid, proto::make_stenning(kDomain, true).sender,
                       seq_for(sid, kLen));
  }
  cell1.start();
  client.mux().start();
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (store::manifested_sessions({&log1}).size() < kSessions &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  cell1.kill();
  client.mux().stop();
  const auto durable = store::scan_session_logs({&log1}).newest;
  ASSERT_EQ(durable.size(), kSessions);

  auto link2 = net::make_loopback();
  fabric::BackendCell cell2(link2.b.get(), cell_config(2, &log2));
  ASSERT_TRUE(cell2.absorb({&log1}, hosted).has_value());
  cell2.kill();

  auto link3 = net::make_loopback();
  fabric::BackendCell cell3(link3.b.get(), cell_config(3, &log3));
  const auto rep = cell3.absorb({&log2}, hosted);
  cell3.stop();
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->rehydrate.sessions, kSessions);
  EXPECT_TRUE(rep->cold_added.empty());
  for (const auto& r : cell3.server().mux().reports()) {
    EXPECT_EQ(r.items, durable.at(r.id).position) << "session " << r.id;
  }
}

TEST(Fabric, ShortProbeBlackoutConvergesWithoutDeath) {
  FabricRig rig;
  rig.build(2, 8, 16, lenient_health(), fabric_mux());
  rig.start();
  rig.fab->set_probe_blackout(1, true);
  std::this_thread::sleep_for(30ms);  // < one lenient timeout
  rig.fab->set_probe_blackout(1, false);
  ASSERT_TRUE(rig.finish(30s));
  rig.expect_client_all_completed();
  EXPECT_TRUE(rig.fab->rehomes().empty());
  EXPECT_EQ(rig.fab->membership().health(1), fabric::BackendHealth::kAlive);
  EXPECT_FALSE(rig.fab->cell(1).killed());
}

TEST(Fabric, LongProbeBlackoutFencesTheSuspectAndStillDeliversExactly) {
  FabricRig rig;
  rig.build(2, 12, 16, aggressive_health(), fabric_mux());
  rig.start();
  // Heartbeats to backend 1 vanish for good; data still flows.  The
  // router MUST falsely suspect it — and fencing makes that safe.  Death
  // rides on heartbeat silence alone, so it arrives whether or not the
  // sessions are already done — wait for the re-home before draining.
  rig.fab->set_probe_blackout(1, true);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (rig.fab->rehomes().empty() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(rig.finish(60s));
  rig.expect_client_all_completed();

  const auto rehomes = rig.fab->rehomes();
  ASSERT_EQ(rehomes.size(), 1u);
  EXPECT_TRUE(rehomes[0].ok);
  EXPECT_EQ(rehomes[0].dead, 1u);
  EXPECT_EQ(rehomes[0].survivor, 2u);
  EXPECT_TRUE(rig.fab->cell(1).killed());  // fenced though it was alive
  const auto st = rig.fab->cell(2).server().mux().stats();
  EXPECT_EQ(st[MuxCounter::kSessionsRecoveryViolated], 0u);
  EXPECT_EQ(st[MuxCounter::kSessionsViolated], 0u);
  const auto rep = rig.attest();
  EXPECT_TRUE(rep.ok) << rep.to_json();
  EXPECT_EQ(rep.value("prefix.completed"), 12);
}

// --------------------------------------------------------------------------
// Fabric: router split
// --------------------------------------------------------------------------

TEST(Fabric, RouterSplitHealsWhenTheWindowLifts) {
  FabricRig rig;
  rig.build(2, 8, 16, lenient_health(), fabric_mux());
  rig.start();
  rig.fab->set_data_split(1, true);
  std::this_thread::sleep_for(40ms);
  rig.fab->set_data_split(1, false);
  ASSERT_TRUE(rig.finish(30s));
  rig.expect_client_all_completed();
  // Heartbeats kept answering through the split: no death, no re-home.
  EXPECT_TRUE(rig.fab->rehomes().empty());
  EXPECT_EQ(rig.fab->membership().health(1), fabric::BackendHealth::kAlive);
  EXPECT_GT(
      rig.fab->router().stats()[fabric::RouterCounter::kDataSuppressed], 0u);
}

// --------------------------------------------------------------------------
// Fabric soak harness
// --------------------------------------------------------------------------

/// A crash of backend `b` once it has written `items` items, so it lands
/// mid-traffic however fast the run is.
stp::FabricFaultAction crash_after(std::uint32_t b, std::uint64_t items) {
  stp::FabricFaultAction a;
  a.kind = stp::FabricFaultKind::kBackendCrash;
  a.backend = b;
  a.after_backend = b;
  a.after_items = items;
  return a;
}

stp::FabricSoakConfig soak_base(std::size_t sessions, std::size_t len) {
  stp::FabricSoakConfig cfg;
  cfg.backends = 3;
  cfg.sessions = sessions;
  cfg.seq_len = len;
  cfg.health = aggressive_health();
  cfg.mux = fabric_mux();
  cfg.drain_timeout = 60s;
  return cfg;
}

TEST(FabricSoak, ScriptedCrashPlanRidesOut) {
  auto cfg = soak_base(16, 12);
  // Backend 2 hosts 5 sessions x 12 items; kill it a quarter through.
  cfg.plan.actions.push_back(crash_after(2, 15));
  const auto res = stp::run_fabric_soak(cfg);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_EQ(res.completed, 16u);
  EXPECT_EQ(res.live_violations, 0u);
  ASSERT_EQ(res.crash_active.size(), 1u);
  EXPECT_GT(res.crash_active[0], 0u);  // the kill hit live traffic
  EXPECT_EQ(res.rehomes, 1u);
  ASSERT_EQ(res.restore_latency_us.size(), 1u);
  EXPECT_GT(res.restore_latency_us[0], 0u);
  EXPECT_TRUE(res.trace.ok) << res.trace.to_json();
}

TEST(FabricSoak, PlanToStringIsReadable) {
  stp::FabricFaultPlan plan;
  EXPECT_EQ(stp::to_string(plan), "-");
  plan.actions.push_back({stp::FabricFaultKind::kBackendCrash, 2,
                          std::chrono::milliseconds(20), {}, {}, {}});
  plan.actions.push_back({stp::FabricFaultKind::kProbeBlackout, 1,
                          std::chrono::milliseconds(5),
                          std::chrono::milliseconds(80), {}, {}});
  EXPECT_EQ(stp::to_string(plan),
            "backend-crash@20ms b2; probe-blackout@5ms+80ms b1");
}

TEST(FabricSoak, SampledPlansAreDeterministicAndBounded) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const auto a = stp::sample_fabric_plan(seed, 3);
    const auto b = stp::sample_fabric_plan(seed, 3);
    EXPECT_EQ(stp::to_string(a), stp::to_string(b));
    ASSERT_GE(a.actions.size(), 1u);
    ASSERT_LE(a.actions.size(), 3u);
    std::size_t crashes = 0;
    for (const auto& act : a.actions) {
      EXPECT_GE(act.backend, 1u);
      EXPECT_LE(act.backend, 3u);
      // Anchored on its own backend's progress, a few items in.
      EXPECT_EQ(act.after_backend, act.backend);
      EXPECT_GE(act.after_items, 1u);
      EXPECT_LE(act.after_items, 8u);
      if (act.kind == stp::FabricFaultKind::kBackendCrash) ++crashes;
    }
    EXPECT_LE(crashes, 2u);  // a survivor always exists
  }
}

TEST(FabricSoak, SweepOfSampledPlansIsClean) {
  const auto cfg = soak_base(8, 10);
  const auto rep = stp::fabric_soak_sweep(cfg, {1, 2, 3});
  EXPECT_EQ(rep.trials, 3u);
  std::string why;
  for (const auto& f : rep.failures) {
    why += " seed=" + std::to_string(f.seed) + " plan=[" +
           stp::to_string(f.plan) + "] " + f.failure;
  }
  EXPECT_TRUE(rep.clean()) << why;
  EXPECT_EQ(rep.completed_trials, 3u);
}

TEST(FabricSoak, MinimizeShrinksAFailingPlanToItsCore) {
  // Killing BOTH backends strands the fleet: no survivor, sessions never
  // finish.  The blackout rider is irrelevant — minimization must drop
  // it and keep the two crashes (removing either crash leaves a survivor
  // and the run passes: 1-minimal).
  stp::FabricSoakConfig cfg = soak_base(4, 6);
  cfg.backends = 2;
  cfg.drain_timeout = 3s;
  stp::FabricFaultPlan failing;
  failing.actions.push_back({stp::FabricFaultKind::kProbeBlackout, 1,
                             std::chrono::milliseconds(2),
                             std::chrono::milliseconds(20), {}, {}});
  failing.actions.push_back({stp::FabricFaultKind::kBackendCrash, 1,
                             std::chrono::milliseconds(8), {}, {}, {}});
  failing.actions.push_back({stp::FabricFaultKind::kBackendCrash, 2,
                             std::chrono::milliseconds(14), {}, {}, {}});
  cfg.plan = failing;
  ASSERT_FALSE(stp::run_fabric_soak(cfg).ok);

  const auto min = stp::minimize_fabric_plan(cfg, failing);
  ASSERT_EQ(min.plan.actions.size(), 2u);
  EXPECT_EQ(min.plan.actions[0].kind,
            stp::FabricFaultKind::kBackendCrash);
  EXPECT_EQ(min.plan.actions[1].kind,
            stp::FabricFaultKind::kBackendCrash);
  EXPECT_GE(min.probe_runs, 3u);
}

// --------------------------------------------------------------------------
// Acceptance: 256 sessions / 3 backends survive a kill mid-run
// --------------------------------------------------------------------------

TEST(FabricAcceptance, CrashRehomed256SessionsAttestedAgainstLiveVerdicts) {
  auto cfg = soak_base(kAcceptanceSessions, 8);
  // The full width drains in ~1s on an idle core but can stretch past a
  // minute under load on a single-core runner.
  cfg.drain_timeout = std::chrono::milliseconds(240'000);
  // Kill backend 1 a quarter through its share (a third of the sessions,
  // 8 items each).
  cfg.plan.actions.push_back(crash_after(1, kAcceptanceSessions * 8 / 12));
  const auto res = stp::run_fabric_soak(cfg);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_EQ(res.completed, kAcceptanceSessions);
  EXPECT_EQ(res.live_violations, 0u);
  ASSERT_EQ(res.crash_active.size(), 1u);
  EXPECT_GT(res.crash_active[0], 0u);  // the kill hit live traffic
  EXPECT_EQ(res.rehomes, 1u);
  ASSERT_FALSE(res.restore_latency_us.empty());

  // The trace-derived verdict MATCHES the live one, session for session:
  // every client session completed live, and the offline attestor
  // re-derives completion + prefix order for every session from the
  // merged per-backend trace alone.
  EXPECT_TRUE(res.trace.ok) << res.trace.to_json();
  EXPECT_EQ(res.trace.value("prefix.sessions"),
            static_cast<std::int64_t>(kAcceptanceSessions));
  EXPECT_EQ(res.trace.value("prefix.completed"),
            static_cast<std::int64_t>(res.completed));
  EXPECT_EQ(res.trace.value("prefix.item_violations"), 0);
  EXPECT_EQ(res.trace.value("prefix.state_violations"), 0);
}

}  // namespace
}  // namespace stpx

// Fabric resilience v2 conformance suite (ctest -L rejoin_smoke):
//
//   * HandshakeRetry — the injected-time dialer FSM: first send always
//     due, jittered exponential backoff, deterministic replay, attempt
//     exhaustion, ack short-circuit;
//   * HealthMonitor edges — a maintenance pause forgiving strikes
//     mid-ladder resets the backoff-grown timeout to base; an ack landing
//     during a pause is ignored without prejudice; probation lifts only
//     on consecutive acks and striking out is a second sticky death;
//   * MembershipTable — revive() stamps a fresh incarnation, turning the
//     pre-fence owner entries stale; pick_survivor ignores stale load;
//   * the fabric fault-plan grammar — text round-trip, span windows,
//     partitions, malformed input;
//   * the rejoin/reclaim loop end to end — crash, re-home, kJoin under a
//     fresh generation, probation, release/reclaim absorbs, epoch bump —
//     including a seeded trial with a survivor partitioned mid-run, and
//     cross-generation prefix attestation from the merged trace alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "fabric/fabric.hpp"
#include "fabric/health.hpp"
#include "fault/fabric_plan.hpp"
#include "net/retry.hpp"
#include "obs/metrics.hpp"
#include "stp/fabric_soak.hpp"
#include "util/expect.hpp"
#include "util/sanitized.hpp"

namespace stpx {
namespace {

using namespace std::chrono_literals;

// --------------------------------------------------------------------------
// HandshakeRetry — the injected-time dialer FSM
// --------------------------------------------------------------------------

using clock_tp = std::chrono::steady_clock::time_point;

clock_tp at(std::chrono::microseconds offset) {
  return clock_tp{} + 1h + offset;
}

TEST(HandshakeRetry, FirstSendIsAlwaysDue) {
  net::HandshakeRetry fsm;
  EXPECT_TRUE(fsm.should_send(at(0us)));
  EXPECT_EQ(fsm.attempts(), 1u);
  // The next send is NOT due until the scheduled backoff elapses.
  EXPECT_FALSE(fsm.should_send(at(1us)));
}

TEST(HandshakeRetry, BackoffGrowsExponentiallyWithinJitterBounds) {
  net::RetryConfig cfg;
  cfg.max_attempts = 6;
  cfg.base_delay = 1'000us;
  cfg.backoff = 2.0;
  cfg.max_delay = 200'000us;
  cfg.jitter = 0.25;
  net::HandshakeRetry fsm(cfg);
  auto now = at(0us);
  std::int64_t prev = 0;
  for (std::uint32_t i = 1; i <= cfg.max_attempts; ++i) {
    ASSERT_TRUE(fsm.should_send(now)) << "attempt " << i;
    const auto d = fsm.last_delay().count();
    // base * 2^(i-1) stretched by [1, 1.25): the schedule is exponential
    // and the jitter never exceeds its configured fraction.
    const auto lo = 1'000ll << (i - 1);
    EXPECT_GE(d, lo) << "attempt " << i;
    EXPECT_LT(d, lo + lo / 4 + 1) << "attempt " << i;
    EXPECT_GT(d, prev) << "attempt " << i;
    prev = d;
    now += fsm.last_delay();
  }
  EXPECT_FALSE(fsm.should_send(now));  // attempts exhausted
  EXPECT_TRUE(fsm.exhausted(now));
}

TEST(HandshakeRetry, JitterIsDeterministicPerSeedAndSpreadsAcrossSeeds) {
  net::RetryConfig a;
  a.jitter_seed = 41;
  net::RetryConfig b = a;
  net::RetryConfig c;
  c.jitter_seed = 42;
  net::HandshakeRetry fa(a), fb(b), fc(c);
  auto now = at(0us);
  bool seeds_differ = false;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fa.should_send(now));
    ASSERT_TRUE(fb.should_send(now));
    ASSERT_TRUE(fc.should_send(now));
    // Same seed: the replay is exact.  Different seed: some attempt must
    // land on a different jitter draw.
    EXPECT_EQ(fa.last_delay(), fb.last_delay());
    seeds_differ = seeds_differ || fa.last_delay() != fc.last_delay();
    now += std::chrono::microseconds(500'000);
  }
  EXPECT_TRUE(seeds_differ);
}

TEST(HandshakeRetry, AckStopsSendingAndNeverExhausts) {
  net::RetryConfig cfg;
  cfg.max_attempts = 2;
  net::HandshakeRetry fsm(cfg);
  ASSERT_TRUE(fsm.should_send(at(0us)));
  fsm.on_ack();
  EXPECT_TRUE(fsm.acked());
  EXPECT_FALSE(fsm.should_send(at(10s)));
  EXPECT_FALSE(fsm.exhausted(at(10s)));
}

TEST(HandshakeRetry, ExhaustionRequiresTheLastDeadlineToPass) {
  net::RetryConfig cfg;
  cfg.max_attempts = 1;
  cfg.base_delay = 5'000us;
  cfg.jitter = 0.0;
  net::HandshakeRetry fsm(cfg);
  ASSERT_TRUE(fsm.should_send(at(0us)));
  // Out of attempts but the confirm may still be in flight until the
  // scheduled deadline: not exhausted yet.
  EXPECT_FALSE(fsm.exhausted(at(1'000us)));
  EXPECT_TRUE(fsm.exhausted(at(5'000us)));
}

// --------------------------------------------------------------------------
// HealthMonitor — maintenance-pause and probation edges
// --------------------------------------------------------------------------

fabric::HealthConfig edge_health() {
  fabric::HealthConfig h;
  h.probe_interval = 1ms;
  h.probe_timeout = 10ms;
  return h;
}

TEST(HealthEdges, PauseForgivesStrikesAndResetsBackoffToBase) {
  fabric::HealthMonitor hm(edge_health());
  hm.add_backend(1, at(0us));
  ASSERT_TRUE(hm.next_probe(1, at(0us)));
  // First strike at +11ms: the timeout ladder grows 10ms -> 20ms.
  ASSERT_TRUE(hm.next_probe(1, at(11ms)));
  EXPECT_EQ(hm.strikes(1), 1u);
  // Maintenance pause mid-ladder: strikes forgiven.
  hm.set_paused(1, true, at(12ms));
  EXPECT_EQ(hm.strikes(1), 0u);
  hm.set_paused(1, false, at(20ms));
  // Next probe one interval out, not immediately.
  EXPECT_FALSE(hm.next_probe(1, at(20ms)));
  ASSERT_TRUE(hm.next_probe(1, at(21ms)));
  // The backoff must be back at BASE: a 10ms timeout charges a strike at
  // +32ms.  Had the pre-pause 20ms ladder survived, this probe would
  // stay outstanding until +41ms and no strike could be charged.
  ASSERT_TRUE(hm.next_probe(1, at(32ms)));
  EXPECT_EQ(hm.strikes(1), 1u);
}

TEST(HealthEdges, AckDuringPauseIsNeitherLateNorStray) {
  fabric::HealthMonitor hm(edge_health());
  hm.add_backend(1, at(0us));
  const auto nonce = hm.next_probe(1, at(0us));
  ASSERT_TRUE(nonce);
  hm.set_paused(1, true, at(1ms));
  // The in-flight answer to a probe we stopped caring about: ignored
  // without prejudice.
  hm.on_ack(1, *nonce, at(2ms));
  EXPECT_EQ(hm.stats().late_or_stray_acks, 0u);
  EXPECT_EQ(hm.stats().acks, 0u);
  EXPECT_EQ(fabric::BackendHealth::kAlive, hm.health(1, at(3ms)));
}

TEST(HealthEdges, ProbationLiftsOnlyAfterConsecutiveAcks) {
  fabric::HealthMonitor hm(edge_health());
  hm.add_backend(1, at(0us));
  // Ride the ladder to death: timeouts of 10/20/40ms, so strikes at
  // +11, +32 and +73ms.
  ASSERT_TRUE(hm.next_probe(1, at(0us)));
  ASSERT_TRUE(hm.next_probe(1, at(11ms)));
  ASSERT_TRUE(hm.next_probe(1, at(32ms)));
  EXPECT_FALSE(hm.next_probe(1, at(73ms)));  // third strike: dead
  EXPECT_EQ(fabric::BackendHealth::kDead, hm.health(1, at(73ms)));
  EXPECT_FALSE(hm.rejoin(99, at(74ms)));  // unknown backend
  // Probation opens; verdict stays kSuspect until BOTH acks are in.
  ASSERT_TRUE(hm.rejoin(1, at(74ms)));
  EXPECT_FALSE(hm.rejoin(1, at(74ms)));  // no longer dead: no-op
  EXPECT_TRUE(hm.on_probation(1));
  const auto n1 = hm.next_probe(1, at(74ms));
  ASSERT_TRUE(n1);
  hm.on_ack(1, *n1, at(75ms));
  EXPECT_EQ(fabric::BackendHealth::kSuspect, hm.health(1, at(75ms)));
  EXPECT_TRUE(hm.on_probation(1));
  const auto n2 = hm.next_probe(1, at(76ms));
  ASSERT_TRUE(n2);
  hm.on_ack(1, *n2, at(77ms));
  EXPECT_EQ(fabric::BackendHealth::kAlive, hm.health(1, at(77ms)));
  EXPECT_FALSE(hm.on_probation(1));
  EXPECT_EQ(hm.stats().probation_passes, 1u);
}

TEST(HealthEdges, ProbationStrikeOutIsASecondStickyDeath) {
  fabric::HealthMonitor hm(edge_health());
  hm.add_backend(1, at(0us));
  ASSERT_TRUE(hm.next_probe(1, at(0us)));
  ASSERT_TRUE(hm.next_probe(1, at(11ms)));   // strike 1
  ASSERT_TRUE(hm.next_probe(1, at(32ms)));   // strike 2
  EXPECT_FALSE(hm.next_probe(1, at(73ms)));  // strike 3: dead
  ASSERT_TRUE(hm.rejoin(1, at(80ms)));
  ASSERT_TRUE(hm.next_probe(1, at(80ms)));
  // Silence through probation: the ladder condemns again (the probes
  // sent at +80, +91 and +112ms time out after 10, 20 and 40ms; the
  // third expiry is the second death).
  ASSERT_TRUE(hm.next_probe(1, at(91ms)));
  ASSERT_TRUE(hm.next_probe(1, at(112ms)));
  EXPECT_FALSE(hm.next_probe(1, at(153ms)));
  EXPECT_EQ(fabric::BackendHealth::kDead, hm.health(1, at(200ms)));
  EXPECT_EQ(hm.stats().probation_failures, 1u);
  EXPECT_FALSE(hm.on_probation(1));
  // ... and a fresh rejoin() is still the door back.
  EXPECT_TRUE(hm.rejoin(1, at(300ms)));
}

// --------------------------------------------------------------------------
// MembershipTable — incarnation-stamped entries
// --------------------------------------------------------------------------

TEST(MembershipStaleness, ReviveTurnsPreFenceEntriesStale) {
  fabric::MembershipTable m;
  m.add_backend(1);
  m.add_backend(2);
  m.assign(7, 1);
  const auto fresh = m.resolve(7);
  ASSERT_TRUE(fresh);
  EXPECT_FALSE(fresh->stale);
  EXPECT_EQ(fresh->generation, m.incarnation(1));

  m.set_health(1, fabric::BackendHealth::kDead);
  const auto e0 = m.epoch();
  const auto inc = m.revive(1);
  EXPECT_EQ(inc, m.incarnation(1));
  EXPECT_GT(m.epoch(), e0);  // every revive is an ownership-truth rewrite
  // The entry survives but is stamped by the fenced incarnation: stale.
  const auto stale = m.resolve(7);
  ASSERT_TRUE(stale);
  EXPECT_TRUE(stale->stale);
  EXPECT_EQ(stale->backend, 1u);
  // Re-assigning under the new incarnation freshens it.
  m.assign(7, 1);
  const auto again = m.resolve(7);
  ASSERT_TRUE(again);
  EXPECT_FALSE(again->stale);
  EXPECT_EQ(again->generation, inc);
}

TEST(MembershipStaleness, SurvivorElectionIgnoresStaleLoad) {
  fabric::MembershipTable m;
  m.add_backend(1);
  m.add_backend(2);
  // b1 carries three sessions, b2 one.
  m.assign(1, 1);
  m.assign(2, 1);
  m.assign(3, 1);
  m.assign(4, 2);
  EXPECT_EQ(m.pick_survivor(3), 2u);  // least loaded among alive
  // b1 dies and rejoins: its three entries are now phantom load from a
  // fenced incarnation, so b1 (0 fresh sessions) beats b2 (1).
  m.set_health(1, fabric::BackendHealth::kDead);
  m.revive(1);
  EXPECT_EQ(m.pick_survivor(3), 1u);
}

// --------------------------------------------------------------------------
// Fabric fault-plan grammar
// --------------------------------------------------------------------------

TEST(FabricPlanText, RoundTripsEveryKind) {
  const std::string text =
      "backend-crash@20ms b2; probe-blackout@5ms+80ms b1; "
      "router-split@10ms+30ms b3; partition@20ms+40ms 0,1|2,3; "
      "partition-oneway@20ms+40ms 0|2; rejoin@90ms b2";
  const auto plan = fault::fabric_plan_from_text(text);
  ASSERT_EQ(plan.size(), 6u);
  EXPECT_EQ(fault::to_text(plan), text);
  // And the parse is structural, not stringly: spot-check the partition.
  const auto& p = plan.actions[3];
  EXPECT_EQ(p.kind, fault::FabricFaultKind::kPartition);
  EXPECT_EQ(p.group_a, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(p.group_b, (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(p.at, 20ms);
  EXPECT_EQ(p.len, 40ms);
}

TEST(FabricPlanText, SpanWindowsAndCommentsParse) {
  const auto plan = fault::fabric_plan_from_text(
      "# scripted by the minimizer\n"
      "partition@20ms..60ms 0|2\n"
      "-\n"
      "rejoin@90ms b1\n");
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.actions[0].len, 40ms);  // ..60ms == +40ms
  EXPECT_EQ(fault::to_text(plan), "partition@20ms+40ms 0|2; rejoin@90ms b1");
  EXPECT_EQ(fault::to_text(fault::FabricFaultPlan{}), "-");
  EXPECT_TRUE(fault::fabric_plan_from_text("-").empty());
}

TEST(FabricPlanText, MalformedInputThrows) {
  EXPECT_THROW(fault::fabric_plan_from_text("explode@20ms b1"),
               ContractError);
  EXPECT_THROW(fault::fabric_plan_from_text("rejoin@20 b1"), ContractError);
  EXPECT_THROW(fault::fabric_plan_from_text("rejoin@20ms"), ContractError);
  EXPECT_THROW(fault::fabric_plan_from_text("rejoin@20ms x1"),
               ContractError);
  EXPECT_THROW(fault::fabric_plan_from_text("partition@1ms+2ms 0,1"),
               ContractError);
  EXPECT_THROW(fault::fabric_plan_from_text("partition@1ms+2ms |2"),
               ContractError);
  EXPECT_THROW(fault::fabric_plan_from_text("partition@9ms..3ms 0|2"),
               ContractError);
}

TEST(FabricPlanText, ProgressAnchorsRoundTrip) {
  const std::string text =
      "backend-crash@0ms b2 after b2:8; rejoin@120ms b2 after b2:8; "
      "partition@20ms+40ms 0|3 after b2:8; probe-blackout@5ms+80ms b1";
  const auto plan = fault::fabric_plan_from_text(text);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(fault::to_text(plan), text);
  EXPECT_EQ(plan.actions[0].after_backend, 2u);
  EXPECT_EQ(plan.actions[0].after_items, 8u);
  EXPECT_EQ(plan.actions[2].group_b, (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(plan.actions[2].after_items, 8u);
  EXPECT_EQ(plan.actions[3].after_items, 0u);  // counts from traffic start
  for (const char* bad :
       {"backend-crash@0ms b2 after", "backend-crash@0ms b2 after b2",
        "backend-crash@0ms b2 after b2:", "backend-crash@0ms b2 after b:8",
        "backend-crash@0ms b2 after x2:8", "backend-crash@0ms b2 after b2:0",
        "backend-crash@0ms b2 after b2:8x", "backend-crash@0ms b2 before b2:8",
        "backend-crash@0ms b2 after b2:8 extra"}) {
    EXPECT_THROW(fault::fabric_plan_from_text(bad), ContractError) << bad;
  }
}

TEST(FabricPlanText, SoakToStringDelegatesUnchanged) {
  stp::FabricFaultPlan plan;
  plan.actions.push_back({stp::FabricFaultKind::kBackendCrash, 2, 20ms, {},
                          {}, {}});
  plan.actions.push_back({stp::FabricFaultKind::kProbeBlackout, 1, 5ms,
                          80ms, {}, {}});
  EXPECT_EQ(stp::to_string(plan),
            "backend-crash@20ms b2; probe-blackout@5ms+80ms b1");
  EXPECT_EQ(fault::fabric_plan_from_text(stp::to_string(plan)), plan);
}

// --------------------------------------------------------------------------
// The rejoin/reclaim loop, end to end
// --------------------------------------------------------------------------

fabric::HealthConfig fast_health() {
  fabric::HealthConfig h;
  h.probe_interval = kSanitized ? 5ms : 1ms;
  h.probe_timeout = kSanitized ? 100ms : 5ms;
  return h;
}

stp::FabricSoakConfig rejoin_base(std::size_t sessions, std::size_t len) {
  stp::FabricSoakConfig cfg;
  cfg.backends = 3;
  cfg.sessions = sessions;
  cfg.seq_len = len;
  cfg.health = fast_health();
  cfg.mux.workers = 2;
  cfg.drain_timeout = 120s;
  return cfg;
}

// The condemnation ladder needs ~35ms of silence uninstrumented, ~700ms
// under a sanitizer; the rejoin must land after it (the cell's bounded
// kJoin retries add ~250ms of grace on top).
constexpr std::chrono::milliseconds kRejoinAt = kSanitized ? 1800ms : 120ms;

/// `a` with its clock anchored on backend `b` having written `items`
/// items: the scripted crashes land mid-traffic however fast the run is,
/// and everything anchored alike keeps its spacing from the crash.
stp::FabricFaultAction after(std::uint32_t b, std::uint64_t items,
                             stp::FabricFaultAction a) {
  a.after_backend = b;
  a.after_items = items;
  return a;
}

TEST(RejoinReclaim, CrashRejoinReclaimRoundTrip) {
  auto cfg = rejoin_base(12, 8);
  // Backend 2 hosts 4 sessions x 8 items; kill it a quarter through.
  cfg.plan.actions.push_back(
      after(2, 8, {stp::FabricFaultKind::kBackendCrash, 2, 0ms, {}, {}, {}}));
  cfg.plan.actions.push_back(after(
      2, 8, {stp::FabricFaultKind::kRejoin, 2, kRejoinAt, {}, {}, {}}));
  const auto res = stp::run_fabric_soak(cfg);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_EQ(res.completed, 12u);
  EXPECT_EQ(res.live_violations, 0u);
  ASSERT_EQ(res.crash_active.size(), 1u);
  EXPECT_GT(res.crash_active[0], 0u);  // the kill hit live traffic
  EXPECT_EQ(res.rehomes, 1u);
  EXPECT_EQ(res.rejoins, 1u);
  EXPECT_EQ(res.reclaims, 1u);
  ASSERT_EQ(res.reclaim_latency_us.size(), 1u);
  EXPECT_GT(res.reclaim_latency_us[0], 0u);
  // The attestation is derived from the merged trace alone and must
  // agree with the live verdicts across all three generations.
  EXPECT_TRUE(res.trace.ok) << res.trace.to_json();
  EXPECT_EQ(res.router[fabric::RouterCounter::kRejects], 0u);
}

TEST(RejoinReclaim, SeededSoakTrialCrashPartitionHealRejoin) {
  // The acceptance trial: crash one backend, partition a SURVIVOR from
  // the router side mid-recovery, heal, rejoin the dead backend, reclaim
  // — then attest the whole story from the merged trace.
  auto cfg = rejoin_base(12, 8);
  // Every action counts from backend 1 being a quarter through its share
  // (4 sessions x 8 items), which is when it dies.
  cfg.plan.actions.push_back(
      after(1, 8, {stp::FabricFaultKind::kBackendCrash, 1, 0ms, {}, {}, {}}));
  {
    stp::FabricFaultAction p;
    p.kind = stp::FabricFaultKind::kPartition;
    // The window stays under the condemnation ladder (~35ms of silence
    // uninstrumented) so the survivor USUALLY rides it out — but a loaded
    // scheduler can stretch the heal past the ladder, and a condemned
    // survivor is a legitimate outcome the run must also absorb (its
    // sessions re-home again); hence GE on rehomes below.
    p.at = kSanitized ? 190ms : 20ms;
    p.len = kSanitized ? 250ms : 20ms;
    p.group_a = {0};
    p.group_b = {3};
    cfg.plan.actions.push_back(after(1, 8, p));
  }
  cfg.plan.actions.push_back(
      after(1, 8,
            {stp::FabricFaultKind::kRejoin, 1,
             kRejoinAt + (kSanitized ? 700ms : 60ms), {}, {}, {}}));
  const auto res = stp::run_fabric_soak(cfg);
  EXPECT_TRUE(res.ok) << res.failure;
  ASSERT_EQ(res.crash_active.size(), 1u);
  EXPECT_GT(res.crash_active[0], 0u);  // the kill hit live traffic
  EXPECT_GE(res.rehomes, 1u);
  EXPECT_EQ(res.rejoins, 1u);
  EXPECT_EQ(res.reclaims, 1u);
  EXPECT_TRUE(res.trace.ok) << res.trace.to_json();
  // The partition window suppressed real traffic at the router.
  EXPECT_GT(res.router[fabric::RouterCounter::kPartitionSuppressed], 0u);
}

TEST(RejoinReclaim, OneWayPartitionSuppressesOnlyOneDirection) {
  // Asymmetric partition against a healthy fleet: no crash, no rejoin —
  // the probes charged to the FSM ARE the fault, and the window must
  // heal before the ladder condemns (len < first-strike silence).
  auto cfg = rejoin_base(6, 6);
  cfg.health = stp::FabricSoakConfig{}.health;  // default lenient ladder
  stp::FabricFaultAction p;
  p.kind = stp::FabricFaultKind::kPartitionOneWay;
  p.at = 5ms;
  p.len = 8ms;
  p.group_a = {0};
  p.group_b = {2};
  cfg.plan.actions.push_back(p);
  const auto res = stp::run_fabric_soak(cfg);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_EQ(res.rehomes, 0u);
}

TEST(RejoinReclaim, SampleResiliencePlanIsDeterministicAndShaped) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const auto a = stp::sample_resilience_plan(seed, 3);
    const auto b = stp::sample_resilience_plan(seed, 3);
    EXPECT_EQ(a, b) << "seed " << seed;
    // Every plan carries the crash -> rejoin spine on the same backend,
    // rejoin strictly after the crash.
    ASSERT_GE(a.size(), 2u) << "seed " << seed;
    EXPECT_EQ(a.actions[0].kind, stp::FabricFaultKind::kBackendCrash);
    EXPECT_EQ(a.actions[1].kind, stp::FabricFaultKind::kRejoin);
    EXPECT_EQ(a.actions[0].backend, a.actions[1].backend);
    EXPECT_LT(a.actions[0].at.count(), a.actions[1].at.count());
    // ... both counted from the victim's progress, like every action.
    for (const auto& act : a.actions) {
      EXPECT_EQ(act.after_backend, a.actions[0].backend);
      EXPECT_EQ(act.after_items, a.actions[0].after_items);
    }
    EXPECT_GE(a.actions[0].after_items, 1u);
    EXPECT_EQ(a.actions[0].at.count(), 0);
    // Round-trips through the artifact grammar.
    EXPECT_EQ(fault::fabric_plan_from_text(fault::to_text(a)), a);
    // Blackouts and partitions, when sampled, hit one survivor, never the
    // crash victim.
    std::set<std::uint32_t> disturbed;
    for (const auto& act : a.actions) {
      if (act.kind == stp::FabricFaultKind::kProbeBlackout) {
        disturbed.insert(act.backend);
      }
      if (!fault::is_partition_fault(act.kind)) continue;
      EXPECT_EQ(act.group_a, (std::vector<std::uint32_t>{0}));
      ASSERT_EQ(act.group_b.size(), 1u);
      disturbed.insert(act.group_b[0]);
    }
    EXPECT_LE(disturbed.size(), 1u) << "seed " << seed;
    EXPECT_EQ(disturbed.count(a.actions[0].backend), 0u) << "seed " << seed;
  }
}

TEST(RejoinReclaim, PublishMetricsEmitsDistinctDropCounters) {
  auto cfg = rejoin_base(6, 6);
  // Backend 2 hosts 2 sessions x 6 items; kill it a quarter through.
  cfg.plan.actions.push_back(
      after(2, 3, {stp::FabricFaultKind::kBackendCrash, 2, 0ms, {}, {}, {}}));
  cfg.plan.actions.push_back(after(
      2, 3, {stp::FabricFaultKind::kRejoin, 2, kRejoinAt, {}, {}, {}}));
  const auto res = stp::run_fabric_soak(cfg);
  ASSERT_TRUE(res.ok) << res.failure;
  ASSERT_EQ(res.crash_active.size(), 1u);
  EXPECT_GT(res.crash_active[0], 0u);  // the kill hit live traffic
  // (No nonzero-drop assertion: the fenced window between condemnation
  // and re-home is milliseconds wide, so whether any client frame lands
  // inside it is scheduling luck.  The split counters themselves are
  // what the satellite pins, below.)

  fabric::MembershipTable membership;
  net::LoopbackPair client_link = net::make_loopback();
  fabric::FabricRouter router(client_link.b.get(), &membership);
  obs::MetricsRegistry reg;
  router.publish_metrics(reg);
  for (const char* key :
       {"fabric.drops.no_owner", "fabric.drops.dead_owner",
        "fabric.drops.stale_lease", "fabric.drops.partition",
        "fabric.joins"}) {
    EXPECT_TRUE(reg.counters().count(key)) << key;
  }
}

}  // namespace
}  // namespace stpx

#include "stp/fabric_soak.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>

#include "net/flight_recorder.hpp"
#include "net/service.hpp"
#include "proto/suite.hpp"
#include "store/session_log.hpp"
#include "store/stable_store.hpp"
#include "stp/last_item_gate.hpp"
#include "util/rng.hpp"

namespace stpx::stp {

namespace {

constexpr std::uint64_t kPlanSalt = 0xFAB51CULL;
constexpr std::uint64_t kResilienceSalt = 0x4E501E9CULL;
/// Data domain of every session's sequence and Stenning endpoint.
constexpr int kDomain = 8;

seq::Sequence seq_for(std::uint32_t id, std::size_t len) {
  seq::Sequence x;
  x.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    x.push_back(static_cast<seq::DataItem>(
        (id + i) % static_cast<std::uint32_t>(kDomain)));
  }
  return x;
}

bool group_has(const std::vector<std::uint32_t>& g, std::uint32_t h) {
  return std::find(g.begin(), g.end(), h) != g.end();
}

/// Apply (or heal) one partition action.  The fabric is a hub: only pairs
/// that cross the router carry traffic, so the group containing host 0
/// keeps the router and every backend in the OTHER group is severed.  A
/// partition naming two router-less groups has no router-crossing pair
/// and is a no-op.  One-way severs group_a -> group_b traffic only:
/// kToBackend when the router sits in group_a, kFromBackend when it sits
/// in group_b.
void apply_partition(fabric::Fabric& fab, std::size_t backends,
                     const FabricFaultAction& a, bool on) {
  const bool router_in_a = group_has(a.group_a, 0);
  const bool router_in_b = group_has(a.group_b, 0);
  if (router_in_a == router_in_b) return;
  fabric::PartitionMode mode = fabric::PartitionMode::kBoth;
  if (a.kind == FabricFaultKind::kPartitionOneWay) {
    mode = router_in_a ? fabric::PartitionMode::kToBackend
                       : fabric::PartitionMode::kFromBackend;
  }
  const auto& severed = router_in_a ? a.group_b : a.group_a;
  for (const std::uint32_t h : severed) {
    if (h >= 1 && h <= backends) {
      fab.set_partition(h, on ? mode : fabric::PartitionMode::kNone);
    }
  }
}

}  // namespace

std::string to_string(const FabricFaultPlan& plan) {
  return fault::to_text(plan);
}

FabricSoakResult run_fabric_soak(const FabricSoakConfig& cfg) {
  FabricSoakResult res;

  // One session log and one flight recorder per backend; the stores also
  // serve as the handoff source when their backend dies — and as the
  // reclaim manifest when it rejoins.
  std::vector<std::unique_ptr<store::MemStore>> stores;
  std::vector<std::unique_ptr<net::FlightRecorder>> recorders;
  for (std::size_t i = 0; i < cfg.backends; ++i) {
    stores.push_back(std::make_unique<store::MemStore>());
    stores.back()->reset();
    net::FlightRecorderConfig rc;
    rc.backend_id = static_cast<std::uint32_t>(i + 1);
    recorders.push_back(std::make_unique<net::FlightRecorder>(rc));
  }

  fabric::FabricConfig fc;
  fc.backends = cfg.backends;
  fc.health = cfg.health;
  fc.mux = cfg.mux;
  fc.mux.probe = nullptr;
  fc.mux.session_stores.clear();
  fc.make_receiver = [](std::uint32_t, std::uint64_t tag)
      -> std::unique_ptr<sim::IReceiver> {
    // Tag 0 is the cold-add sentinel; anything else must be a receiver
    // manifest this harness can serve.
    if (tag != 0 && tag != store::proto_tag_of("stenning-receiver")) {
      return nullptr;
    }
    return proto::make_stenning(kDomain).receiver;
  };
  fc.expected_for = [seq_len = cfg.seq_len](std::uint32_t sid) {
    return seq_for(sid, seq_len);
  };
  fc.stores_for = [&stores](std::uint32_t id) {
    return std::vector<store::IStableStore*>{stores[id - 1].get()};
  };
  fc.probe_for = [&recorders](std::uint32_t id) -> obs::IProbe* {
    return recorders[id - 1].get();
  };
  fabric::Fabric fab(fc);

  // Each sender withholds its last item until every crash has fired or
  // been dropped, so an anchored crash always lands on live sessions.
  LastItemGate gate;
  net::MuxConfig client_cfg = cfg.mux;
  client_cfg.probe = nullptr;
  client_cfg.session_stores.clear();
  client_cfg.backend_id = 0;
  net::StpClient client(fab.client_endpoint(), client_cfg);
  for (std::size_t i = 0; i < cfg.sessions; ++i) {
    const std::uint32_t sid = static_cast<std::uint32_t>(i + 1);
    const seq::Sequence x = seq_for(sid, cfg.seq_len);
    // Stenning's data frame for the last item: seqno * |D| + item.
    const sim::MsgId last =
        x.empty() ? -1
                  : static_cast<sim::MsgId>(x.size() - 1) * kDomain + x.back();
    fab.add_session(sid);
    client.add_session(
        sid, gate.wrap(proto::make_stenning(kDomain, true).sender, last), x);
  }

  // Script the plan as a switch list (window faults get an on and an off
  // edge).  An edge is due `at` after its action's anchor: traffic start,
  // or the moment the anchor backend's recorder had seen `after_items`
  // writes.
  using Clock = std::chrono::steady_clock;
  struct Edge {
    std::chrono::milliseconds at;
    std::size_t action;  // index into `actions`
    bool on;
  };
  std::vector<FabricFaultAction> actions;
  std::vector<Edge> edges;
  for (const FabricFaultAction& a : cfg.plan.actions) {
    const bool windowed = a.kind != FabricFaultKind::kBackendCrash &&
                          a.kind != FabricFaultKind::kRejoin;
    if (!is_partition_fault(a.kind) &&
        (a.backend < 1 || a.backend > cfg.backends)) {
      continue;
    }
    if (a.after_items > 0 &&
        (a.after_backend < 1 || a.after_backend > cfg.backends)) {
      continue;
    }
    edges.push_back({a.at, actions.size(), true});
    if (windowed) edges.push_back({a.at + a.len, actions.size(), false});
    actions.push_back(a);
  }

  fab.start();
  client.mux().start();
  const auto t0 = Clock::now();
  // Per action: when its anchor was reached (nullopt: not yet).
  std::vector<std::optional<Clock::time_point>> anchor(actions.size());
  const auto due = [&](const Edge& e) { return *anchor[e.action] + e.at; };
  std::vector<std::uint32_t> crashed;
  std::vector<std::uint32_t> rejoined;  // handshake acked; reclaim pending
  const auto fire = [&](const Edge& e) {
    const FabricFaultAction& a = actions[e.action];
    switch (a.kind) {
      case FabricFaultKind::kBackendCrash:
        if (e.on) {
          res.crash_active.push_back(fab.kill_backend(a.backend));
          crashed.push_back(a.backend);
        }
        break;
      case FabricFaultKind::kProbeBlackout:
        fab.set_probe_blackout(a.backend, e.on);
        break;
      case FabricFaultKind::kRouterSplit:
        fab.set_data_split(a.backend, e.on);
        break;
      case FabricFaultKind::kPartition:
      case FabricFaultKind::kPartitionOneWay:
        apply_partition(fab, cfg.backends, a, e.on);
        break;
      case FabricFaultKind::kRejoin:
        // A rejoin that cannot be acked (backend alive, link partitioned
        // for the whole window, ...) just leaves the cell dead; that is
        // the protocol's answer, not a harness failure.
        if (e.on && fab.rejoin_backend(a.backend)) {
          rejoined.push_back(a.backend);
        }
        break;
    }
  };
  const auto open_gate_once_crashes_done = [&] {
    const bool crash_pending =
        std::any_of(edges.begin(), edges.end(), [&](const Edge& e) {
          return actions[e.action].kind == FabricFaultKind::kBackendCrash;
        });
    if (!crash_pending) gate.open();
  };
  open_gate_once_crashes_done();
  // Poll the anchors and fire every due edge in due order.  An anchor that
  // can no longer be reached (the client is done or every live session is
  // parked at the closed gate, or the drain budget is spent) drops its
  // action's edges unfired.
  const auto plan_deadline = t0 + cfg.drain_timeout;
  while (!edges.empty()) {
    const auto now = Clock::now();
    const bool stalled =
        !gate.is_open() && gate.parked() >= client.mux().active_sessions();
    const bool over =
        client.mux().all_terminal() || stalled || now >= plan_deadline;
    bool pending = false;  // an anchor still being watched
    for (std::size_t i = 0; i < actions.size(); ++i) {
      if (anchor[i]) continue;
      const FabricFaultAction& a = actions[i];
      if (a.after_items == 0) {
        anchor[i] = t0;
      } else if (recorders[a.after_backend - 1]->items() >= a.after_items) {
        anchor[i] = now;
      } else {
        pending = pending || !over;
      }
    }
    std::vector<Edge> ready;
    std::erase_if(edges, [&](const Edge& e) {
      if (!anchor[e.action]) return !pending;  // unreachable: dropped
      if (due(e) > now) return false;
      ready.push_back(e);
      return true;
    });
    std::stable_sort(ready.begin(), ready.end(),
                     [&](const Edge& a, const Edge& b) {
                       return due(a) < due(b);
                     });
    for (const Edge& e : ready) fire(e);
    open_gate_once_crashes_done();
    // Sleep to the next due edge, or one poll while an anchor is watched.
    auto wake = pending ? now + std::chrono::microseconds(50)
                        : Clock::time_point::max();
    for (const Edge& e : edges) {
      if (anchor[e.action]) wake = std::min(wake, due(e));
    }
    if (!edges.empty()) std::this_thread::sleep_until(wake);
  }

  // Death rides on heartbeat silence, not traffic: a crash that lands
  // after the last frame still MUST be detected and re-homed.  Wait for
  // the supervisor to record every scripted crash (ok or not) before
  // draining, so `rehomes` is deterministic rather than a race between
  // session completion and the strike ladder.  Likewise every acked
  // rejoin must produce a reclaim record (the probation window plus the
  // release/reclaim absorbs run behind the supervisor thread).
  const auto fence_deadline =
      std::chrono::steady_clock::now() + cfg.drain_timeout;
  for (const std::uint32_t b : crashed) {
    // A crashed backend that rejoined before the strike ladder condemned
    // it never produces a rehome record; its reclaim record is the
    // terminal event instead.
    const bool came_back = group_has(rejoined, b);
    for (;;) {
      const auto recs = fab.rehomes();
      bool seen = std::any_of(
          recs.begin(), recs.end(),
          [b](const fabric::RehomeRecord& r) { return r.dead == b; });
      if (came_back) {
        const auto recl = fab.reclaims();
        seen = seen || std::any_of(recl.begin(), recl.end(),
                                   [b](const fabric::ReclaimRecord& r) {
                                     return r.backend == b;
                                   });
      }
      if (seen || std::chrono::steady_clock::now() >= fence_deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  for (const std::uint32_t b : rejoined) {
    for (;;) {
      const auto recs = fab.reclaims();
      const bool seen = std::any_of(
          recs.begin(), recs.end(),
          [b](const fabric::ReclaimRecord& r) { return r.backend == b; });
      if (seen || std::chrono::steady_clock::now() >= fence_deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  const bool drained = client.mux().drain(cfg.drain_timeout) &&
                       fab.drain(cfg.drain_timeout);
  client.mux().stop();
  fab.stop();

  // --- live verdicts ----------------------------------------------------
  using net::MuxCounter;
  const auto violations = [](const net::SessionMux& mux) {
    const auto st = mux.stats();
    return st[MuxCounter::kSessionsViolated] +
           st[MuxCounter::kSessionsRecoveryViolated];
  };
  res.completed = client.mux().stats()[MuxCounter::kSessionsCompleted];
  res.live_violations = violations(client.mux());
  for (std::size_t i = 0; i < cfg.backends; ++i) {
    const auto id = static_cast<std::uint32_t>(i + 1);
    if (fab.cell(id).killed()) continue;  // fenced: sessions moved away
    res.live_violations += violations(fab.cell(id).server().mux());
  }
  std::size_t failed_rehomes = 0;
  for (const fabric::RehomeRecord& r : fab.rehomes()) {
    if (!r.ok) {
      ++failed_rehomes;
      continue;
    }
    ++res.rehomes;
    res.restore_latency_us.push_back(r.absorb.latency_us);
    res.rehydrate_us.push_back(r.absorb.rehydrate_us);
  }
  res.rejoins = rejoined.size();
  std::size_t failed_reclaims = 0;
  for (const fabric::ReclaimRecord& r : fab.reclaims()) {
    if (!r.ok) {
      ++failed_reclaims;
      continue;
    }
    ++res.reclaims;
    res.reclaim_latency_us.push_back(r.absorb.latency_us);
  }
  res.router = fab.router().stats();

  // --- offline attestation over the merged per-backend trace ------------
  std::vector<fabric::TracePart> parts;
  for (auto& rec : recorders) {
    parts.push_back({rec->epoch_offset_us(), rec->drain()});
  }
  analysis::TraceContext ctx;
  for (std::size_t i = 0; i < cfg.sessions; ++i) {
    ctx.expected_items[static_cast<std::uint32_t>(i + 1)] = cfg.seq_len;
  }
  analysis::TracePipeline pipe;
  pipe.add(analysis::make_prefix_attestor())
      .add(analysis::make_rehydration_analyzer());
  res.merged_trace = fabric::merge_backend_traces(parts);
  res.trace = pipe.run(res.merged_trace, ctx);

  if (!drained) {
    res.failure = "drain timeout: sessions never all completed";
  } else if (res.completed != cfg.sessions) {
    res.failure = "client completed " + std::to_string(res.completed) +
                  " of " + std::to_string(cfg.sessions) + " sessions";
  } else if (res.live_violations != 0) {
    res.failure = std::to_string(res.live_violations) +
                  " live safety/recovery violations";
  } else if (failed_rehomes != 0) {
    res.failure = "re-home found no alive survivor";
  } else if (failed_reclaims != 0) {
    res.failure = "rejoin reclaim failed to absorb";
  } else if (res.rejoins != res.reclaims) {
    res.failure = "acked rejoin never produced a reclaim record";
  } else if (!res.trace.ok) {
    res.failure = "merged trace failed prefix attestation";
  } else {
    res.ok = true;
  }
  return res;
}

FabricFaultPlan sample_fabric_plan(std::uint64_t seed,
                                   std::size_t backends) {
  Rng rng(seed ^ kPlanSalt);
  FabricFaultPlan plan;
  const std::size_t n = 1 + rng.below(3);
  std::size_t crashes = 0;
  const std::size_t max_crashes = backends > 1 ? backends - 1 : 0;
  for (std::size_t i = 0; i < n; ++i) {
    FabricFaultAction a;
    const std::uint64_t pick = rng.below(4);
    if (pick <= 1 && crashes < max_crashes) {
      a.kind = FabricFaultKind::kBackendCrash;
      ++crashes;
    } else if (pick == 2 || max_crashes == 0) {
      a.kind = FabricFaultKind::kProbeBlackout;
    } else {
      a.kind = FabricFaultKind::kRouterSplit;
    }
    a.backend = static_cast<std::uint32_t>(1 + rng.below(backends));
    // A few items in, so the fault hits live traffic however fast the
    // run is.
    a.after_backend = a.backend;
    a.after_items = 1 + rng.below(8);
    a.len = std::chrono::milliseconds(30 + rng.below(90));
    plan.actions.push_back(a);
  }
  return plan;
}

FabricFaultPlan sample_resilience_plan(std::uint64_t seed,
                                       std::size_t backends) {
  Rng rng(seed ^ kResilienceSalt);
  FabricFaultPlan plan;
  if (backends < 2) return sample_fabric_plan(seed, backends);

  // The spine of every trial: one crash a few items into the victim's
  // traffic, one rejoin of the same backend far enough after it that the
  // strike ladder condemns it and a re-home completes in between — so the
  // reclaim genuinely crosses three generations of ownership (victim
  // gen-1 -> survivor -> victim gen-2).  Every action counts from the
  // crash's anchor.
  const auto victim = static_cast<std::uint32_t>(1 + rng.below(backends));
  const std::uint64_t crash_items = 1 + rng.below(8);
  const auto anchored = [&](FabricFaultAction a) {
    a.after_backend = victim;
    a.after_items = crash_items;
    plan.actions.push_back(std::move(a));
  };
  FabricFaultAction crash;
  crash.kind = FabricFaultKind::kBackendCrash;
  crash.backend = victim;
  anchored(crash);

  FabricFaultAction rj;
  rj.kind = FabricFaultKind::kRejoin;
  rj.backend = victim;
  rj.at = std::chrono::milliseconds(60 + rng.below(60));
  anchored(rj);

  // Ambient stress, maybe, all on one SURVIVOR so that with three backends
  // another one stays up to take the re-homes.  Never on the victim: it is
  // dead until it rejoins, and a blackout over its probation strikes the
  // rejoin out (a second sticky death), so the acked rejoin would never
  // reclaim.  First a partition window pinning the survivor off the
  // router side (the membership table keeps naming it the owner; the
  // partition is a network fact, not a membership fact) ...
  auto other = static_cast<std::uint32_t>(1 + rng.below(backends));
  if (other == victim) other = victim % backends + 1;
  if (rng.below(2) == 0) {
    FabricFaultAction p;
    p.kind = rng.below(2) == 0 ? FabricFaultKind::kPartition
                               : FabricFaultKind::kPartitionOneWay;
    p.group_a = {0};
    p.group_b = {other};
    p.at = std::chrono::milliseconds(rng.below(40));
    p.len = std::chrono::milliseconds(20 + rng.below(40));
    anchored(p);
  }
  // ... and/or a probe blackout to keep false suspicion in the mix.
  if (rng.below(2) == 0) {
    FabricFaultAction bl;
    bl.kind = FabricFaultKind::kProbeBlackout;
    bl.backend = other;
    bl.at = std::chrono::milliseconds(rng.below(50));
    bl.len = std::chrono::milliseconds(20 + rng.below(60));
    anchored(bl);
  }
  return plan;
}

FabricSoakReport fabric_soak_sweep(const FabricSoakConfig& base,
                                   const std::vector<std::uint64_t>& seeds,
                                   bool resilience) {
  FabricSoakReport rep;
  for (const std::uint64_t seed : seeds) {
    FabricSoakConfig cfg = base;
    cfg.plan = resilience ? sample_resilience_plan(seed, base.backends)
                          : sample_fabric_plan(seed, base.backends);
    const FabricSoakResult r = run_fabric_soak(cfg);
    ++rep.trials;
    rep.total_rehomes += r.rehomes;
    rep.total_reclaims += r.reclaims;
    if (r.ok) {
      ++rep.completed_trials;
    } else {
      rep.failures.push_back({seed, cfg.plan, r.failure});
    }
  }
  return rep;
}

MinimizedFabricPlan minimize_fabric_plan(const FabricSoakConfig& cfg,
                                         const FabricFaultPlan& failing) {
  MinimizedFabricPlan out;
  out.plan = failing;
  bool shrunk = true;
  while (shrunk && !out.plan.actions.empty()) {
    shrunk = false;
    for (std::size_t i = 0; i < out.plan.actions.size(); ++i) {
      FabricFaultPlan cand = out.plan;
      cand.actions.erase(cand.actions.begin() +
                         static_cast<std::ptrdiff_t>(i));
      FabricSoakConfig probe = cfg;
      probe.plan = cand;
      ++out.probe_runs;
      if (!run_fabric_soak(probe).ok) {
        out.plan = std::move(cand);
        shrunk = true;
        break;
      }
    }
  }
  return out;
}

}  // namespace stpx::stp

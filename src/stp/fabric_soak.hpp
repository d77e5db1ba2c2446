// Fabric soak harness: wall-clock fault plans against a live service
// fabric, with counterexample minimization.
//
// The engine-level soak (stp/soak.hpp) scripts faults in *logical* time
// (channel steps) against one protocol instance; the fabric soak scripts
// them in *wall-clock* time against the whole fleet (optionally counted
// from a progress anchor: backend N has written K items), because the
// faults under test — a backend crash, a probe blackout, a split router, a host
// partition, a rejoin — are properties of running threads and heartbeat
// timeouts, not of a deterministic step function.  What stays
// deterministic is the acceptance criterion, which is timing-insensitive:
//
//   * every client session completes (exact copy, live checks), and
//   * the merged per-backend trace attests prefix safety per session
//     ACROSS any re-home or reclaim (the offline attestor re-derives the
//     paper's acceptance criterion from the trace alone), and
//   * no session anywhere ends kSafetyViolation / kRecoveryViolation.
//
// Each client sender withholds its last item (stp::LastItemGate) until
// every crash of the plan has fired or been dropped, so an anchored crash
// always lands on live sessions; a plan without a crash opens the gate at
// start.  An anchor no session can reach any more (every live one is
// parked at the gate) is dropped at once rather than at the drain budget.
//
// A plan that defeats those is a real finding regardless of scheduling
// jitter.  minimize_fabric_plan() shrinks a failing plan to 1-minimal by
// action removal (the fabric analogue of stp::minimize_plan), re-running
// the soak per probe.
//
// The plan vocabulary itself (kinds, scopes, text round-trip) lives in
// fault/fabric_plan.hpp so a minimized counterexample can be written to a
// CI artifact and replayed verbatim; this header re-exports the names the
// existing harnesses use.  The client talks to the router directly, which
// forwards by its membership table alone.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/trace_pipeline.hpp"
#include "fabric/fabric.hpp"
#include "fault/fabric_plan.hpp"

namespace stpx::stp {

// Historical home of the fabric plan grammar; the types moved to
// fault/fabric_plan.hpp (pure data + text round-trip) and these aliases
// keep every existing caller compiling unchanged.
using FabricFaultKind = fault::FabricFaultKind;
using FabricFaultAction = fault::FabricFaultAction;
using FabricFaultPlan = fault::FabricFaultPlan;
using fault::is_partition_fault;
using fault::to_cstr;

/// "backend-crash@20ms b2; probe-blackout@5ms+80ms b1" (empty plan: "-").
/// Delegates to fault::to_text; fault::fabric_plan_from_text inverts it.
std::string to_string(const FabricFaultPlan& plan);

struct FabricSoakConfig {
  std::size_t backends = 3;
  std::size_t sessions = 24;
  std::size_t seq_len = 5;
  fabric::HealthConfig health;
  /// Template for every cell and the client (session_stores /
  /// backend_id / probe are overwritten per mux).  A run takes
  /// milliseconds, so a fault meant to land mid-traffic anchors on
  /// progress ("after bN:K"), not on the clock.
  net::MuxConfig mux;
  /// Wait for completion after the last scripted action.
  std::chrono::milliseconds drain_timeout{60'000};
  FabricFaultPlan plan;
};

struct FabricSoakResult {
  bool ok = false;
  std::string failure;  ///< first violated criterion; empty when ok
  std::size_t completed = 0;      ///< client sessions that completed
  std::size_t live_violations = 0;  ///< safety + recovery, client + cells
  std::size_t rehomes = 0;          ///< successful fence-and-re-homes
  /// Per fired crash, in order: the victim's sessions still active at the
  /// kill (0: the traffic it hosted was over, or it was already fenced).
  std::vector<std::size_t> crash_active;
  std::size_t rejoins = 0;          ///< kJoin handshakes acked
  std::size_t reclaims = 0;         ///< successful rejoin-and-reclaims
  std::vector<std::uint64_t> restore_latency_us;  ///< per re-home absorb
  /// Per re-home absorb: its rehydrate call alone (the log scan and the
  /// restores), without the generation's stop and start around it.
  std::vector<std::uint64_t> rehydrate_us;
  std::vector<std::uint64_t> reclaim_latency_us;  ///< per reclaim absorb
  /// Router drop/forward accounting.
  obs::CounterTable<fabric::RouterCounter>::Snapshot router;
  analysis::TraceReport trace;  ///< merged-trace attestation report
  /// The merged per-backend trace the attestation ran over, in merge
  /// order — what a failing run writes to a CI artifact so the verdict
  /// can be re-derived offline.
  std::vector<obs::TraceEvent> merged_trace;
};

/// One full fabric run under `cfg.plan` (see file comment).
FabricSoakResult run_fabric_soak(const FabricSoakConfig& cfg);

/// Deterministic small random plan for one sweep trial: 1-3 actions,
/// crashes capped at backends-1 so a survivor always exists.  Each action
/// fires once its backend has written 1-8 items.
FabricFaultPlan sample_fabric_plan(std::uint64_t seed,
                                   std::size_t backends);

/// Deterministic resilience plan: a crash → rejoin pair (so every trial
/// exercises reclaim across three generations of ownership) plus up to
/// two ambient faults — a router-side partition window and/or a probe
/// blackout, both on the same survivor.  Partitions scope host 0 (router
/// side) against one backend.  Every action counts from the moment the victim has written 1-8 items,
/// so the crash lands mid-traffic.
FabricFaultPlan sample_resilience_plan(std::uint64_t seed,
                                       std::size_t backends);

struct FabricSoakFailure {
  std::uint64_t seed = 0;
  FabricFaultPlan plan;
  std::string failure;
};

struct FabricSoakReport {
  std::size_t trials = 0;
  std::size_t completed_trials = 0;
  std::size_t total_rehomes = 0;
  std::size_t total_reclaims = 0;
  std::vector<FabricSoakFailure> failures;
  bool clean() const { return failures.empty(); }
};

/// One run_fabric_soak per seed, plan sampled per seed.  `resilience`
/// switches the sampler from sample_fabric_plan (crash/blackout/split)
/// to sample_resilience_plan (crash → rejoin under partitions).
FabricSoakReport fabric_soak_sweep(const FabricSoakConfig& base,
                                   const std::vector<std::uint64_t>& seeds,
                                   bool resilience = false);

struct MinimizedFabricPlan {
  FabricFaultPlan plan;
  std::size_t probe_runs = 0;  ///< soak runs spent shrinking
};

/// Shrink `failing` (which makes run_fabric_soak fail under `cfg`) to a
/// 1-minimal failing plan: removing any single remaining action makes
/// the soak pass.  Each probe is a full fabric run — budget accordingly.
MinimizedFabricPlan minimize_fabric_plan(const FabricSoakConfig& cfg,
                                         const FabricFaultPlan& failing);

}  // namespace stpx::stp

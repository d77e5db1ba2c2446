// Fabric-level fault plans: scripted wall-clock adversaries for the
// service fabric.
//
// The engine-level FaultPlan (fault/plan.hpp) scripts logical-time faults
// against one protocol instance; a FabricFaultPlan scripts wall-clock
// faults against the fleet — crashes, heartbeat blackouts, data splits,
// host-level partitions, and rejoins.  The executor lives in
// stp/fabric_soak.cpp (in-process fleet) and bench/r7_fabric.cpp
// (fork/exec over UDP); this header is plain data + text round-trip, so
// a minimized counterexample can be written to a CI artifact and replayed
// verbatim.
//
// Scope vocabulary: backends are 1..N; host 0 is the router (and
// client) side.  A partition names two host groups and severs
// everything between them for the window — the group containing host 0
// keeps the router, so in practice the backends in the OTHER group drop
// off the fabric (both directions for `partition`, one direction for
// `partition-oneway`: group_a -> group_b traffic is severed, answers
// still flow).
//
// Text grammar (one action per "; " or newline):
//
//   backend-crash@20ms b2
//   probe-blackout@5ms+80ms b1
//   router-split@10ms+30ms b3
//   partition@20ms+40ms 0,1|2,3
//   partition-oneway@20ms+40ms 0|2
//   rejoin@90ms b2
//   backend-crash@0ms b2 after b2:8
//
// Windows also parse in span form "@20ms..60ms" (equivalent to
// "@20ms+40ms"); serialization always emits the +len form.  A trailing
// "after bN:K" anchors the action on progress: its time counts from the
// moment backend N had written K items instead of from traffic start, so
// a fault lands mid-traffic however fast (or slow) the run is.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace stpx::fault {

enum class FabricFaultKind : std::uint8_t {
  kBackendCrash = 0,  ///< kill the backend's mux mid-flight
  kProbeBlackout,     ///< heartbeats vanish, data flows (false suspicion)
  kRouterSplit,       ///< data severed, heartbeats answer (alive but dark)
  kPartition,         ///< host split: everything severed both ways
  kPartitionOneWay,   ///< host split: group_a -> group_b severed only
  kRejoin,            ///< a crashed backend announces a fresh generation
};

constexpr const char* to_cstr(FabricFaultKind k) {
  switch (k) {
    case FabricFaultKind::kBackendCrash: return "backend-crash";
    case FabricFaultKind::kProbeBlackout: return "probe-blackout";
    case FabricFaultKind::kRouterSplit: return "router-split";
    case FabricFaultKind::kPartition: return "partition";
    case FabricFaultKind::kPartitionOneWay: return "partition-oneway";
    case FabricFaultKind::kRejoin: return "rejoin";
  }
  return "?";
}

/// True for the kinds scoped by host groups rather than one backend.
constexpr bool is_partition_fault(FabricFaultKind k) {
  return k == FabricFaultKind::kPartition ||
         k == FabricFaultKind::kPartitionOneWay;
}

/// One scripted fabric fault.  `backend` scopes the single-backend kinds;
/// `group_a`/`group_b` scope the partition kinds (host 0 = router side).
/// Unused fields stay at their defaults so structural equality is
/// well-defined.
struct FabricFaultAction {
  FabricFaultKind kind = FabricFaultKind::kBackendCrash;
  std::uint32_t backend = 1;
  /// When the fault fires, measured from traffic start (or from the
  /// progress anchor below).
  std::chrono::milliseconds at{0};
  /// Window length for blackout/split/partition (crash and rejoin are
  /// instantaneous).
  std::chrono::milliseconds len{0};
  std::vector<std::uint32_t> group_a;
  std::vector<std::uint32_t> group_b;
  /// Progress anchor (off while after_items is 0): `at` counts from the
  /// moment backend `after_backend` had written `after_items` items.
  std::uint32_t after_backend = 0;
  std::uint64_t after_items = 0;

  friend bool operator==(const FabricFaultAction&,
                         const FabricFaultAction&) = default;
};

struct FabricFaultPlan {
  std::vector<FabricFaultAction> actions;

  bool empty() const { return actions.empty(); }
  std::size_t size() const { return actions.size(); }

  friend bool operator==(const FabricFaultPlan&,
                         const FabricFaultPlan&) = default;
};

/// Canonical text form (see file comment); "-" for the empty plan.
std::string to_text(const FabricFaultPlan& plan);

/// Inverse of to_text — also accepts "@start..end" window spans.  Throws
/// ContractError on malformed input.
FabricFaultPlan fabric_plan_from_text(const std::string& text);

}  // namespace stpx::fault

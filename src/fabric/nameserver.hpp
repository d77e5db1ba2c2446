// Nameserver — the queryable front of the membership truth.
//
// PR 8's router consulted the MembershipTable privately: a client could
// only discover ownership changes by throwing frames at the router and
// inferring from silence.  The nameserver makes membership a first-class
// wire service (docs/FABRIC.md, lease semantics):
//
//   client ──kResolve(session)──▶ nameserver
//   nameserver ──kResolveAck(owner | epoch<<32)──▶ client
//
// The answer is a *lease*: owner backend id in the low 32 bits of `msg`,
// the membership epoch in the high 32.  Every ownership rewrite (rehome,
// revive, reclaim) bumps the epoch, so a lease is self-dating: when the
// router must drop a frame (no owner, fenced owner, stale entry) it
// bounces a kNotOwner carrying the CURRENT epoch, and a client whose
// cached lease is older knows to re-resolve instead of retrying into a
// black hole.  Leases are advisory — the router still routes by its own
// table — which keeps the data path lease-free and makes a stale lease a
// latency cost, never a correctness one.
//
// The nameserver answers from the shared MembershipTable under the
// router's pump thread; stats are atomics so any thread may snapshot.
#pragma once

#include <array>
#include <cstdint>

#include "fabric/membership.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"

namespace stpx::fabric {

/// Pack an owner id and membership epoch into a kResolveAck/kNotOwner
/// payload, and back.  The epoch is truncated to 32 bits on the wire; at
/// one bump per ownership rewrite that outlives any soak by orders of
/// magnitude.
constexpr std::int64_t pack_lease(std::uint32_t owner, std::uint64_t epoch) {
  return static_cast<std::int64_t>(
      (static_cast<std::uint64_t>(epoch & 0xFFFFFFFFu) << 32) |
      static_cast<std::uint64_t>(owner));
}
constexpr std::uint32_t lease_owner(std::int64_t msg) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(msg) &
                                    0xFFFFFFFFu);
}
constexpr std::uint64_t lease_epoch(std::int64_t msg) {
  return static_cast<std::uint64_t>(msg) >> 32;
}

/// Every event the nameserver counts (stats() reads them back by this
/// enum).
enum class NameserverCounter : std::uint8_t {
  kResolves,   ///< kResolve queries answered
  kGrants,     ///< answers naming a live, fresh owner
  kUnknowns,   ///< answers with owner 0 (none to name)
  kRedirects,  ///< kNotOwner frames minted
  kCount,
};

/// The counter key of each NameserverCounter (published by the router).
inline constexpr auto kNameserverCounterNames = std::to_array<const char*>({
    "fabric.resolves",
    "fabric.nameserver.grants",
    "fabric.nameserver.unknowns",
    "fabric.redirects",
});

class Nameserver {
 public:
  /// `membership` is shared with the router and supervisor (non-owning).
  explicit Nameserver(MembershipTable* membership);

  /// Answer one kResolve query with a kResolveAck.  Owner 0 means "no
  /// one you should talk to": unknown session, fenced owner, or an owner
  /// entry stamped by a generation that has since been fenced (stale).
  net::Frame answer(const net::Frame& query);

  /// Mint the kNotOwner redirect for a frame the router had to drop —
  /// epoch-tagged so the client can judge its cached lease against it.
  net::Frame redirect(std::uint32_t session);

  std::uint64_t epoch() const;
  obs::CounterTable<NameserverCounter>::Snapshot stats() const {
    return n_.snapshot();
  }

 private:
  MembershipTable* membership_;
  obs::CounterTable<NameserverCounter> n_;
};

}  // namespace stpx::fabric

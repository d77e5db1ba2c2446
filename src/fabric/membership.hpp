// MembershipTable — who owns which session, and who is still alive.
//
// The fabric's routing ground truth: a session id maps to exactly one
// backend id at any moment.  The router consults it per forwarded frame;
// the supervisor rewrites it on re-homing and on reclaim.  All methods
// are thread-safe (one mutex — the table is small and reads are cheap;
// the per-frame lookup is a shared map probe, uncontended except during
// a re-home).
//
// Health here is bookkeeping, not detection: the HealthMonitor decides
// when a backend is suspect or dead (docs/FABRIC.md); the table records
// the verdict so routing and re-homing agree on it.
//
// Two counters fence the rejoin protocol (PR 9):
//
//   * Every backend carries an *incarnation*, bumped by revive().  Owner
//     entries are stamped with the owner's incarnation at assignment
//     time; an entry whose stamp predates the owner's current
//     incarnation is STALE — it was written against a generation that
//     has since been fenced, and a rejoin must never resurrect it.
//     Stale entries route nowhere (the router drops the frame and
//     redirects the client) and pick_survivor() ignores them when
//     weighing load, so a rejoined backend cannot inherit phantom
//     sessions from before its own death.
//   * The table-wide *epoch* bumps on every ownership rewrite (rehome,
//     reclaim-reassign, revive).  The nameserver stamps leases with it;
//     a client holding a lease from an older epoch is redirected rather
//     than silently blackholed (docs/FABRIC.md, lease semantics).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

namespace stpx::fabric {

enum class BackendHealth : std::uint8_t {
  kAlive = 0,
  kSuspect,  // probes timing out, not yet past the strike budget
  kDead,     // declared dead; fenced — only revive() opens the way back
};

constexpr const char* to_cstr(BackendHealth h) {
  switch (h) {
    case BackendHealth::kAlive: return "alive";
    case BackendHealth::kSuspect: return "suspect";
    case BackendHealth::kDead: return "dead";
  }
  return "?";
}

/// One owner lookup, with enough context to judge staleness.
struct OwnerEntry {
  std::uint32_t backend = 0;
  std::uint64_t generation = 0;  ///< owner's incarnation at assignment
  /// True when `generation` predates the owner's current incarnation:
  /// the entry was written against a fenced generation and must not
  /// route (see file comment).
  bool stale = false;
};

class MembershipTable {
 public:
  /// Register a backend (idempotent; starts kAlive, incarnation 1).
  void add_backend(std::uint32_t backend);

  /// Assign (or reassign) one session to a backend; the entry is stamped
  /// with the backend's current incarnation.
  void assign(std::uint32_t session, std::uint32_t backend);

  /// The backend currently owning `session`, or nullopt when unknown.
  /// Stale entries still report their backend — callers that must not
  /// route through a fenced generation use resolve().
  std::optional<std::uint32_t> owner(std::uint32_t session) const;

  /// Owner lookup with the generation stamp and staleness verdict.
  std::optional<OwnerEntry> resolve(std::uint32_t session) const;

  void set_health(std::uint32_t backend, BackendHealth h);
  BackendHealth health(std::uint32_t backend) const;

  /// Move every session owned by `from` onto `to` (restamped with `to`'s
  /// incarnation), mark `from` kDead, bump the epoch.  Returns the
  /// session ids that moved (deterministic id order).
  std::vector<std::uint32_t> rehome(std::uint32_t from, std::uint32_t to);

  /// Open the way back for a fenced backend: bump its incarnation (any
  /// owner entry still stamped with the old one turns stale), mark it
  /// kAlive, bump the epoch.  Returns the new incarnation.  The caller
  /// (the supervisor's reclaim flow) re-assigns reclaimed sessions
  /// afterwards, which restamps them fresh.
  std::uint64_t revive(std::uint32_t backend);

  /// The backend's current incarnation (0 when unknown).
  std::uint64_t incarnation(std::uint32_t backend) const;

  /// Monotonic table epoch: bumps on every ownership rewrite.
  std::uint64_t epoch() const;

  std::vector<std::uint32_t> sessions_of(std::uint32_t backend) const;
  std::vector<std::uint32_t> backends() const;
  /// The backend with the fewest NON-STALE sessions among the alive
  /// ones — or, when none is alive, among the suspect ones — excluding
  /// `not_this` (ties broken by lowest id).  nullopt when every other
  /// backend is dead.  A suspect is not dead: one missed probe under load
  /// makes one, and no re-home is retried, so passing it over would
  /// strand the dead backend's sessions for good.  Stale entries are
  /// ignored — they predate the owner's last fence and represent
  /// sessions that are about to be reclaimed or re-assigned, not real
  /// load.
  std::optional<std::uint32_t> pick_survivor(std::uint32_t not_this) const;

  std::size_t session_count() const;

 private:
  struct Entry {
    std::uint32_t backend = 0;
    std::uint64_t generation = 0;
  };
  struct Backend {
    BackendHealth health = BackendHealth::kAlive;
    std::uint64_t incarnation = 1;
  };

  mutable std::mutex mu_;
  std::map<std::uint32_t, Entry> session_owner_;
  std::map<std::uint32_t, Backend> backends_;
  std::uint64_t epoch_ = 1;
};

}  // namespace stpx::fabric

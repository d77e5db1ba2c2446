#include "fabric/membership.hpp"

#include <utility>

#include "util/expect.hpp"

namespace stpx::fabric {

void MembershipTable::add_backend(std::uint32_t backend) {
  std::lock_guard<std::mutex> hold(mu_);
  backends_.try_emplace(backend, Backend{});
}

void MembershipTable::assign(std::uint32_t session, std::uint32_t backend) {
  std::lock_guard<std::mutex> hold(mu_);
  const auto it = backends_.find(backend);
  STPX_EXPECT(it != backends_.end(),
              "MembershipTable: assign to unknown backend");
  session_owner_[session] = Entry{backend, it->second.incarnation};
}

std::optional<std::uint32_t> MembershipTable::owner(
    std::uint32_t session) const {
  std::lock_guard<std::mutex> hold(mu_);
  const auto it = session_owner_.find(session);
  if (it == session_owner_.end()) return std::nullopt;
  return it->second.backend;
}

std::optional<OwnerEntry> MembershipTable::resolve(
    std::uint32_t session) const {
  std::lock_guard<std::mutex> hold(mu_);
  const auto it = session_owner_.find(session);
  if (it == session_owner_.end()) return std::nullopt;
  OwnerEntry out;
  out.backend = it->second.backend;
  out.generation = it->second.generation;
  const auto b = backends_.find(it->second.backend);
  out.stale =
      b == backends_.end() || b->second.incarnation != it->second.generation;
  return out;
}

void MembershipTable::set_health(std::uint32_t backend, BackendHealth h) {
  std::lock_guard<std::mutex> hold(mu_);
  const auto it = backends_.find(backend);
  STPX_EXPECT(it != backends_.end(),
              "MembershipTable: set_health on unknown backend");
  // Death is sticky: a fenced backend never routes again, even if a late
  // probe ack argues otherwise (split-brain prevention — docs/FABRIC.md).
  // revive() is the one deliberate exception, taken only by the
  // supervisor after the rejoin handshake and probation pass.
  if (it->second.health == BackendHealth::kDead) return;
  it->second.health = h;
}

BackendHealth MembershipTable::health(std::uint32_t backend) const {
  std::lock_guard<std::mutex> hold(mu_);
  const auto it = backends_.find(backend);
  return it == backends_.end() ? BackendHealth::kDead : it->second.health;
}

std::vector<std::uint32_t> MembershipTable::rehome(std::uint32_t from,
                                                   std::uint32_t to) {
  std::lock_guard<std::mutex> hold(mu_);
  const auto th = backends_.find(to);
  STPX_EXPECT(th != backends_.end(),
              "MembershipTable: rehome to unknown backend");
  auto fh = backends_.find(from);
  if (fh != backends_.end()) fh->second.health = BackendHealth::kDead;
  std::vector<std::uint32_t> moved;
  for (auto& [session, entry] : session_owner_) {
    if (entry.backend == from) {
      entry = Entry{to, th->second.incarnation};
      moved.push_back(session);
    }
  }
  ++epoch_;
  return moved;
}

std::uint64_t MembershipTable::revive(std::uint32_t backend) {
  std::lock_guard<std::mutex> hold(mu_);
  const auto it = backends_.find(backend);
  STPX_EXPECT(it != backends_.end(),
              "MembershipTable: revive on unknown backend");
  ++it->second.incarnation;
  it->second.health = BackendHealth::kAlive;
  ++epoch_;
  return it->second.incarnation;
}

std::uint64_t MembershipTable::incarnation(std::uint32_t backend) const {
  std::lock_guard<std::mutex> hold(mu_);
  const auto it = backends_.find(backend);
  return it == backends_.end() ? 0 : it->second.incarnation;
}

std::uint64_t MembershipTable::epoch() const {
  std::lock_guard<std::mutex> hold(mu_);
  return epoch_;
}

std::vector<std::uint32_t> MembershipTable::sessions_of(
    std::uint32_t backend) const {
  std::lock_guard<std::mutex> hold(mu_);
  std::vector<std::uint32_t> out;
  for (const auto& [session, entry] : session_owner_) {
    if (entry.backend == backend) out.push_back(session);
  }
  return out;
}

std::vector<std::uint32_t> MembershipTable::backends() const {
  std::lock_guard<std::mutex> hold(mu_);
  std::vector<std::uint32_t> out;
  out.reserve(backends_.size());
  for (const auto& [id, b] : backends_) {
    (void)b;
    out.push_back(id);
  }
  return out;
}

std::optional<std::uint32_t> MembershipTable::pick_survivor(
    std::uint32_t not_this) const {
  std::lock_guard<std::mutex> hold(mu_);
  std::optional<std::uint32_t> best;
  std::pair<BackendHealth, std::size_t> best_rank;
  for (const auto& [id, b] : backends_) {
    if (id == not_this || b.health == BackendHealth::kDead) continue;
    std::size_t load = 0;
    for (const auto& [session, entry] : session_owner_) {
      (void)session;
      // Stale entries predate the owner's last fence: phantom load a
      // rejoin must not resurrect (see file comment).
      if (entry.backend == id && entry.generation == b.incarnation) ++load;
    }
    // Every alive backend ranks before every suspect one.
    const std::pair rank{b.health, load};
    if (!best || rank < best_rank) {
      best = id;
      best_rank = rank;
    }
  }
  return best;
}

std::size_t MembershipTable::session_count() const {
  std::lock_guard<std::mutex> hold(mu_);
  return session_owner_.size();
}

}  // namespace stpx::fabric

#include "fabric/health.hpp"

namespace stpx::fabric {

void HealthMonitor::add_backend(std::uint32_t id, time_point now) {
  Backend b;
  b.timeout = cfg_.probe_timeout;
  b.next_due = now;  // first probe due immediately
  backends_.emplace(id, b);
}

void HealthMonitor::advance(Backend& b, time_point now) {
  if (b.health == BackendHealth::kDead || b.paused || !b.outstanding) return;
  if (now < b.sent_at + b.timeout) return;
  // The outstanding probe expired: charge a strike, double the timeout,
  // and make the retry due immediately (the backoff lives in the grown
  // timeout, not in extra idle time — a recovering backend is re-probed
  // promptly but given longer to answer).
  b.outstanding = false;
  ++b.strikes;
  ++stats_.timeouts;
  b.timeout *= 2;
  b.next_due = now;
  if (b.strikes >= kMaxStrikes) {
    b.health = BackendHealth::kDead;
    ++stats_.deaths;
    if (b.probation_owed > 0) {
      // Striking out mid-probation is a second death; the supervisor
      // learns of it through the ordinary death event, and a fresh
      // rejoin() is the only way to try again.
      b.probation_owed = 0;
      ++stats_.probation_failures;
    }
  } else {
    b.health = BackendHealth::kSuspect;
  }
}

std::optional<std::int64_t> HealthMonitor::next_probe(std::uint32_t id,
                                                      time_point now) {
  const auto it = backends_.find(id);
  if (it == backends_.end()) return std::nullopt;
  Backend& b = it->second;
  advance(b, now);
  if (b.health == BackendHealth::kDead || b.paused) return std::nullopt;
  if (b.outstanding || now < b.next_due) return std::nullopt;
  b.outstanding = true;
  b.nonce = next_nonce_++;
  b.sent_at = now;
  ++stats_.probes_sent;
  return b.nonce;
}

void HealthMonitor::on_ack(std::uint32_t id, std::int64_t nonce,
                           time_point now) {
  const auto it = backends_.find(id);
  if (it == backends_.end()) {
    ++stats_.late_or_stray_acks;
    return;
  }
  Backend& b = it->second;
  // A probe answered during a maintenance pause is neither late nor
  // stray: set_paused() cleared `outstanding`, so the ack is simply the
  // in-flight answer to a probe we stopped caring about.  Ignore it
  // without prejudice — counting it as late_or_stray would make every
  // planned restart look like probe trouble.
  if (b.paused) return;
  advance(b, now);
  // Death is sticky; an ack for a stale nonce proves nothing about the
  // probe we are actually waiting on (it may have been queued for ages).
  if (b.health == BackendHealth::kDead || !b.outstanding ||
      nonce != b.nonce) {
    ++stats_.late_or_stray_acks;
    return;
  }
  b.outstanding = false;
  b.strikes = 0;
  b.timeout = cfg_.probe_timeout;
  b.next_due = now + cfg_.probe_interval;
  ++stats_.acks;
  if (b.probation_owed > 0) {
    // Probation lifts only on consecutive answered probes; a timeout in
    // between restarts nothing (strikes reset on ack anyway) but the
    // verdict stays kSuspect until the full run is in.
    if (--b.probation_owed == 0) {
      b.health = BackendHealth::kAlive;
      ++stats_.probation_passes;
    } else {
      b.health = BackendHealth::kSuspect;
    }
    return;
  }
  b.health = BackendHealth::kAlive;
}

void HealthMonitor::set_paused(std::uint32_t id, bool paused,
                               time_point now) {
  const auto it = backends_.find(id);
  if (it == backends_.end()) return;
  Backend& b = it->second;
  if (b.paused == paused) return;
  b.paused = paused;
  if (b.health == BackendHealth::kDead) return;  // sticky either way
  b.outstanding = false;
  b.strikes = 0;
  b.timeout = cfg_.probe_timeout;
  // A deliberate maintenance window supersedes probation: the supervisor
  // only pauses a backend it is restarting on purpose, which is as much
  // of a liveness attestation as a probe run would be.
  b.probation_owed = 0;
  b.health = BackendHealth::kAlive;
  if (!paused) b.next_due = now + cfg_.probe_interval;
}

bool HealthMonitor::rejoin(std::uint32_t id, time_point now) {
  const auto it = backends_.find(id);
  if (it == backends_.end()) return false;
  Backend& b = it->second;
  if (b.health != BackendHealth::kDead) return false;
  b.health = BackendHealth::kSuspect;
  b.paused = false;
  b.probation_owed = kProbationAcks;
  b.strikes = 0;
  b.timeout = cfg_.probe_timeout;
  b.outstanding = false;
  b.next_due = now;  // first probation probe due immediately
  ++stats_.rejoins;
  return true;
}

bool HealthMonitor::on_probation(std::uint32_t id) const {
  const auto it = backends_.find(id);
  return it != backends_.end() && it->second.probation_owed > 0 &&
         it->second.health != BackendHealth::kDead;
}

BackendHealth HealthMonitor::health(std::uint32_t id, time_point now) {
  const auto it = backends_.find(id);
  if (it == backends_.end()) return BackendHealth::kDead;
  advance(it->second, now);
  return it->second.health;
}

std::uint32_t HealthMonitor::strikes(std::uint32_t id) const {
  const auto it = backends_.find(id);
  return it == backends_.end() ? 0 : it->second.strikes;
}

}  // namespace stpx::fabric

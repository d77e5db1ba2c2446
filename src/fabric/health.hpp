// HealthMonitor — the per-backend heartbeat state machine.
//
// Pure FSM, no threads, no clock of its own: the caller (FabricRouter's
// pump, or a unit test) injects `now` into every call, which makes the
// timeout/retry/backoff ladder deterministic under test.  Per backend:
//
//   idle ── interval elapsed ──▶ probe outstanding (nonce, deadline)
//     ▲                               │
//     │ ack(nonce) ── strikes := 0,   │ deadline passed ── strike++,
//     │   timeout := base ────────────┤   timeout *= 2,
//     │                               │   re-probe immediately
//     └───────────────────────────────┴── strikes == kMaxStrikes ──▶ DEAD
//
// Death is sticky — once declared, the backend is fenced by the fabric
// and not revived by traffic (a late ack is counted but changes
// nothing).  The strike budget with a doubling timeout means a single
// dropped probe datagram costs one quick retry, while a truly dead
// backend is declared after kMaxStrikes = 3 timeouts spanning
// probe_timeout * (1 + 2 + 4) = 7 * probe_timeout.
//
// The one deliberate door back is rejoin(): a dead backend that
// announced itself with a kJoin handshake enters PROBATION — probing
// resumes with a fresh ladder, and only kProbationAcks = 2 consecutive
// answered probes earn kAlive back.  Probation reports kSuspect
// throughout (the membership table keeps the backend fenced until the
// supervisor's reclaim completes), and striking out during probation is
// a second death, sticky as the first.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>

#include "fabric/membership.hpp"

namespace stpx::fabric {

struct HealthConfig {
  /// Gap between heartbeats while the backend answers promptly.
  std::chrono::microseconds probe_interval{2'000};
  /// How long an outstanding probe may go unanswered before a strike.
  std::chrono::microseconds probe_timeout{10'000};
};

/// Per-backend probe accounting snapshot.
struct HealthStats {
  std::uint64_t probes_sent = 0;
  std::uint64_t acks = 0;
  std::uint64_t late_or_stray_acks = 0;
  std::uint64_t timeouts = 0;   // strikes charged
  std::uint64_t deaths = 0;     // backends declared dead
  std::uint64_t rejoins = 0;            // probation windows opened
  std::uint64_t probation_passes = 0;   // probations that earned kAlive
  std::uint64_t probation_failures = 0; // probations that struck out
};

class HealthMonitor {
 public:
  using time_point = std::chrono::steady_clock::time_point;

  /// Strikes (consecutive timeouts) before the backend is declared dead.
  static constexpr std::uint32_t kMaxStrikes = 3;
  /// Consecutive answered probes a rejoining backend must produce before
  /// probation lifts (see file comment).
  static constexpr std::uint32_t kProbationAcks = 2;

  explicit HealthMonitor(HealthConfig cfg = {}) : cfg_(cfg) {}

  /// Register a backend; its first probe is due immediately.
  void add_backend(std::uint32_t id, time_point now);

  /// Advance the FSM for `id`: charge timeouts, then decide whether a
  /// probe should go out now.  Returns the nonce to send, or nullopt when
  /// nothing is due (probe outstanding / interval not yet elapsed / dead).
  std::optional<std::int64_t> next_probe(std::uint32_t id, time_point now);

  /// A kProbeAck carrying `nonce` arrived from `id`.
  void on_ack(std::uint32_t id, std::int64_t nonce, time_point now);

  /// Maintenance pause: while paused no probes go out and no timeouts are
  /// charged — a backend the supervisor is deliberately restarting (the
  /// re-homing absorb window) must not be mistaken for a crash.  Pausing
  /// forgives the strike ladder AND resets the backoff-grown timeout to
  /// base; resuming schedules the next probe one interval out.  An ack
  /// arriving mid-pause is ignored without prejudice (it is neither late
  /// nor stray — we simply were not asking).  Death stays sticky through
  /// both.
  void set_paused(std::uint32_t id, bool paused, time_point now);

  /// Open a probation window for a dead backend (the router calls this
  /// on a kJoin announcement): health becomes kSuspect, the strike
  /// ladder and timeout reset, and the next probe is due immediately.
  /// Only after kProbationAcks CONSECUTIVE answered probes does the
  /// verdict return to kAlive.  No-op unless the backend is dead.
  /// Returns true when a probation window was opened.
  bool rejoin(std::uint32_t id, time_point now);

  /// True while `id` is inside an open probation window.
  bool on_probation(std::uint32_t id) const;

  /// Current verdict (also charges any pending timeout at `now`, so a
  /// caller that stops probing still observes death).
  BackendHealth health(std::uint32_t id, time_point now);

  /// Strikes currently charged against `id` (0 when healthy or unknown).
  std::uint32_t strikes(std::uint32_t id) const;

  HealthStats stats() const { return stats_; }

 private:
  struct Backend {
    BackendHealth health = BackendHealth::kAlive;
    bool paused = false;
    /// Consecutive acks still owed before probation lifts (0 = not on
    /// probation).
    std::uint32_t probation_owed = 0;
    std::uint32_t strikes = 0;
    std::chrono::microseconds timeout{0};  // current, doubled per strike
    bool outstanding = false;
    std::int64_t nonce = 0;
    time_point sent_at{};
    time_point next_due{};  // when the next probe may go out
  };

  /// Charge a timeout strike if the outstanding probe expired.
  void advance(Backend& b, time_point now);

  HealthConfig cfg_;
  std::map<std::uint32_t, Backend> backends_;
  std::int64_t next_nonce_ = 1;
  HealthStats stats_;
};

}  // namespace stpx::fabric

// Transport abstraction: how frames move between two mux endpoints.
//
// An ITransport is one endpoint of a bidirectional, datagram-oriented,
// *unreliable* link: send() hands one encoded frame to the wire, poll()
// retrieves the next frame the peer's sends have made deliverable.  Both
// are non-blocking and thread-safe — the session mux calls send() from
// worker threads while its pump thread polls.  wait(max) is the one call
// that blocks: it returns once poll() may have a datagram, or after `max`,
// so a pump that found nothing sleeps until the wire has work for it
// instead of for a fixed backoff.
//
// The contract is deliberately the paper's channel model, not TCP's:
// frames may be lost, duplicated, and reordered; the only guarantee is
// that a delivered frame is byte-identical to some sent frame (corruption
// is the codec's problem — a frame that fails decode is counted and
// dropped by the mux).  Protocols above the mux already survive exactly
// this fault model, which is the whole point of pairing them.
//
// Implementations:
//   * make_loopback() — in-process, thread-safe queue pair whose loss /
//     duplication / reordering knobs are driven by the fault::FaultPlan
//     grammar (see net/loopback.hpp);
//   * make_udp_pair() — real non-blocking UDP sockets over 127.0.0.1
//     (see net/udp.hpp); gated so environments without sockets fall back
//     to loopback.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace stpx::net {

/// A wall-clock interval during which a transport-level fault window
/// shaped the link (blackout: sends vanish; freeze: delivery pauses).
/// Transports that script faults surface these so trace tooling can
/// overlay them on recorded events (see net/flight_recorder.hpp).
struct WireWindow {
  std::string name;  // e.g. "blackout S->R"
  std::chrono::steady_clock::time_point begin;
  std::chrono::steady_clock::time_point end;
};

class ITransport {
 public:
  virtual ~ITransport() = default;

  /// Hand one datagram to the wire.  Non-blocking; false means the frame
  /// was shed (full queue, unavailable socket) — senders must treat a shed
  /// frame exactly like a lost one.
  virtual bool send(const std::vector<std::uint8_t>& bytes) = 0;

  /// Retrieve the next deliverable datagram, if any.  Non-blocking.
  virtual std::optional<std::vector<std::uint8_t>> poll() = 0;

  /// Block until poll() may have a datagram or until `max` has passed.
  /// It may return early, and a return promises nothing: the caller polls
  /// and, finding nothing, waits again.  The default sleeps for `max`,
  /// so a decorator that does not forward the call keeps that pace.
  virtual void wait(std::chrono::microseconds max) {
    std::this_thread::sleep_for(max);
  }

  virtual std::string name() const = 0;
};

}  // namespace stpx::net

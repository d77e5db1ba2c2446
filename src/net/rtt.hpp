// RttEstimator — one session's round-trip samples and retransmit timeout.
//
// Pure state machine with no clock of its own (like fabric::HealthMonitor):
// the caller injects `now` into every call, so the sampling and backoff
// rules are deterministic under test.  The rules:
//
//   * Karn sampling.  A sample is taken only when exactly one frame went
//     out since the previous inbound frame: the inbound frame then answers
//     that one send.  After a retransmission the answer is ambiguous, so
//     the exchange yields no sample, and a lost frame never shifts the
//     samples of later exchanges.
//   * RFC 6298 smoothing.  srtt and rttvar follow the standard gains (1/8,
//     1/4); rto = srtt + kRttvarWeight * rttvar, clamped to
//     [kMinRto, kMaxRto].  Before the first sample the timeout is
//     kInitialRto.
//   * Backoff.  The first kFreeRetries timeouts after a clean exchange
//     keep the timeout (on a lossy link they are most likely lost
//     frames); every further consecutive timeout doubles it, up to
//     kMaxRto.  The backoff is held until a clean sample arrives — a
//     loaded link keeps its senders backed off instead of re-arming
//     spurious retransmissions — with one exception: after
//     kPeerGoneTimeouts consecutive timeouts with nothing heard, the next
//     inbound frame means the peer came back (a restarted server, a
//     re-homed session) and the backoff collapses at once.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>

namespace stpx::net {

class RttEstimator {
 public:
  using time_point = std::chrono::steady_clock::time_point;
  using micros = std::chrono::microseconds;

  /// Timeout before the first sample.  A cold start of 1024 sessions on
  /// loopback answers in a few milliseconds; a shorter guess retransmits
  /// every session at once, and those copies come back as duplicate acks
  /// that pose as short samples and keep the timeout too low.  A longer
  /// one makes a session whose first frame is lost wait it out.
  static constexpr micros kInitialRto{3'000};
  /// Floor.  A quiet loopback round trip takes tens of microseconds now
  /// that the pumps wait on the transport instead of sleeping, but under
  /// load an answer queues behind other sessions' frames and worker
  /// passes; the floor keeps such a merely late answer from being
  /// retransmitted.  Lowering it moves the item latency p99 and wants its
  /// own measurement.
  static constexpr micros kMinRto{250};
  /// Ceiling of the backed-off timeout: a silent peer costs each session
  /// five frames a second.
  static constexpr micros kMaxRto{200'000};
  /// RFC 6298's K is 4.  Here the samples already include the receiver's
  /// group-commit hold and the scheduling of two pumps and two worker
  /// passes, a heavy but bounded tail; K = 4 put every first
  /// retransmission past the 99th percentile of the round trip and
  /// doubled the item latency p99 on a lossy link.
  /// A spurious retransmission costs one frame and one duplicate ack,
  /// which the mux never answers at once (docs/NETWORK.md).
  static constexpr std::int64_t kRttvarWeight = 2;
  /// Timeouts that retransmit without doubling.  On a link that loses
  /// one frame in five, two losses in a row hit 4 % of exchanges; backing
  /// off from the first timeout put the item latency p99 at four timeouts
  /// instead of three, and a real overload still doubles from the third.
  static constexpr std::uint32_t kFreeRetries = 2;
  /// Consecutive unanswered timeouts after which the peer counts as gone.
  static constexpr std::uint32_t kPeerGoneTimeouts = 2;

  /// What one inbound frame told the estimator.
  struct Heard {
    std::optional<micros> sample;  ///< the unambiguous round trip, if any
    bool peer_returned = false;    ///< the backoff collapsed (see above)
  };

  /// A frame left at `now`.
  void on_send(time_point now);
  /// Frames from the peer arrived at `now`.
  Heard on_receive(time_point now);
  /// The retransmit timer fired with the peer silent: back off.
  void on_timeout();

  /// The current, backed-off retransmit timeout.
  micros rto() const;
  /// Doublings currently applied to the timeout.
  std::uint32_t backoff() const {
    return timeouts_ > kFreeRetries ? timeouts_ - kFreeRetries : 0;
  }
  std::optional<micros> srtt() const {
    return sampled_ ? std::optional<micros>(srtt_) : std::nullopt;
  }

 private:
  std::uint32_t sends_ = 0;            // frames out since the last inbound
  time_point sent_at_{};               // the newest of them
  std::uint32_t silent_timeouts_ = 0;  // timeouts since the last inbound
  std::uint32_t timeouts_ = 0;         // since the last clean sample
  bool sampled_ = false;
  micros srtt_{0};
  micros rttvar_{0};
};

}  // namespace stpx::net

// UdpTransport — real datagram sockets over 127.0.0.1.
//
// make_udp_pair() binds two non-blocking IPv4 UDP sockets on ephemeral
// loopback ports, connects each to the other, and wraps them as ITransport
// endpoints.  UDP natively provides the transport contract (datagrams may
// be lost, duplicated, reordered; delivered ones are intact modulo the
// codec's checksum), so the endpoints are thin syscall wrappers: send()
// that treats EWOULDBLOCK/ENOBUFS as a shed frame, recv() with
// MSG_DONTWAIT for poll(), and ppoll(POLLIN) on the fd for wait().  A
// pending ICMP error also ends a wait; the next poll()'s recv consumes it,
// so a dead peer cannot make a waiting pump spin.
//
// Transient-errno policy: on a connected UDP socket a dead or not-yet-born
// peer surfaces as ECONNREFUSED (the kernel relaying a previous ICMP
// port-unreachable) on send() *and* recv().  That is wire loss, not a
// transport failure — failover hits it constantly (a backend killed
// mid-run keeps its router-side link "connected") — so UdpTransport counts
// it per direction and reports the send as accepted (the frame died on the
// wire; protocols retransmit).  Hard errors (EBADF, ENOTCONN, ...) still
// shed.
//
// Cross-process wiring (the fabric's process harness): make_udp_rendezvous
// binds a socket and exposes its port; the peer process dials it with
// make_udp_connected and sends any datagram as a hello; accept_peer
// connects back to the hello's source address AND answers with a confirm
// datagram (a kProbeAck frame on the reserved fabric session — every mux
// drops stray control kinds, so a leaked confirm is harmless).  After the
// handshake both ends are ordinary connected UdpTransports.
// make_udp_connected_retry is the loss-hardened dialer: it resends the
// hello with jittered exponential backoff (net/retry.hpp) until any
// datagram arrives back, so a dropped hello or confirm costs one backoff
// step instead of deadlocking the fork/exec harness.
//
// Availability is environment-dependent: sandboxed CI runners may forbid
// socket creation.  Every factory probes at runtime and returns
// std::nullopt instead of failing, so callers (tests, benches) fall back
// to the loopback transport — the conformance surface both implementations
// share is what tests/test_net.cpp pins.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "net/retry.hpp"
#include "net/transport.hpp"

namespace stpx::net {

/// Per-endpoint datagram accounting (a consistent-enough atomic snapshot).
struct UdpStats {
  std::uint64_t datagrams_sent = 0;      // accepted by the kernel
  std::uint64_t datagrams_received = 0;  // delivered to poll()
  /// Sends swallowed as wire loss: ECONNREFUSED/EAGAIN/ENOBUFS and kin on
  /// a connected socket.  send() still returns true for these — the frame
  /// is gone, not refused, and retransmission heals it.
  std::uint64_t send_transient_drops = 0;
  std::uint64_t send_sheds = 0;  // hard send errors (send() returned false)
  /// recv() errors that are peer-death echoes (ECONNREFUSED), not data.
  std::uint64_t recv_transient_errors = 0;
};

/// An ITransport over one connected, non-blocking UDP socket.  The fd is
/// immutable after construction and kernel datagram syscalls are atomic
/// per message, so send()/poll()/wait() are thread-safe without a
/// user-space lock.
class UdpTransport final : public ITransport {
 public:
  explicit UdpTransport(int fd);
  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;
  ~UdpTransport() override;

  bool send(const std::vector<std::uint8_t>& bytes) override;
  std::optional<std::vector<std::uint8_t>> poll() override;
  void wait(std::chrono::microseconds max) override;
  std::string name() const override { return "udp"; }

  UdpStats stats() const;
  /// The locally bound port (0 when unavailable).
  std::uint16_t local_port() const { return port_; }

 private:
  struct Counters;
  int fd_;
  std::uint16_t port_ = 0;
  std::unique_ptr<Counters> n_;
};

struct UdpPair {
  std::unique_ptr<UdpTransport> a;
  std::unique_ptr<UdpTransport> b;
};

/// Build a connected UDP endpoint pair, or std::nullopt when the
/// environment cannot create/bind loopback sockets.
std::optional<UdpPair> make_udp_pair();

/// Bind-then-accept half of the cross-process handshake.  port() is what
/// the peer process dials; accept_peer() blocks (bounded by `timeout`)
/// until the first datagram arrives, connects to its source, and returns
/// the transport.  The hello datagram itself is consumed — send a frame
/// the receiver can afford to lose (protocols retransmit anyway).
class UdpRendezvous {
 public:
  UdpRendezvous(const UdpRendezvous&) = delete;
  UdpRendezvous& operator=(const UdpRendezvous&) = delete;
  ~UdpRendezvous();

  std::uint16_t port() const { return port_; }
  std::unique_ptr<UdpTransport> accept_peer(std::chrono::milliseconds timeout);

 private:
  friend std::optional<std::unique_ptr<UdpRendezvous>> make_udp_rendezvous();
  UdpRendezvous(int fd, std::uint16_t port) : fd_(fd), port_(port) {}
  int fd_;
  std::uint16_t port_ = 0;
};

std::optional<std::unique_ptr<UdpRendezvous>> make_udp_rendezvous();

/// Dial half of the handshake: bind an ephemeral socket and connect it to
/// 127.0.0.1:`port`.  Send at least one datagram promptly so the
/// rendezvous side can learn this endpoint's address.
std::optional<std::unique_ptr<UdpTransport>> make_udp_connected(
    std::uint16_t port);

/// Dial with the retrying handshake: hello frames go out under
/// HandshakeRetry's jittered backoff until the rendezvous side's confirm
/// (or any other datagram) arrives.  The confirming datagram is consumed
/// — it is handshake plumbing, not traffic (UDP loss semantics anyway).
/// nullopt when sockets are unavailable OR the attempts are exhausted
/// unconfirmed (nobody answered `port`).
std::optional<std::unique_ptr<UdpTransport>> make_udp_connected_retry(
    std::uint16_t port, RetryConfig retry = {});

/// True when this build/platform has UDP support compiled in at all.
bool udp_supported();

}  // namespace stpx::net

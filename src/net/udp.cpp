#include "net/udp.hpp"

#include "net/frame.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define STPX_HAVE_UDP 1
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>
#endif

#include <atomic>

namespace stpx::net {

struct UdpTransport::Counters {
  std::atomic<std::uint64_t> sent{0}, received{0}, send_transient{0},
      send_sheds{0}, recv_transient{0};
};

#if defined(STPX_HAVE_UDP)

namespace {

/// Errnos that mean "the datagram (or the peer) died on the wire", not
/// "this socket is broken": loss to count, never an error to surface.
/// ECONNREFUSED/ECONNRESET/EHOSTUNREACH/ENETUNREACH are the kernel
/// echoing a dead peer back at a connected socket; EAGAIN/ENOBUFS are a
/// full local queue (shedding == loss to the protocols anyway); EINTR is
/// a signal races the syscall.
bool transient_errno(int err) {
  return err == ECONNREFUSED || err == ECONNRESET || err == EHOSTUNREACH ||
         err == ENETUNREACH || err == EAGAIN || err == EWOULDBLOCK ||
         err == ENOBUFS || err == EINTR;
}

/// Bind a non-blocking UDP socket to an ephemeral 127.0.0.1 port.
/// Returns the fd (>= 0) and fills `addr` with the bound address.
int bind_ephemeral(sockaddr_in& addr) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return -1;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::uint16_t port_of(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

/// The handshake confirm/hello payload: a well-formed kProbeAck on the
/// reserved fabric session, which every consumer already knows to drop
/// (the mux counts stray control kinds as frames_unknown).
std::vector<std::uint8_t> handshake_frame() {
  Frame f;
  f.kind = FrameKind::kProbeAck;
  f.dir = sim::Dir::kReceiverToSender;
  f.session = kFabricSession;
  f.msg = 0;
  return encode(f);
}

}  // namespace

UdpTransport::UdpTransport(int fd)
    : fd_(fd), port_(port_of(fd)), n_(std::make_unique<Counters>()) {}

UdpTransport::~UdpTransport() { ::close(fd_); }

bool UdpTransport::send(const std::vector<std::uint8_t>& bytes) {
  const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_DONTWAIT);
  if (n == static_cast<ssize_t>(bytes.size())) {
    n_->sent.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (n < 0 && transient_errno(errno)) {
    // The frame is gone the way a lost datagram is gone; report it
    // accepted so the mux treats it as wire loss, not backpressure.
    n_->send_transient.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  n_->send_sheds.fetch_add(1, std::memory_order_relaxed);
  return false;
}

std::optional<std::vector<std::uint8_t>> UdpTransport::poll() {
  std::uint8_t buf[512];  // frames are 21 bytes; room for hostile jumbo
  const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
  if (n < 0) {
    // A connected socket regurgitates the peer's death as ECONNREFUSED on
    // recv too; count it apart from the routine empty-queue EWOULDBLOCK.
    if (errno == ECONNREFUSED) {
      n_->recv_transient.fetch_add(1, std::memory_order_relaxed);
    }
    return std::nullopt;
  }
  n_->received.fetch_add(1, std::memory_order_relaxed);
  return std::vector<std::uint8_t>(buf, buf + n);
}

void UdpTransport::wait(std::chrono::microseconds max) {
  pollfd p{};
  p.fd = fd_;
  p.events = POLLIN;
#if defined(__linux__)
  const auto whole = std::chrono::duration_cast<std::chrono::seconds>(max);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(whole.count());
  ts.tv_nsec = static_cast<long>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(max - whole)
          .count());
  ::ppoll(&p, 1, &ts, nullptr);
#else
  // poll() counts milliseconds; round up so the bound is never shortened
  // to a busy spin.
  ::poll(&p, 1, static_cast<int>((max.count() + 999) / 1000));
#endif
}

UdpStats UdpTransport::stats() const {
  UdpStats st;
  st.datagrams_sent = n_->sent.load(std::memory_order_relaxed);
  st.datagrams_received = n_->received.load(std::memory_order_relaxed);
  st.send_transient_drops = n_->send_transient.load(std::memory_order_relaxed);
  st.send_sheds = n_->send_sheds.load(std::memory_order_relaxed);
  st.recv_transient_errors = n_->recv_transient.load(std::memory_order_relaxed);
  return st;
}

bool udp_supported() { return true; }

std::optional<UdpPair> make_udp_pair() {
  sockaddr_in addr_a{};
  sockaddr_in addr_b{};
  const int fd_a = bind_ephemeral(addr_a);
  if (fd_a < 0) return std::nullopt;
  const int fd_b = bind_ephemeral(addr_b);
  if (fd_b < 0) {
    ::close(fd_a);
    return std::nullopt;
  }
  if (::connect(fd_a, reinterpret_cast<const sockaddr*>(&addr_b),
                sizeof(addr_b)) != 0 ||
      ::connect(fd_b, reinterpret_cast<const sockaddr*>(&addr_a),
                sizeof(addr_a)) != 0) {
    ::close(fd_a);
    ::close(fd_b);
    return std::nullopt;
  }
  UdpPair pair;
  pair.a = std::make_unique<UdpTransport>(fd_a);
  pair.b = std::make_unique<UdpTransport>(fd_b);
  return pair;
}

UdpRendezvous::~UdpRendezvous() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<UdpTransport> UdpRendezvous::accept_peer(
    std::chrono::milliseconds timeout) {
  if (fd_ < 0) return nullptr;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::uint8_t buf[512];
  sockaddr_in peer{};
  for (;;) {
    socklen_t len = sizeof(peer);
    const ssize_t n =
        ::recvfrom(fd_, buf, sizeof(buf), MSG_DONTWAIT,
                   reinterpret_cast<sockaddr*>(&peer), &len);
    if (n >= 0) break;  // hello consumed; `peer` holds the dialer
    if (std::chrono::steady_clock::now() >= deadline) return nullptr;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&peer),
                sizeof(peer)) != 0) {
    return nullptr;
  }
  auto t = std::make_unique<UdpTransport>(fd_);
  fd_ = -1;  // ownership moved to the transport
  // Confirm the rendezvous: a retrying dialer stops resending hellos the
  // moment any datagram arrives back.  Plain dialers just see one stray
  // control frame, which every consumer drops.
  t->send(handshake_frame());
  return t;
}

std::optional<std::unique_ptr<UdpRendezvous>> make_udp_rendezvous() {
  sockaddr_in addr{};
  const int fd = bind_ephemeral(addr);
  if (fd < 0) return std::nullopt;
  return std::unique_ptr<UdpRendezvous>(
      new UdpRendezvous(fd, ntohs(addr.sin_port)));
}

std::optional<std::unique_ptr<UdpTransport>> make_udp_connected(
    std::uint16_t port) {
  sockaddr_in addr{};
  const int fd = bind_ephemeral(addr);
  if (fd < 0) return std::nullopt;
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  to.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&to), sizeof(to)) !=
      0) {
    ::close(fd);
    return std::nullopt;
  }
  return std::make_unique<UdpTransport>(fd);
}

std::optional<std::unique_ptr<UdpTransport>> make_udp_connected_retry(
    std::uint16_t port, RetryConfig retry) {
  auto t = make_udp_connected(port);
  if (!t) return std::nullopt;
  const auto hello = handshake_frame();
  HandshakeRetry fsm(retry);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (fsm.should_send(now)) (*t)->send(hello);
    if ((*t)->poll()) {
      // Anything arriving on a connected socket proves the rendezvous
      // side dialed back.  A real (non-confirm) frame is dropped here —
      // that is UDP loss, which the protocols already heal.
      fsm.on_ack();
      return std::move(*t);
    }
    if (fsm.exhausted(std::chrono::steady_clock::now())) {
      return std::nullopt;  // nobody confirmed; the port is likely dead
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

#else  // !STPX_HAVE_UDP

UdpTransport::UdpTransport(int fd)
    : fd_(fd), n_(std::make_unique<Counters>()) {}
UdpTransport::~UdpTransport() = default;
bool UdpTransport::send(const std::vector<std::uint8_t>&) { return false; }
std::optional<std::vector<std::uint8_t>> UdpTransport::poll() {
  return std::nullopt;
}
void UdpTransport::wait(std::chrono::microseconds max) {
  ITransport::wait(max);
}
UdpStats UdpTransport::stats() const { return {}; }

UdpRendezvous::~UdpRendezvous() = default;
std::unique_ptr<UdpTransport> UdpRendezvous::accept_peer(
    std::chrono::milliseconds) {
  return nullptr;
}

bool udp_supported() { return false; }
std::optional<UdpPair> make_udp_pair() { return std::nullopt; }
std::optional<std::unique_ptr<UdpRendezvous>> make_udp_rendezvous() {
  return std::nullopt;
}
std::optional<std::unique_ptr<UdpTransport>> make_udp_connected(
    std::uint16_t) {
  return std::nullopt;
}
std::optional<std::unique_ptr<UdpTransport>> make_udp_connected_retry(
    std::uint16_t, RetryConfig) {
  return std::nullopt;
}

#endif

}  // namespace stpx::net

// ResolverTransport — the client's side of the nameserver protocol, as a
// transport decorator.
//
// StpClient stays lease-ignorant: it is constructed over a
// ResolverTransport wrapping the real client endpoint, and the decorator
// speaks kResolve/kResolveAck/kNotOwner underneath it (the same shape as
// fault::ChaosChannel wrapping a channel):
//
//   * on connect — resolve_now() issues a kResolve per session before
//     traffic starts, so the client begins with a fresh lease;
//   * on send    — a data frame for a session with no cached lease
//     triggers a (rate-limited) kResolve; the data frame itself still
//     passes through, because leases are advisory (the router routes by
//     its own membership table) and holding traffic would add nothing
//     but latency;
//   * on poll    — kResolveAck frames are consumed into the lease cache;
//     kNotOwner frames are consumed and, when they carry an epoch newer
//     than the cached lease, invalidate it and trigger an immediate
//     re-resolve.  That is the epoch fence: a stale lease is redirected,
//     never silently blackholed;
//   * on wait    — forwarded to the inner endpoint, so a client's pump
//     sleeps until the wire has a datagram, as it does without a
//     resolver.
//
// Everything else passes through byte-identical, so the codec's
// corruption guarantees and the mux's accounting are undisturbed.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>

#include "net/frame.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace stpx::fabric {

/// One cached ownership lease.
struct Lease {
  std::uint32_t owner = 0;
  std::uint64_t epoch = 0;
};

/// Every event the resolver counts (stats() reads them back by this
/// enum).  None is published as a metric.
enum class ResolverCounter : std::uint8_t {
  kResolvesSent,
  kLeasesGranted,       ///< acks naming an owner
  kUnknownAnswers,      ///< acks naming no owner
  kRedirectsSeen,       ///< kNotOwner consumed
  kLeaseInvalidations,  ///< stale leases fenced off
  kCount,
};

class ResolverTransport final : public net::ITransport {
 public:
  /// `inner` is the real client endpoint (non-owning, must outlive).
  explicit ResolverTransport(net::ITransport* inner);

  bool send(const std::vector<std::uint8_t>& bytes) override;
  std::optional<std::vector<std::uint8_t>> poll() override;
  /// Forwarded: a control frame ends the wait like data does, and the
  /// next poll() consumes it.
  void wait(std::chrono::microseconds max) override;
  std::string name() const override;

  /// Connect-time query: issue a kResolve for `session` now, ahead of
  /// any traffic.
  void resolve_now(std::uint32_t session);

  /// The cached lease for `session`, if any.
  std::optional<Lease> lease(std::uint32_t session) const;

  obs::CounterTable<ResolverCounter>::Snapshot stats() const {
    return n_.snapshot();
  }

 private:
  using clock = std::chrono::steady_clock;

  /// Issue a kResolve unless one went out within kResolveRetry.
  /// Caller holds mu_.
  void maybe_resolve(std::uint32_t session, clock::time_point now);
  /// Consume one control frame.  Caller holds mu_.
  void on_control(const net::Frame& f);

  net::ITransport* inner_;
  mutable std::mutex mu_;
  std::map<std::uint32_t, Lease> leases_;
  std::map<std::uint32_t, clock::time_point> last_resolve_;
  obs::CounterTable<ResolverCounter> n_;
};

}  // namespace stpx::fabric

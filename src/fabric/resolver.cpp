#include "fabric/resolver.hpp"

#include "fabric/nameserver.hpp"
#include "util/expect.hpp"

namespace stpx::fabric {

using net::Frame;
using net::FrameKind;

namespace {

/// Minimum gap between kResolve re-issues for one session (an unanswered
/// resolve is wire loss; retrying too hot would just add control noise
/// to a congested link).
constexpr std::chrono::microseconds kResolveRetry{2'000};
/// Control frames consumed per poll() before giving the caller an empty
/// answer (starvation bound).
constexpr std::size_t kControlBurst = 16;

}  // namespace

ResolverTransport::ResolverTransport(net::ITransport* inner) : inner_(inner) {
  STPX_EXPECT(inner_ != nullptr, "ResolverTransport: null inner transport");
}

std::string ResolverTransport::name() const {
  return "resolver+" + inner_->name();
}

void ResolverTransport::maybe_resolve(std::uint32_t session,
                                      clock::time_point now) {
  const auto it = last_resolve_.find(session);
  if (it != last_resolve_.end() && now - it->second < kResolveRetry) {
    return;
  }
  last_resolve_[session] = now;
  Frame q;
  q.kind = FrameKind::kResolve;
  q.dir = sim::Dir::kSenderToReceiver;
  q.session = session;
  q.msg = 0;
  inner_->send(net::encode(q));
  n_.add(ResolverCounter::kResolvesSent);
}

void ResolverTransport::on_control(const Frame& f) {
  if (f.kind == FrameKind::kResolveAck) {
    const std::uint32_t owner = lease_owner(f.msg);
    const std::uint64_t epoch = lease_epoch(f.msg);
    if (owner != 0) {
      // Grants only move leases forward: a reordered stale ack must not
      // clobber a newer lease.
      auto& l = leases_[f.session];
      if (epoch >= l.epoch) l = Lease{owner, epoch};
      n_.add(ResolverCounter::kLeasesGranted);
    } else {
      n_.add(ResolverCounter::kUnknownAnswers);
    }
    return;
  }
  // kNotOwner: the router dropped a frame for this session and tells us
  // the current epoch.  A cached lease older than that is fenced off and
  // re-resolved immediately — redirected, not blackholed.
  n_.add(ResolverCounter::kRedirectsSeen);
  const std::uint64_t epoch = lease_epoch(f.msg);
  const auto it = leases_.find(f.session);
  if (it != leases_.end() && it->second.epoch < epoch) {
    leases_.erase(it);
    n_.add(ResolverCounter::kLeaseInvalidations);
    last_resolve_.erase(f.session);  // stale fence beats the rate limit
  }
  maybe_resolve(f.session, clock::now());
}

bool ResolverTransport::send(const std::vector<std::uint8_t>& bytes) {
  if (const auto f = net::decode(bytes)) {
    if ((f->kind == FrameKind::kData || f->kind == FrameKind::kFin) &&
        f->session != net::kFabricSession) {
      std::lock_guard<std::mutex> hold(mu_);
      if (leases_.find(f->session) == leases_.end()) {
        maybe_resolve(f->session, clock::now());
      }
    }
  }
  // Leases are advisory: the frame goes out either way, and the router's
  // own membership table decides where it lands.
  return inner_->send(bytes);
}

std::optional<std::vector<std::uint8_t>> ResolverTransport::poll() {
  for (std::size_t i = 0; i < kControlBurst; ++i) {
    auto bytes = inner_->poll();
    if (!bytes) return std::nullopt;
    const auto f = net::decode(*bytes);
    if (f && (f->kind == FrameKind::kResolveAck ||
              f->kind == FrameKind::kNotOwner)) {
      std::lock_guard<std::mutex> hold(mu_);
      on_control(*f);
      continue;
    }
    return bytes;
  }
  return std::nullopt;
}

void ResolverTransport::wait(std::chrono::microseconds max) {
  inner_->wait(max);
}

void ResolverTransport::resolve_now(std::uint32_t session) {
  std::lock_guard<std::mutex> hold(mu_);
  last_resolve_.erase(session);  // explicit query beats the rate limit
  maybe_resolve(session, clock::now());
}

std::optional<Lease> ResolverTransport::lease(std::uint32_t session) const {
  std::lock_guard<std::mutex> hold(mu_);
  const auto it = leases_.find(session);
  if (it == leases_.end()) return std::nullopt;
  return it->second;
}

}  // namespace stpx::fabric

#include "fabric/nameserver.hpp"

#include "util/expect.hpp"

namespace stpx::fabric {

Nameserver::Nameserver(MembershipTable* membership)
    : membership_(membership) {
  STPX_EXPECT(membership_ != nullptr, "Nameserver: null membership");
}

net::Frame Nameserver::answer(const net::Frame& query) {
  net::Frame ack;
  ack.kind = net::FrameKind::kResolveAck;
  ack.dir = sim::Dir::kReceiverToSender;  // toward the asking client
  ack.session = query.session;
  std::uint32_t owner = 0;
  if (const auto entry = membership_->resolve(query.session)) {
    // A fenced or stale owner is no owner at all: naming it would hand
    // the client a lease on a generation that must never serve again.
    if (!entry->stale &&
        membership_->health(entry->backend) != BackendHealth::kDead) {
      owner = entry->backend;
    }
  }
  ack.msg = pack_lease(owner, membership_->epoch());
  n_.add(NameserverCounter::kResolves);
  n_.add(owner != 0 ? NameserverCounter::kGrants
                    : NameserverCounter::kUnknowns);
  return ack;
}

net::Frame Nameserver::redirect(std::uint32_t session) {
  net::Frame f;
  f.kind = net::FrameKind::kNotOwner;
  f.dir = sim::Dir::kReceiverToSender;
  f.session = session;
  f.msg = pack_lease(0, membership_->epoch());
  n_.add(NameserverCounter::kRedirects);
  return f;
}

std::uint64_t Nameserver::epoch() const { return membership_->epoch(); }

}  // namespace stpx::fabric

// The reordering + deleting channel of 𝒳-STP(del) (paper §2.2, §4).
//
// Environment state per direction is a *multiset*: the number of copies of
// each message sent and not yet delivered (the paper's dlvrble_p vector for
// the deletion case).  deliver() consumes a copy; drop() deletes one — the
// adversary's move.  An optional Bernoulli loss policy deletes each sent
// copy with probability `loss_prob` at send time (statistically equivalent
// to an adversary that deletes independently, used by the cost experiments).
#pragma once

#include "sim/channel_iface.hpp"
#include "util/rng.hpp"

namespace stpx::channel {

class DelChannel final : public sim::IChannel {
 public:
  DelChannel() = default;
  /// loss_prob in [0,1]: probability each sent copy is deleted immediately.
  DelChannel(double loss_prob, std::uint64_t seed);

  void reset() override;
  void send(sim::Dir dir, sim::MsgId msg) override;
  /// Ids in ascending order.
  std::vector<sim::MsgId> deliverable(sim::Dir dir) const override;
  void deliverable_into(sim::Dir dir,
                        std::vector<sim::MsgId>& out) const override;
  std::uint64_t copies(sim::Dir dir, sim::MsgId msg) const override;
  void deliver(sim::Dir dir, sim::MsgId msg) override;
  bool can_drop() const override { return true; }
  void drop(sim::Dir dir, sim::MsgId msg) override;
  std::unique_ptr<sim::IChannel> clone() const override;
  std::string name() const override { return "del-channel"; }

  /// Fault injection: delete every in-flight copy in both directions.
  /// Returns the number of copies deleted.
  std::uint64_t drop_everything();

  /// Total in-flight copies in `dir`.
  std::uint64_t in_flight(sim::Dir dir) const;

 private:
  /// One in-flight id and its copy count (always > 0).
  struct Entry {
    sim::MsgId msg;
    std::uint64_t count;
  };
  /// A direction's multiset: a flat vector sorted by id.  It holds a
  /// handful of ids at a time, so a search beats a node-based map and a
  /// send allocates only when the vector outgrows its capacity.
  using Bag = std::vector<Entry>;

  const Bag& bag(sim::Dir dir) const {
    return pending_[static_cast<std::size_t>(dir)];
  }
  Bag& bag(sim::Dir dir) { return pending_[static_cast<std::size_t>(dir)]; }
  void remove_copy(sim::Dir dir, sim::MsgId msg, const char* what);

  Bag pending_[2];
  double loss_prob_ = 0.0;
  Rng rng_{0};
};

}  // namespace stpx::channel

#include "channel/del_channel.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace stpx::channel {

namespace {

/// The first entry of `bag` whose id is not below `msg`.
template <class Bag>
auto slot(Bag& bag, sim::MsgId msg) {
  return std::lower_bound(
      bag.begin(), bag.end(), msg,
      [](const auto& entry, sim::MsgId id) { return entry.msg < id; });
}

}  // namespace

DelChannel::DelChannel(double loss_prob, std::uint64_t seed)
    : loss_prob_(loss_prob), rng_(seed) {
  STPX_EXPECT(loss_prob >= 0.0 && loss_prob <= 1.0,
              "DelChannel: loss_prob out of [0,1]");
}

void DelChannel::reset() {
  pending_[0].clear();
  pending_[1].clear();
}

void DelChannel::send(sim::Dir dir, sim::MsgId msg) {
  if (loss_prob_ > 0.0 && rng_.chance(loss_prob_)) {
    return;  // the adversary deletes this copy at once
  }
  Bag& b = bag(dir);
  const auto it = slot(b, msg);
  if (it != b.end() && it->msg == msg) {
    ++it->count;
  } else {
    b.insert(it, Entry{msg, 1});
  }
}

std::vector<sim::MsgId> DelChannel::deliverable(sim::Dir dir) const {
  std::vector<sim::MsgId> out;
  deliverable_into(dir, out);
  return out;
}

void DelChannel::deliverable_into(sim::Dir dir,
                                  std::vector<sim::MsgId>& out) const {
  out.clear();
  out.reserve(bag(dir).size());  // one allocation for a fresh `out`
  for (const Entry& e : bag(dir)) out.push_back(e.msg);
}

std::uint64_t DelChannel::copies(sim::Dir dir, sim::MsgId msg) const {
  const auto it = slot(bag(dir), msg);
  return it != bag(dir).end() && it->msg == msg ? it->count : 0;
}

void DelChannel::remove_copy(sim::Dir dir, sim::MsgId msg, const char* what) {
  Bag& b = bag(dir);
  const auto it = slot(b, msg);
  STPX_EXPECT(it != b.end() && it->msg == msg,
              std::string("DelChannel::") + what + ": no copy in flight");
  if (--it->count == 0) b.erase(it);
}

void DelChannel::deliver(sim::Dir dir, sim::MsgId msg) {
  remove_copy(dir, msg, "deliver");
}

void DelChannel::drop(sim::Dir dir, sim::MsgId msg) {
  remove_copy(dir, msg, "drop");
}

std::uint64_t DelChannel::drop_everything() {
  const std::uint64_t dropped = in_flight(sim::Dir::kSenderToReceiver) +
                                in_flight(sim::Dir::kReceiverToSender);
  reset();
  return dropped;
}

std::uint64_t DelChannel::in_flight(sim::Dir dir) const {
  std::uint64_t total = 0;
  for (const Entry& e : bag(dir)) total += e.count;
  return total;
}

std::unique_ptr<sim::IChannel> DelChannel::clone() const {
  return std::make_unique<DelChannel>(*this);
}

}  // namespace stpx::channel

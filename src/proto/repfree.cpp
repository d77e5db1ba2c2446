#include "proto/repfree.hpp"

#include "proto/durable.hpp"
#include "util/expect.hpp"

namespace stpx::proto {

namespace {
constexpr std::int64_t kSenderTag = 131;
constexpr std::int64_t kReceiverTag = 132;
}  // namespace

// ---------------------------------------------------------------- sender --

RepFreeSender::RepFreeSender(int domain_size, RepFreeMode mode)
    : domain_size_(domain_size), mode_(mode) {
  STPX_EXPECT(domain_size >= 1, "RepFreeSender: domain must be non-empty");
}

void RepFreeSender::start(const seq::Sequence& x) {
  STPX_EXPECT(seq::repetition_free(x),
              "RepFreeSender: input must be repetition-free (outside 𝒳)");
  STPX_EXPECT(seq::in_domain(x, seq::Domain{domain_size_}),
              "RepFreeSender: input outside domain");
  x_ = x;
  next_ = 0;
  sent_current_ = false;
}

sim::SenderEffect RepFreeSender::on_step() {
  if (next_ >= x_.size()) return {};  // everything acknowledged
  if (mode_ == RepFreeMode::kDup && sent_current_) {
    // Dup channel: the first copy is replayable forever; sending another
    // identical message would change nothing.
    return {};
  }
  sent_current_ = true;
  return sim::SenderEffect{.send = sim::MsgId{x_[next_]}};
}

void RepFreeSender::on_deliver(sim::MsgId msg) {
  // Only the acknowledgement of the *current* item advances the protocol;
  // acks of earlier items (replayed or reordered) are stale and ignored —
  // repetition-freedom makes the comparison unambiguous.
  if (next_ < x_.size() && msg == sim::MsgId{x_[next_]}) {
    ++next_;
    sent_current_ = false;
  }
}

std::string RepFreeSender::save_state() const {
  util::BlobWriter w;
  w.i64(kSenderTag);
  w.u64(next_);
  return w.str();
}

bool RepFreeSender::restore_state(const std::string& blob) {
  util::BlobReader r(blob);
  std::int64_t tag = 0;
  std::uint64_t next = 0;
  if (!r.i64(tag) || tag != kSenderTag || !r.u64(next) || !r.done()) {
    return false;
  }
  if (next > x_.size()) return false;
  next_ = static_cast<std::size_t>(next);
  // Treat the in-flight copy as lost; dup mode re-sends once, del mode
  // retransmits anyway.
  sent_current_ = false;
  return true;
}

std::unique_ptr<sim::ISender> RepFreeSender::clone() const {
  return std::make_unique<RepFreeSender>(*this);
}

std::string RepFreeSender::name() const {
  return mode_ == RepFreeMode::kDup ? "repfree-dup-sender"
                                    : "repfree-del-sender";
}

// -------------------------------------------------------------- receiver --

RepFreeReceiver::RepFreeReceiver(int domain_size, RepFreeMode mode)
    : domain_size_(domain_size), mode_(mode) {
  STPX_EXPECT(domain_size >= 1, "RepFreeReceiver: domain must be non-empty");
}

void RepFreeReceiver::start() {
  seen_.assign(static_cast<std::size_t>(domain_size_), false);
  written_ = 0;
  pending_writes_.clear();
  pending_acks_.clear();
  last_ack_.reset();
}

sim::ReceiverEffect RepFreeReceiver::on_step() {
  sim::ReceiverEffect eff;
  eff.writes = std::move(pending_writes_);
  pending_writes_.clear();
  written_ += static_cast<std::int64_t>(eff.writes.size());
  if (!pending_acks_.empty()) {
    eff.send = pending_acks_.front();
    pending_acks_.erase(pending_acks_.begin());
  } else if (mode_ == RepFreeMode::kDel && last_ack_) {
    // Deletion channel: the ack may have been deleted; keep re-acking the
    // most recently written item until the sender moves on.
    eff.send = *last_ack_;
  }
  return eff;
}

void RepFreeReceiver::on_deliver(sim::MsgId msg) {
  if (msg < 0 || msg >= domain_size_) return;  // outside M^S: ignore
  const auto idx = static_cast<std::size_t>(msg);
  if (seen_[idx]) return;  // an old message, replayed or reordered: ignore
  seen_[idx] = true;
  pending_writes_.push_back(static_cast<seq::DataItem>(msg));
  pending_acks_.push_back(msg);
  last_ack_ = msg;
}

std::string RepFreeReceiver::save_state() const {
  util::BlobWriter w;
  w.i64(kReceiverTag);
  w.i64(written_);
  std::vector<std::int64_t> seen;
  seen.reserve(seen_.size());
  for (bool b : seen_) seen.push_back(b ? 1 : 0);
  w.vec(seen);
  write_items(w, pending_writes_);
  std::vector<std::int64_t> acks(pending_acks_.begin(), pending_acks_.end());
  w.vec(acks);
  w.i64(last_ack_ ? static_cast<std::int64_t>(*last_ack_) : -1);
  return w.str();
}

bool RepFreeReceiver::restore_state(const std::string& blob,
                                    const seq::Sequence& tape) {
  util::BlobReader r(blob);
  std::int64_t tag = 0;
  std::int64_t written = 0;
  std::vector<std::int64_t> seen;
  std::vector<seq::DataItem> pending;
  std::vector<std::int64_t> acks;
  std::int64_t last = -1;
  if (!r.i64(tag) || tag != kReceiverTag || !r.i64(written) || !r.vec(seen) ||
      !read_items(r, pending) || !r.vec(acks) || !r.i64(last) || !r.done() ||
      written < 0 || seen.size() != static_cast<std::size_t>(domain_size_)) {
    return false;
  }
  if (!all_within(seen, 0, 1) || !all_within(acks, 0, domain_size_ - 1) ||
      last < -1 || last >= domain_size_) {
    return false;
  }
  for (std::size_t i = 0; i < seen.size(); ++i) seen_[i] = seen[i] == 1;
  written_ = written;
  pending_writes_ = std::move(pending);
  pending_acks_.assign(acks.begin(), acks.end());
  last_ack_ = last < 0 ? std::nullopt
                       : std::optional<sim::MsgId>(static_cast<sim::MsgId>(last));
  reconcile_with_tape(written_, pending_writes_, tape);
  // The engine-owned tape is ground truth for what was externalized: even if
  // the recovered record predates some writes, every taped item must stay in
  // seen_ (the only replay defence) and the re-ack target must cover the
  // newest taped item so a stalled sender can still be unstuck.
  for (seq::DataItem item : tape) {
    if (item >= 0 && item < domain_size_) {
      seen_[static_cast<std::size_t>(item)] = true;
    }
  }
  if (!tape.empty()) last_ack_ = sim::MsgId{tape.back()};
  return true;
}

std::unique_ptr<sim::IReceiver> RepFreeReceiver::clone() const {
  return std::make_unique<RepFreeReceiver>(*this);
}

std::string RepFreeReceiver::name() const {
  return mode_ == RepFreeMode::kDup ? "repfree-dup-receiver"
                                    : "repfree-del-receiver";
}

}  // namespace stpx::proto

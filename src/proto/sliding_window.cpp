#include "proto/sliding_window.hpp"

#include <algorithm>

#include "proto/durable.hpp"
#include "util/expect.hpp"

namespace stpx::proto {

namespace {
constexpr std::int64_t kGbnSenderTag = 141;
constexpr std::int64_t kSrSenderTag = 142;
constexpr std::int64_t kSrReceiverTag = 143;
}  // namespace

// ------------------------------------------------------------- go-back-n --

GoBackNSender::GoBackNSender(int domain_size, int window)
    : domain_size_(domain_size), window_(static_cast<std::size_t>(window)) {
  STPX_EXPECT(domain_size >= 1, "GoBackNSender: domain must be non-empty");
  STPX_EXPECT(window >= 1, "GoBackNSender: window must be positive");
}

void GoBackNSender::start(const seq::Sequence& x) {
  STPX_EXPECT(seq::in_domain(x, seq::Domain{domain_size_}),
              "GoBackNSender: input outside domain");
  x_ = x;
  base_ = 0;
  rotate_ = 0;
}

sim::SenderEffect GoBackNSender::on_step() {
  if (base_ >= x_.size()) return {};
  const std::size_t limit = std::min(base_ + window_, x_.size());
  // Rotate through the window so every outstanding item keeps being
  // retransmitted (a deletion channel can eat any individual copy).
  const std::size_t idx = base_ + (rotate_++ % (limit - base_));
  const auto seqno = static_cast<sim::MsgId>(idx);
  return sim::SenderEffect{.send = seqno * domain_size_ + x_[idx]};
}

void GoBackNSender::on_deliver(sim::MsgId msg) {
  STPX_EXPECT(msg >= 0, "GoBackNSender: malformed ack");
  const auto count = static_cast<std::size_t>(msg);  // cumulative: items written
  if (count > base_) {
    base_ = count;
    rotate_ = 0;
  }
}

std::string GoBackNSender::save_state() const {
  util::BlobWriter w;
  w.i64(kGbnSenderTag);
  w.u64(base_);
  return w.str();
}

bool GoBackNSender::restore_state(const std::string& blob) {
  util::BlobReader r(blob);
  std::int64_t tag = 0;
  std::uint64_t base = 0;
  if (!r.i64(tag) || tag != kGbnSenderTag || !r.u64(base) || !r.done()) {
    return false;
  }
  if (base > x_.size()) return false;
  base_ = static_cast<std::size_t>(base);
  rotate_ = 0;  // round-robin cursor is volatile scratch
  return true;
}

std::unique_ptr<sim::ISender> GoBackNSender::clone() const {
  return std::make_unique<GoBackNSender>(*this);
}

// ------------------------------------------------------ selective repeat --

SelectiveRepeatSender::SelectiveRepeatSender(int domain_size, int window)
    : domain_size_(domain_size), window_(static_cast<std::size_t>(window)) {
  STPX_EXPECT(domain_size >= 1,
              "SelectiveRepeatSender: domain must be non-empty");
  STPX_EXPECT(window >= 1, "SelectiveRepeatSender: window must be positive");
}

void SelectiveRepeatSender::start(const seq::Sequence& x) {
  STPX_EXPECT(seq::in_domain(x, seq::Domain{domain_size_}),
              "SelectiveRepeatSender: input outside domain");
  x_ = x;
  base_ = 0;
  acked_.clear();
  rotate_ = 0;
}

sim::SenderEffect SelectiveRepeatSender::on_step() {
  if (base_ >= x_.size()) return {};
  const std::size_t limit = std::min(base_ + window_, x_.size());
  // Collect unacked indices in the window; retransmit round-robin.
  std::vector<std::size_t> outstanding;
  for (std::size_t i = base_; i < limit; ++i) {
    if (acked_.find(i) == acked_.end()) outstanding.push_back(i);
  }
  if (outstanding.empty()) return {};
  const std::size_t idx = outstanding[rotate_++ % outstanding.size()];
  const auto seqno = static_cast<sim::MsgId>(idx);
  return sim::SenderEffect{.send = seqno * domain_size_ + x_[idx]};
}

void SelectiveRepeatSender::on_deliver(sim::MsgId msg) {
  STPX_EXPECT(msg >= 0, "SelectiveRepeatSender: malformed ack");
  acked_.insert(static_cast<std::size_t>(msg));
  while (base_ < x_.size() && acked_.count(base_)) ++base_;
}

std::string SelectiveRepeatSender::save_state() const {
  util::BlobWriter w;
  w.i64(kSrSenderTag);
  w.u64(base_);
  std::vector<std::int64_t> acked(acked_.begin(), acked_.end());
  w.vec(acked);
  return w.str();
}

bool SelectiveRepeatSender::restore_state(const std::string& blob) {
  util::BlobReader r(blob);
  std::int64_t tag = 0;
  std::uint64_t base = 0;
  std::vector<std::int64_t> acked;
  if (!r.i64(tag) || tag != kSrSenderTag || !r.u64(base) || !r.vec(acked) ||
      !r.done()) {
    return false;
  }
  if (base > x_.size() || !all_within(acked, 0)) return false;
  base_ = static_cast<std::size_t>(base);
  acked_.clear();
  for (std::int64_t a : acked) acked_.insert(static_cast<std::size_t>(a));
  // Re-run the cumulative advance in case the record predates it.
  while (base_ < x_.size() && acked_.count(base_)) ++base_;
  rotate_ = 0;
  return true;
}

std::unique_ptr<sim::ISender> SelectiveRepeatSender::clone() const {
  return std::make_unique<SelectiveRepeatSender>(*this);
}

SelectiveRepeatReceiver::SelectiveRepeatReceiver(int domain_size, int window)
    : domain_size_(domain_size), window_(static_cast<std::size_t>(window)) {
  STPX_EXPECT(domain_size >= 1,
              "SelectiveRepeatReceiver: domain must be non-empty");
  STPX_EXPECT(window >= 1, "SelectiveRepeatReceiver: window must be positive");
}

void SelectiveRepeatReceiver::start() {
  written_ = 0;
  buffer_.clear();
  pending_acks_.clear();
  pending_writes_.clear();
}

sim::ReceiverEffect SelectiveRepeatReceiver::on_step() {
  sim::ReceiverEffect eff;
  eff.writes = std::move(pending_writes_);
  pending_writes_.clear();
  written_ += static_cast<std::int64_t>(eff.writes.size());
  if (!pending_acks_.empty()) {
    eff.send = pending_acks_.front();
    pending_acks_.erase(pending_acks_.begin());
  }
  return eff;
}

void SelectiveRepeatReceiver::on_deliver(sim::MsgId msg) {
  STPX_EXPECT(msg >= 0, "SelectiveRepeatReceiver: malformed message");
  const std::int64_t seqno = msg / domain_size_;
  const auto item = static_cast<seq::DataItem>(msg % domain_size_);
  const std::int64_t frontier =
      written_ + static_cast<std::int64_t>(pending_writes_.size());
  // Every arrival is (re-)acknowledged — the sender may be retransmitting
  // because our previous ack was deleted.
  pending_acks_.push_back(sim::MsgId{seqno});
  if (seqno < frontier) return;  // duplicate of something already accepted
  if (seqno >= frontier + static_cast<std::int64_t>(window_)) return;
  buffer_.emplace(seqno, item);  // no-op if already buffered
  // Drain the contiguous run into pending writes.
  auto it = buffer_.find(written_ +
                         static_cast<std::int64_t>(pending_writes_.size()));
  while (it != buffer_.end()) {
    pending_writes_.push_back(it->second);
    buffer_.erase(it);
    it = buffer_.find(written_ +
                      static_cast<std::int64_t>(pending_writes_.size()));
  }
}

std::string SelectiveRepeatReceiver::save_state() const {
  util::BlobWriter w;
  w.i64(kSrReceiverTag);
  w.i64(written_);
  std::vector<std::int64_t> buf;
  buf.reserve(buffer_.size() * 2);
  for (const auto& [seqno, item] : buffer_) {
    buf.push_back(seqno);
    buf.push_back(item);
  }
  w.vec(buf);
  std::vector<std::int64_t> acks(pending_acks_.begin(), pending_acks_.end());
  w.vec(acks);
  write_items(w, pending_writes_);
  return w.str();
}

bool SelectiveRepeatReceiver::restore_state(const std::string& blob,
                                            const seq::Sequence& tape) {
  util::BlobReader r(blob);
  std::int64_t tag = 0;
  std::int64_t written = 0;
  std::vector<std::int64_t> buf;
  std::vector<std::int64_t> acks;
  std::vector<seq::DataItem> pending;
  if (!r.i64(tag) || tag != kSrReceiverTag || !r.i64(written) || !r.vec(buf) ||
      !r.vec(acks) || !read_items(r, pending) || !r.done() || written < 0 ||
      buf.size() % 2 != 0) {
    return false;
  }
  for (std::size_t i = 0; i + 1 < buf.size(); i += 2) {
    if (buf[i] < 0 || buf[i + 1] < 0 || !fits_item(buf[i + 1])) return false;
  }
  if (!all_within(acks, 0)) return false;
  written_ = written;
  buffer_.clear();
  for (std::size_t i = 0; i + 1 < buf.size(); i += 2) {
    buffer_.emplace(buf[i], static_cast<seq::DataItem>(buf[i + 1]));
  }
  pending_acks_.assign(acks.begin(), acks.end());
  pending_writes_ = std::move(pending);
  reconcile_with_tape(written_, pending_writes_, tape);
  // Anything the tape proves externalized is stale in the reorder buffer.
  buffer_.erase(buffer_.begin(), buffer_.lower_bound(written_));
  return true;
}

std::unique_ptr<sim::IReceiver> SelectiveRepeatReceiver::clone() const {
  return std::make_unique<SelectiveRepeatReceiver>(*this);
}

}  // namespace stpx::proto

#include "proto/block.hpp"

#include "proto/durable.hpp"
#include "util/expect.hpp"

namespace stpx::proto {

namespace {

constexpr std::int64_t kSenderTag = 151;
constexpr std::int64_t kReceiverTag = 152;

/// d^b, validated small enough to embed in MsgId comfortably.
std::int64_t power(int d, int b) {
  std::int64_t out = 1;
  for (int i = 0; i < b; ++i) {
    out *= d;
    STPX_EXPECT(out <= (std::int64_t{1} << 40), "block space too large");
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------- sender --

BlockSender::BlockSender(int domain_size, int block_size, int max_len)
    : domain_size_(domain_size),
      block_size_(block_size),
      max_len_(max_len) {
  STPX_EXPECT(domain_size >= 1, "BlockSender: domain must be non-empty");
  STPX_EXPECT(block_size >= 1, "BlockSender: block size must be positive");
  STPX_EXPECT(max_len >= 0, "BlockSender: negative max length");
  (void)power(domain_size_, block_size_);  // validate
}

int BlockSender::alphabet_size() const {
  return static_cast<int>(2 * power(domain_size_, block_size_)) + max_len_ +
         1;
}

void BlockSender::start(const seq::Sequence& x) {
  STPX_EXPECT(seq::in_domain(x, seq::Domain{domain_size_}),
              "BlockSender: input outside domain");
  STPX_EXPECT(x.size() <= static_cast<std::size_t>(max_len_),
              "BlockSender: input longer than max_len");
  x_ = x;
  header_acked_ = false;
  next_block_ = 0;
  block_count_ = (x.size() + static_cast<std::size_t>(block_size_) - 1) /
                 static_cast<std::size_t>(block_size_);
}

sim::MsgId BlockSender::block_message(std::size_t block_index) const {
  const std::int64_t space = power(domain_size_, block_size_);
  std::int64_t content = 0;
  std::int64_t digit = 1;
  for (int j = 0; j < block_size_; ++j) {
    const std::size_t pos =
        block_index * static_cast<std::size_t>(block_size_) +
        static_cast<std::size_t>(j);
    const seq::DataItem item = pos < x_.size() ? x_[pos] : 0;  // padding
    content += digit * item;
    digit *= domain_size_;
  }
  const std::int64_t bit = static_cast<std::int64_t>(block_index % 2);
  return bit * space + content;
}

sim::SenderEffect BlockSender::on_step() {
  if (!header_acked_) {
    // Header: announce |X| so the receiver knows where the padding starts.
    const std::int64_t space = power(domain_size_, block_size_);
    return sim::SenderEffect{
        .send = 2 * space + static_cast<sim::MsgId>(x_.size())};
  }
  if (next_block_ >= block_count_) return {};
  return sim::SenderEffect{.send = block_message(next_block_)};
}

void BlockSender::on_deliver(sim::MsgId msg) {
  if (msg < 0 || msg >= 3) return;  // outside M^R: ignore
  if (msg == 2) {
    header_acked_ = true;
    return;
  }
  if (header_acked_ && next_block_ < block_count_ &&
      msg == static_cast<sim::MsgId>(next_block_ % 2)) {
    ++next_block_;
  }
}

std::string BlockSender::save_state() const {
  util::BlobWriter w;
  w.i64(kSenderTag);
  w.boolean(header_acked_);
  w.u64(next_block_);
  return w.str();
}

bool BlockSender::restore_state(const std::string& blob) {
  util::BlobReader r(blob);
  std::int64_t tag = 0;
  bool header_acked = false;
  std::uint64_t next_block = 0;
  if (!r.i64(tag) || tag != kSenderTag || !r.boolean(header_acked) ||
      !r.u64(next_block) || !r.done()) {
    return false;
  }
  if (next_block > block_count_) return false;
  header_acked_ = header_acked;
  next_block_ = static_cast<std::size_t>(next_block);
  return true;
}

std::unique_ptr<sim::ISender> BlockSender::clone() const {
  return std::make_unique<BlockSender>(*this);
}

// -------------------------------------------------------------- receiver --

BlockReceiver::BlockReceiver(int domain_size, int block_size, int max_len)
    : domain_size_(domain_size),
      block_size_(block_size),
      max_len_(max_len) {
  STPX_EXPECT(domain_size >= 1, "BlockReceiver: domain must be non-empty");
  STPX_EXPECT(block_size >= 1, "BlockReceiver: block size must be positive");
  STPX_EXPECT(max_len >= 0, "BlockReceiver: negative max length");
  (void)power(domain_size_, block_size_);
}

void BlockReceiver::start() {
  expected_len_ = -1;
  expected_bit_ = 0;
  received_items_ = 0;
  write_queue_.clear();
  pending_acks_.clear();
}

sim::ReceiverEffect BlockReceiver::on_step() {
  sim::ReceiverEffect eff;
  // The §2.4 point: the model writes ONE item per step, however many a
  // message conveyed — knowledge runs ahead of the output tape.
  if (!write_queue_.empty()) {
    eff.writes.push_back(write_queue_.front());
    write_queue_.erase(write_queue_.begin());
  }
  if (!pending_acks_.empty()) {
    eff.send = pending_acks_.front();
    pending_acks_.erase(pending_acks_.begin());
  }
  return eff;
}

void BlockReceiver::on_deliver(sim::MsgId msg) {
  const std::int64_t space = power(domain_size_, block_size_);
  if (msg < 0 || msg > 2 * space + max_len_) return;  // outside M^S: ignore
  if (msg >= 2 * space) {
    // Header.
    if (expected_len_ < 0) expected_len_ = msg - 2 * space;
    pending_acks_.push_back(2);
    return;
  }
  const int bit = static_cast<int>(msg / space);
  std::int64_t content = msg % space;
  pending_acks_.push_back(sim::MsgId{bit});
  if (expected_len_ < 0 || bit != expected_bit_) return;  // stale block
  // Decode the block; accept only the non-padding positions.
  for (int j = 0; j < block_size_; ++j) {
    const auto item = static_cast<seq::DataItem>(content % domain_size_);
    content /= domain_size_;
    if (static_cast<std::int64_t>(received_items_) < expected_len_) {
      write_queue_.push_back(item);
      ++received_items_;
    }
  }
  expected_bit_ ^= 1;
}

std::string BlockReceiver::save_state() const {
  util::BlobWriter w;
  w.i64(kReceiverTag);
  w.i64(expected_len_);
  w.i64(expected_bit_);
  w.u64(received_items_);
  write_items(w, write_queue_);
  std::vector<std::int64_t> acks(pending_acks_.begin(), pending_acks_.end());
  w.vec(acks);
  return w.str();
}

bool BlockReceiver::restore_state(const std::string& blob,
                                  const seq::Sequence& tape) {
  util::BlobReader r(blob);
  std::int64_t tag = 0;
  std::int64_t expected_len = -1;
  std::int64_t expected_bit = 0;
  std::uint64_t received = 0;
  std::vector<seq::DataItem> queue;
  std::vector<std::int64_t> acks;
  if (!r.i64(tag) || tag != kReceiverTag || !r.i64(expected_len) ||
      !r.i64(expected_bit) || !r.u64(received) || !read_items(r, queue) ||
      !r.vec(acks) || !r.done() || expected_len < -1 ||
      expected_len > max_len_ || (expected_bit != 0 && expected_bit != 1) ||
      received < queue.size() || !all_within(acks, 0, 2)) {
    return false;
  }
  expected_len_ = expected_len;
  expected_bit_ = static_cast<int>(expected_bit);
  // The accepted count splits into externalized writes plus the queue; let
  // the tape arbitrate the externalized part, then restore the invariant
  // received_items_ == written + |write_queue_|.
  std::int64_t written =
      static_cast<std::int64_t>(received) -
      static_cast<std::int64_t>(queue.size());
  reconcile_with_tape(written, queue, tape);
  write_queue_ = std::move(queue);
  received_items_ = static_cast<std::size_t>(written) + write_queue_.size();
  pending_acks_.assign(acks.begin(), acks.end());
  return true;
}

std::unique_ptr<sim::IReceiver> BlockReceiver::clone() const {
  return std::make_unique<BlockReceiver>(*this);
}

}  // namespace stpx::proto

#include "proto/hybrid.hpp"

#include <algorithm>

#include "proto/durable.hpp"
#include "util/expect.hpp"

namespace stpx::proto {

namespace {
constexpr std::int64_t kSenderTag = 171;
constexpr std::int64_t kReceiverTag = 172;
}  // namespace

// ---------------------------------------------------------------- sender --

HybridSender::HybridSender(int domain_size, int timeout)
    : domain_size_(domain_size), timeout_(timeout) {
  STPX_EXPECT(domain_size >= 1, "HybridSender: domain must be non-empty");
  STPX_EXPECT(timeout >= 1, "HybridSender: timeout must be positive");
}

void HybridSender::start(const seq::Sequence& x) {
  STPX_EXPECT(seq::in_domain(x, seq::Domain{domain_size_}),
              "HybridSender: input outside domain");
  x_ = x;
  next_ = 0;
  bit_ = 0;
  steps_since_progress_ = 0;
  sent_current_ = false;
  rev_idx_ = -1;
  rev_bit_ = 0;
  phase_ = x_.empty() ? HybridPhase::kDone : HybridPhase::kAbp;
}

sim::SenderEffect HybridSender::on_step() {
  switch (phase_) {
    case HybridPhase::kAbp: {
      if (next_ >= x_.size()) {
        phase_ = HybridPhase::kDone;
        return {};
      }
      if (++steps_since_progress_ > timeout_) {
        // Fault detected: abandon ABP and fall back to the whole-sequence
        // reverse transfer on a disjoint alphabet.
        phase_ = HybridPhase::kReverse;
        rev_idx_ = static_cast<std::int64_t>(x_.size()) - 1;
        rev_bit_ = 0;
        return on_step();
      }
      // Send-once-and-wait: the fast path does NOT retransmit — a lost
      // message is what hands control to the recovery path, which is the
      // whole point of the §5 construction.  (A retransmitting fast path
      // would absorb single faults itself and the fallback, whose
      // unboundedness §5 criticizes, would never be exercised.)
      if (sent_current_) return {};
      sent_current_ = true;
      return sim::SenderEffect{
          .send = sim::MsgId{bit_ * domain_size_ + x_[next_]}};
    }
    case HybridPhase::kReverse: {
      if (rev_idx_ < 0) {
        phase_ = HybridPhase::kEnd;
        return on_step();
      }
      return sim::SenderEffect{
          .send = sim::MsgId{2 * domain_size_ + rev_bit_ * domain_size_ +
                             x_[static_cast<std::size_t>(rev_idx_)]}};
    }
    case HybridPhase::kEnd:
      return sim::SenderEffect{.send = sim::MsgId{4 * domain_size_}};
    case HybridPhase::kDone:
      return {};
  }
  return {};
}

void HybridSender::on_deliver(sim::MsgId msg) {
  if (msg < 0 || msg >= 5) return;  // outside M^R: ignore
  switch (phase_) {
    case HybridPhase::kAbp:
      if ((msg == 0 || msg == 1) && next_ < x_.size() && msg == bit_) {
        ++next_;
        bit_ ^= 1;
        steps_since_progress_ = 0;
        sent_current_ = false;
        if (next_ >= x_.size()) phase_ = HybridPhase::kDone;
      }
      break;
    case HybridPhase::kReverse:
      if ((msg == 2 || msg == 3) && msg - 2 == rev_bit_) {
        --rev_idx_;
        rev_bit_ ^= 1;
        if (rev_idx_ < 0) phase_ = HybridPhase::kEnd;
      }
      break;
    case HybridPhase::kEnd:
      if (msg == 4) phase_ = HybridPhase::kDone;
      break;
    case HybridPhase::kDone:
      break;  // stale acks after completion are harmless
  }
}

std::string HybridSender::save_state() const {
  util::BlobWriter w;
  w.i64(kSenderTag);
  w.i64(static_cast<std::int64_t>(phase_));
  w.u64(next_);
  w.i64(bit_);
  w.i64(rev_idx_);
  w.i64(rev_bit_);
  return w.str();
}

bool HybridSender::restore_state(const std::string& blob) {
  util::BlobReader r(blob);
  std::int64_t tag = 0;
  std::int64_t phase = 0;
  std::uint64_t next = 0;
  std::int64_t bit = 0;
  std::int64_t rev_idx = -1;
  std::int64_t rev_bit = 0;
  if (!r.i64(tag) || tag != kSenderTag || !r.i64(phase) || !r.u64(next) ||
      !r.i64(bit) || !r.i64(rev_idx) || !r.i64(rev_bit) || !r.done()) {
    return false;
  }
  if (phase < 0 || phase > 3 || next > x_.size() || (bit != 0 && bit != 1) ||
      rev_idx < -1 || rev_idx >= static_cast<std::int64_t>(x_.size()) ||
      (rev_bit != 0 && rev_bit != 1)) {
    return false;
  }
  phase_ = static_cast<HybridPhase>(phase);
  next_ = static_cast<std::size_t>(next);
  bit_ = static_cast<int>(bit);
  rev_idx_ = rev_idx;
  rev_bit_ = static_cast<int>(rev_bit);
  // Progress/scratch counters are volatile: restart the timeout window and
  // treat any in-flight fast-path copy as lost (worst case the timeout fires
  // again and recovery re-runs, which is safe).
  steps_since_progress_ = 0;
  sent_current_ = false;
  return true;
}

std::unique_ptr<sim::ISender> HybridSender::clone() const {
  return std::make_unique<HybridSender>(*this);
}

// -------------------------------------------------------------- receiver --

HybridReceiver::HybridReceiver(int domain_size) : domain_size_(domain_size) {
  STPX_EXPECT(domain_size >= 1, "HybridReceiver: domain must be non-empty");
}

void HybridReceiver::start() {
  phase_ = HybridPhase::kAbp;
  expected_bit_ = 0;
  written_count_ = 0;
  expected_rev_bit_ = 0;
  rev_buffer_.clear();
  finalized_ = false;
  pending_acks_.clear();
  pending_writes_.clear();
}

sim::ReceiverEffect HybridReceiver::on_step() {
  sim::ReceiverEffect eff;
  eff.writes = std::move(pending_writes_);
  pending_writes_.clear();
  if (!pending_acks_.empty()) {
    eff.send = pending_acks_.front();
    pending_acks_.erase(pending_acks_.begin());
  }
  return eff;
}

void HybridReceiver::on_deliver(sim::MsgId msg) {
  if (msg < 0 || msg > 4 * domain_size_) return;  // outside M^S: ignore
  if (msg < 2 * domain_size_) {
    // ABP data.  Once we have switched to the recovery path, stale fast-path
    // messages are ignored (the paper's variant resumes ABP here; see the
    // header for why we complete recovery instead).
    if (phase_ != HybridPhase::kAbp) return;
    const int bit = static_cast<int>(msg) / domain_size_;
    const auto item = static_cast<seq::DataItem>(msg % domain_size_);
    if (bit == expected_bit_) {
      pending_writes_.push_back(item);
      ++written_count_;
      expected_bit_ ^= 1;
    }
    pending_acks_.push_back(sim::MsgId{bit});
    return;
  }
  if (msg < 4 * domain_size_) {
    // Reverse-transfer data: switch to recovery on first sight.
    if (phase_ == HybridPhase::kAbp) phase_ = HybridPhase::kReverse;
    if (finalized_) return;
    const int bit = static_cast<int>(msg - 2 * domain_size_) / domain_size_;
    const auto item = static_cast<seq::DataItem>(msg % domain_size_);
    if (phase_ == HybridPhase::kReverse && bit == expected_rev_bit_) {
      rev_buffer_.push_back(item);
      expected_rev_bit_ ^= 1;
    }
    pending_acks_.push_back(sim::MsgId{2 + bit});
    return;
  }
  // END marker: the reverse buffer now holds all of X, back to front.
  if (!finalized_) {
    seq::Sequence full(rev_buffer_.rbegin(), rev_buffer_.rend());
    if (written_count_ > full.size()) {
      // A forged/premature END: the buffer is shorter than the prefix we
      // already wrote, so this marker cannot be genuine.  Ignore it and
      // keep collecting the reverse transfer.
      pending_acks_.push_back(sim::MsgId{4});
      return;
    }
    finalized_ = true;
    phase_ = HybridPhase::kDone;
    for (std::size_t i = written_count_; i < full.size(); ++i) {
      pending_writes_.push_back(full[i]);
    }
    written_count_ = full.size();
  }
  pending_acks_.push_back(sim::MsgId{4});
}

std::string HybridReceiver::save_state() const {
  util::BlobWriter w;
  w.i64(kReceiverTag);
  w.i64(static_cast<std::int64_t>(phase_));
  w.i64(expected_bit_);
  w.u64(written_count_);
  w.i64(expected_rev_bit_);
  write_items(w, rev_buffer_);
  w.boolean(finalized_);
  std::vector<std::int64_t> acks(pending_acks_.begin(), pending_acks_.end());
  w.vec(acks);
  write_items(w, pending_writes_);
  return w.str();
}

bool HybridReceiver::restore_state(const std::string& blob,
                                   const seq::Sequence& tape) {
  util::BlobReader r(blob);
  std::int64_t tag = 0;
  std::int64_t phase = 0;
  std::int64_t expected_bit = 0;
  std::uint64_t written_count = 0;
  std::int64_t expected_rev_bit = 0;
  seq::Sequence rev_buffer;
  bool finalized = false;
  std::vector<std::int64_t> acks;
  std::vector<seq::DataItem> pending;
  if (!r.i64(tag) || tag != kReceiverTag || !r.i64(phase) ||
      !r.i64(expected_bit) || !r.u64(written_count) ||
      !r.i64(expected_rev_bit) || !read_items(r, rev_buffer) ||
      !r.boolean(finalized) || !r.vec(acks) || !read_items(r, pending) ||
      !r.done()) {
    return false;
  }
  if (phase < 0 || phase > 3 || (expected_bit != 0 && expected_bit != 1) ||
      (expected_rev_bit != 0 && expected_rev_bit != 1) ||
      written_count < pending.size() || !all_within(acks, 0, 4)) {
    return false;
  }
  phase_ = static_cast<HybridPhase>(phase);
  expected_bit_ = static_cast<int>(expected_bit);
  expected_rev_bit_ = static_cast<int>(expected_rev_bit);
  rev_buffer_ = std::move(rev_buffer);
  finalized_ = finalized;
  pending_acks_.assign(acks.begin(), acks.end());
  // written_count_ is the ACCEPTED count (externalized writes + pending);
  // split off the externalized part, let the tape arbitrate it, and restore
  // the invariant afterwards.
  std::int64_t written = static_cast<std::int64_t>(written_count) -
                         static_cast<std::int64_t>(pending.size());
  reconcile_with_tape(written, pending, tape);
  pending_writes_ = std::move(pending);
  written_count_ = static_cast<std::size_t>(written) + pending_writes_.size();
  return true;
}

std::unique_ptr<sim::IReceiver> HybridReceiver::clone() const {
  return std::make_unique<HybridReceiver>(*this);
}

}  // namespace stpx::proto

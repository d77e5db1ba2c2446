#include "proto/encoded.hpp"

#include <algorithm>

#include "proto/durable.hpp"
#include "util/expect.hpp"

namespace stpx::proto {

namespace {

constexpr std::int64_t kSenderTag = 161;
constexpr std::int64_t kKnowledgeTag = 162;
constexpr std::int64_t kGreedyTag = 163;

/// Index of `x` in the encoding table; throws if absent.
std::size_t table_index(const seq::Encoding& table, const seq::Sequence& x) {
  for (std::size_t i = 0; i < table.inputs.size(); ++i) {
    if (table.inputs[i] == x) return i;
  }
  STPX_EXPECT(false, "encoding table has no entry for input " +
                         seq::to_string(x));
  return 0;  // unreachable
}

bool word_extends(const seq::MsgWord& prefix, const seq::MsgWord& word) {
  if (prefix.size() > word.size()) return false;
  return std::equal(prefix.begin(), prefix.end(), word.begin());
}

// Both receivers carry the same durable fields; share the blob layout.
std::string save_receiver_blob(std::int64_t tag, std::size_t written,
                               const seq::MsgWord& received,
                               const std::vector<seq::DataItem>& pending_writes,
                               const std::vector<sim::MsgId>& pending_acks,
                               const std::optional<sim::MsgId>& last_ack) {
  util::BlobWriter w;
  w.i64(tag);
  w.u64(written);
  std::vector<std::int64_t> recv(received.begin(), received.end());
  w.vec(recv);
  write_items(w, pending_writes);
  std::vector<std::int64_t> acks(pending_acks.begin(), pending_acks.end());
  w.vec(acks);
  w.i64(last_ack ? static_cast<std::int64_t>(*last_ack) : -1);
  return w.str();
}

bool restore_receiver_blob(const std::string& blob, std::int64_t want_tag,
                           int alphabet, const seq::Sequence& tape,
                           std::vector<bool>& seen, seq::MsgWord& received,
                           std::size_t& written,
                           std::vector<seq::DataItem>& pending_writes,
                           std::vector<sim::MsgId>& pending_acks,
                           std::optional<sim::MsgId>& last_ack) {
  util::BlobReader r(blob);
  std::int64_t tag = 0;
  std::uint64_t written_raw = 0;
  std::vector<std::int64_t> recv;
  std::vector<seq::DataItem> pending;
  std::vector<std::int64_t> acks;
  std::int64_t last = -1;
  if (!r.i64(tag) || tag != want_tag || !r.u64(written_raw) || !r.vec(recv) ||
      !read_items(r, pending) || !r.vec(acks) || !r.i64(last) || !r.done() ||
      last < -1 || last >= alphabet || !all_within(recv, 0, alphabet - 1) ||
      !all_within(acks, 0, alphabet - 1)) {
    return false;
  }
  // seen_ is exactly the set of symbols in received_ — rebuild, don't store.
  seen.assign(static_cast<std::size_t>(alphabet), false);
  received.clear();
  for (std::int64_t s : recv) {
    seen[static_cast<std::size_t>(s)] = true;
    received.push_back(static_cast<int>(s));
  }
  pending_acks.assign(acks.begin(), acks.end());
  last_ack = last < 0 ? std::nullopt
                      : std::optional<sim::MsgId>(static_cast<sim::MsgId>(last));
  std::int64_t written64 = static_cast<std::int64_t>(written_raw);
  pending_writes = std::move(pending);
  reconcile_with_tape(written64, pending_writes, tape);
  written = static_cast<std::size_t>(written64);
  return true;
}

}  // namespace

// ---------------------------------------------------------------- sender --

EncodedSender::EncodedSender(EncodingTable table, bool retransmit)
    : table_(std::move(table)), retransmit_(retransmit) {
  STPX_EXPECT(table_ != nullptr, "EncodedSender: null table");
  STPX_EXPECT(table_->alphabet_size >= 1, "EncodedSender: empty alphabet");
}

void EncodedSender::start(const seq::Sequence& x) {
  word_ = table_->words[table_index(*table_, x)];
  next_ = 0;
  sent_current_ = false;
}

sim::SenderEffect EncodedSender::on_step() {
  if (next_ >= word_.size()) return {};
  if (!retransmit_ && sent_current_) return {};
  sent_current_ = true;
  return sim::SenderEffect{.send = sim::MsgId{word_[next_]}};
}

void EncodedSender::on_deliver(sim::MsgId msg) {
  if (next_ < word_.size() && msg == sim::MsgId{word_[next_]}) {
    ++next_;
    sent_current_ = false;
  }
}

std::string EncodedSender::save_state() const {
  util::BlobWriter w;
  w.i64(kSenderTag);
  w.u64(next_);
  return w.str();
}

bool EncodedSender::restore_state(const std::string& blob) {
  util::BlobReader r(blob);
  std::int64_t tag = 0;
  std::uint64_t next = 0;
  if (!r.i64(tag) || tag != kSenderTag || !r.u64(next) || !r.done()) {
    return false;
  }
  if (next > word_.size()) return false;
  next_ = static_cast<std::size_t>(next);
  sent_current_ = false;  // treat the in-flight copy as lost; resend once
  return true;
}

std::unique_ptr<sim::ISender> EncodedSender::clone() const {
  return std::make_unique<EncodedSender>(*this);
}

// ---------------------------------------------------- knowledge receiver --

KnowledgeReceiver::KnowledgeReceiver(EncodingTable table, bool reack)
    : table_(std::move(table)), reack_(reack) {
  STPX_EXPECT(table_ != nullptr, "KnowledgeReceiver: null table");
}

void KnowledgeReceiver::start() {
  seen_.assign(static_cast<std::size_t>(table_->alphabet_size), false);
  received_.clear();
  written_ = 0;
  pending_writes_.clear();
  pending_acks_.clear();
  last_ack_.reset();
}

void KnowledgeReceiver::recompute_knowledge() {
  // Candidates: inputs whose word extends (or equals) what we have received.
  // R knows x_j = d iff every candidate defines position j and agrees it is
  // d.  (An input shorter than j+1 that is itself a candidate means "the
  // sequence may already have ended", so nothing further is known... unless
  // the candidate's word is a *strict* prefix — it still vetoes.)
  const std::size_t already =
      written_ + pending_writes_.size();
  for (std::size_t j = already;; ++j) {
    std::optional<seq::DataItem> agreed;
    bool all_agree = true;
    bool any_candidate = false;
    for (std::size_t i = 0; i < table_->inputs.size(); ++i) {
      if (!word_extends(received_, table_->words[i])) continue;
      any_candidate = true;
      const seq::Sequence& x = table_->inputs[i];
      if (j >= x.size()) {
        all_agree = false;  // this candidate says the sequence ended
        break;
      }
      if (!agreed) {
        agreed = x[j];
      } else if (*agreed != x[j]) {
        all_agree = false;
        break;
      }
    }
    if (!any_candidate || !all_agree || !agreed) break;
    pending_writes_.push_back(*agreed);
  }
}

sim::ReceiverEffect KnowledgeReceiver::on_step() {
  sim::ReceiverEffect eff;
  eff.writes = std::move(pending_writes_);
  pending_writes_.clear();
  written_ += eff.writes.size();
  if (!pending_acks_.empty()) {
    eff.send = pending_acks_.front();
    pending_acks_.erase(pending_acks_.begin());
  } else if (reack_ && last_ack_) {
    eff.send = *last_ack_;
  }
  return eff;
}

void KnowledgeReceiver::on_deliver(sim::MsgId msg) {
  if (msg < 0 || msg >= table_->alphabet_size) return;  // outside M^S: ignore
  const auto idx = static_cast<std::size_t>(msg);
  if (seen_[idx]) return;
  seen_[idx] = true;
  received_.push_back(static_cast<int>(msg));
  pending_acks_.push_back(msg);
  last_ack_ = msg;
  recompute_knowledge();
}

std::string KnowledgeReceiver::save_state() const {
  return save_receiver_blob(kKnowledgeTag, written_, received_,
                            pending_writes_, pending_acks_, last_ack_);
}

bool KnowledgeReceiver::restore_state(const std::string& blob,
                                      const seq::Sequence& tape) {
  if (!restore_receiver_blob(blob, kKnowledgeTag, table_->alphabet_size, tape,
                             seen_, received_, written_, pending_writes_,
                             pending_acks_, last_ack_)) {
    return false;
  }
  // Knowledge is a function of received_; recomputing can only re-derive
  // pending writes the reconciled cursor has not yet covered.
  recompute_knowledge();
  return true;
}

std::unique_ptr<sim::IReceiver> KnowledgeReceiver::clone() const {
  return std::make_unique<KnowledgeReceiver>(*this);
}

// ------------------------------------------------------- greedy receiver --

GreedyReceiver::GreedyReceiver(EncodingTable table, bool reack)
    : table_(std::move(table)), reack_(reack) {
  STPX_EXPECT(table_ != nullptr, "GreedyReceiver: null table");
}

void GreedyReceiver::start() {
  seen_.assign(static_cast<std::size_t>(table_->alphabet_size), false);
  received_.clear();
  written_ = 0;
  pending_writes_.clear();
  pending_acks_.clear();
  last_ack_.reset();
}

void GreedyReceiver::recompute_guess() {
  // Commit to the first candidate whose word the received word is a prefix
  // of, and optimistically write as far as the received word "pays for":
  // after k received symbols of a |w|-symbol word for an n-item input, write
  // floor(n * k / max(|w|,1)) items.  (Any committal rule works for the
  // experiment; this one makes steady progress and is deterministic.)
  for (std::size_t i = 0; i < table_->inputs.size(); ++i) {
    if (!word_extends(received_, table_->words[i])) continue;
    const seq::Sequence& x = table_->inputs[i];
    const std::size_t wlen = std::max<std::size_t>(table_->words[i].size(), 1);
    const std::size_t target =
        table_->words[i].empty()
            ? x.size()
            : x.size() * received_.size() / wlen;
    const std::size_t already = written_ + pending_writes_.size();
    for (std::size_t j = already; j < target && j < x.size(); ++j) {
      pending_writes_.push_back(x[j]);
    }
    return;
  }
}

sim::ReceiverEffect GreedyReceiver::on_step() {
  sim::ReceiverEffect eff;
  eff.writes = std::move(pending_writes_);
  pending_writes_.clear();
  written_ += eff.writes.size();
  if (!pending_acks_.empty()) {
    eff.send = pending_acks_.front();
    pending_acks_.erase(pending_acks_.begin());
  } else if (reack_ && last_ack_) {
    eff.send = *last_ack_;
  }
  return eff;
}

void GreedyReceiver::on_deliver(sim::MsgId msg) {
  if (msg < 0 || msg >= table_->alphabet_size) return;  // outside M^S: ignore
  const auto idx = static_cast<std::size_t>(msg);
  if (seen_[idx]) return;
  seen_[idx] = true;
  received_.push_back(static_cast<int>(msg));
  pending_acks_.push_back(msg);
  last_ack_ = msg;
  recompute_guess();
}

std::string GreedyReceiver::save_state() const {
  return save_receiver_blob(kGreedyTag, written_, received_, pending_writes_,
                            pending_acks_, last_ack_);
}

bool GreedyReceiver::restore_state(const std::string& blob,
                                   const seq::Sequence& tape) {
  if (!restore_receiver_blob(blob, kGreedyTag, table_->alphabet_size, tape,
                             seen_, received_, written_, pending_writes_,
                             pending_acks_, last_ack_)) {
    return false;
  }
  recompute_guess();
  return true;
}

std::unique_ptr<sim::IReceiver> GreedyReceiver::clone() const {
  return std::make_unique<GreedyReceiver>(*this);
}

}  // namespace stpx::proto

#include "proto/session_adapter.hpp"

#include <utility>

#include "proto/durable.hpp"
#include "util/blob.hpp"
#include "util/expect.hpp"

namespace stpx::proto {

namespace {
// Adapter blob tags — distinct from every protocol's own state tag, so a
// raw protocol blob cannot masquerade as an adapter blob (and vice
// versa).  The protocol blob nests inside as one length-prefixed vec.
constexpr std::int64_t kSenderAdapterTag = 201;
constexpr std::int64_t kReceiverAdapterTag = 202;
/// Room for the receiver blob's own tokens (tag, flag, tape length, inner
/// length) around the tape and inner texts, so save_state() allocates once.
constexpr std::size_t kReceiverHeaderBytes = 64;
}  // namespace

SenderSessionEndpoint::SenderSessionEndpoint(
    std::unique_ptr<sim::ISender> sender, seq::Sequence x)
    : sender_(std::move(sender)), x_(std::move(x)) {
  STPX_EXPECT(sender_ != nullptr, "SenderSessionEndpoint: null sender");
  sender_->start(x_);
}

void SenderSessionEndpoint::on_deliver(sim::MsgId msg) {
  // Defensive-ignore at the trust boundary: every stpx protocol uses
  // non-negative ids; anything else cannot be a well-formed ack.
  if (msg < 0) return;
  sender_->on_deliver(msg);
}

std::optional<sim::MsgId> SenderSessionEndpoint::step() {
  if (finished_) return std::nullopt;
  return sender_->on_step().send;
}

std::string SenderSessionEndpoint::save_state() const {
  util::BlobWriter w;
  w.i64(kSenderAdapterTag);
  w.boolean(finished_);
  w.nested(sender_->save_state());
  return std::move(w).take();
}

bool SenderSessionEndpoint::restore_state(const std::string& blob) {
  util::BlobReader r(blob);
  std::int64_t tag = 0;
  bool finished = false;
  std::vector<std::int64_t> inner_toks;
  if (!r.i64(tag) || tag != kSenderAdapterTag || !r.boolean(finished) ||
      !r.vec(inner_toks) || !r.done()) {
    return false;
  }
  if (finished) {
    // The peer durably confirmed full receipt; protocol state is moot.
    finished_ = true;
    return true;
  }
  const std::string inner = util::blob_join(inner_toks);
  // No (or unusable) protocol state: the ctor already cold-started the
  // sender, which for every stpx sender means "resend from the front" —
  // safe, so report a cold restore and keep running.
  if (inner.empty()) return false;
  return sender_->restore_state(inner);
}

ReceiverSessionEndpoint::ReceiverSessionEndpoint(
    std::unique_ptr<sim::IReceiver> receiver, seq::Sequence expected)
    : receiver_(std::move(receiver)), expected_(std::move(expected)) {
  STPX_EXPECT(receiver_ != nullptr, "ReceiverSessionEndpoint: null receiver");
  receiver_->start();
}

void ReceiverSessionEndpoint::on_deliver(sim::MsgId msg) {
  if (msg < 0) return;
  if (!safety_ok_) return;  // violated sessions go silent
  receiver_->on_deliver(msg);
}

std::optional<sim::MsgId> ReceiverSessionEndpoint::step() {
  if (!safety_ok_ || done()) return std::nullopt;
  sim::ReceiverEffect eff = receiver_->on_step();
  for (const seq::DataItem item : eff.writes) {
    // The engine's online prefix check, session-local: the write must be
    // the next item of the expected sequence, every time.
    if (y_.size() >= expected_.size() || item != expected_[y_.size()]) {
      safety_ok_ = false;
      return std::nullopt;
    }
    y_.push_back(item);
    tape_text_.i64(item);
  }
  return eff.send;
}

std::string ReceiverSessionEndpoint::save_state() const {
  const std::string inner = receiver_->save_state();
  const std::string& tape = tape_text_.str();
  util::BlobWriter w;
  w.reserve(kReceiverHeaderBytes + tape.size() + inner.size());
  w.i64(kReceiverAdapterTag);
  w.boolean(safety_ok_);
  // The tape as write_items() would render it: its length, then its text.
  w.u64(y_.size());
  w.canonical(tape);
  w.nested(inner);
  return std::move(w).take();
}

void ReceiverSessionEndpoint::rewrite_tape_text() {
  tape_text_ = util::BlobWriter{};
  for (const seq::DataItem item : y_) tape_text_.i64(item);
}

bool ReceiverSessionEndpoint::restore_state(const std::string& blob) {
  util::BlobReader r(blob);
  std::int64_t tag = 0;
  bool saved_ok = true;
  std::vector<seq::DataItem> tape;
  std::vector<std::int64_t> inner_toks;
  if (!r.i64(tag) || tag != kReceiverAdapterTag || !r.boolean(saved_ok) ||
      !read_items(r, tape) || !r.vec(inner_toks) || !r.done()) {
    return false;
  }
  y_.assign(tape.begin(), tape.end());
  rewrite_tape_text();
  safety_ok_ = saved_ok;
  // The tape is externalized state.  A restored tape that is not a prefix
  // of the expected sequence means the durable log attests to a delivery
  // this session never should have made — a recovery violation the
  // caller must surface, never a truncate-and-carry-on.
  if (!seq::is_prefix(y_, expected_)) safety_ok_ = false;
  if (!safety_ok_) return true;  // restored, and provably broken
  const std::string inner = util::blob_join(inner_toks);
  if (!inner.empty() && receiver_->restore_state(inner, y_)) return true;
  // Unusable protocol state: fall back to a cold receiver.  The tape
  // cannot be kept — a cold receiver re-delivers from the front, and
  // appending that onto a non-empty y_ would double-deliver.
  y_.clear();
  rewrite_tape_text();
  receiver_->start();
  return false;
}

}  // namespace stpx::proto

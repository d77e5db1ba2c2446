#include "proto/session_adapter.hpp"

#include <string_view>
#include <utility>
#include <vector>

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
constexpr std::int64_t kReceiverDeltaTag = 203;

/// What a receiver chain holds: the tape its blobs' items make, and the
/// last blob's safety flag and protocol state.
struct Chain {
  seq::Sequence tape;
  bool safety_ok = true;
  std::string protocol;
};

/// Reads a chain in one pass: one full blob (tag 202), then the deltas
/// after it (203).  Each blob holds its tag, the safety flag, a delta's
/// start (which must be where the tape so far ends), the items, read
/// straight onto the tape, and the protocol state, kept as a view until
/// the last blob.  False for anything else, non-canonical text included.
bool read_chain(const std::string& blob, std::size_t tape_hint, Chain& out) {
  util::CanonicalScanner scan(blob);
  out.tape.reserve(tape_hint);
  std::string_view protocol;
  std::int64_t tag = kReceiverAdapterTag;
  do {
    std::int64_t v = 0;
    if (!scan.next(v) || v != tag || !scan.next(v) || (v != 0 && v != 1)) {
      return false;
    }
    out.safety_ok = v == 1;
    if (tag == kReceiverDeltaTag &&
        (!scan.next(v) || v != static_cast<std::int64_t>(out.tape.size()))) {
      return false;
    }
    std::int64_t n = 0;
    if (!scan.next(n) || n < 0) return false;
    for (; n > 0; --n) {
      if (!scan.next(v) || !fits_item(v)) return false;
      out.tape.push_back(static_cast<seq::DataItem>(v));
    }
    if (!scan.next(n) || n < 0 ||
        !scan.tokens(static_cast<std::size_t>(n), protocol)) {
      return false;
    }
    tag = kReceiverDeltaTag;
  } while (!scan.done());
  out.protocol.assign(protocol);
  return true;
}
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

std::string SenderSessionEndpoint::save_state(std::size_t /*from*/) const {
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
  }
  return eff.send;
}

std::string ReceiverSessionEndpoint::save_state(std::size_t from) const {
  STPX_EXPECT(from <= y_.size(),
              "ReceiverSessionEndpoint: delta starts past the tape");
  util::BlobWriter w;
  w.i64(from == 0 ? kReceiverAdapterTag : kReceiverDeltaTag);
  w.boolean(safety_ok_);
  if (from > 0) w.u64(from);
  // The items from `from` on, as write_items() would render them.
  w.u64(y_.size() - from);
  for (std::size_t i = from; i < y_.size(); ++i) w.i64(y_[i]);
  w.nested(receiver_->save_state());
  return std::move(w).take();
}

bool ReceiverSessionEndpoint::restore_state(const std::string& blob) {
  // A chain is one full blob, then the deltas after it, read in one pass
  // over canonical text (everything save_state() writes).
  Chain chain;
  if (!read_chain(blob, expected_.size(), chain)) return false;
  y_ = std::move(chain.tape);
  safety_ok_ = chain.safety_ok;
  // The tape is externalized state.  A restored tape that is not a prefix
  // of the expected sequence means the durable log attests to a delivery
  // this session never should have made — a recovery violation the
  // caller must surface, never a truncate-and-carry-on.
  if (!seq::is_prefix(y_, expected_)) safety_ok_ = false;
  if (!safety_ok_) return true;  // restored, and provably broken
  if (!chain.protocol.empty() && receiver_->restore_state(chain.protocol, y_)) {
    return true;
  }
  // Unusable protocol state: fall back to a cold receiver.  The tape
  // cannot be kept — a cold receiver re-delivers from the front, and
  // appending that onto a non-empty y_ would double-deliver.
  y_.clear();
  receiver_->start();
  return false;
}

}  // namespace stpx::proto

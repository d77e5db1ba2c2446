#include "proto/hardened.hpp"

#include <algorithm>
#include <optional>
#include <string_view>

#include "proto/durable.hpp"
#include "util/blob.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace stpx::proto {

namespace {

constexpr std::int64_t kSenderTag = 191;
constexpr std::int64_t kReceiverTag = 192;

// Direction salts keep a reflected message (an ack replayed at the
// receiver, or vice versa) from validating.
constexpr std::uint64_t kDataSalt = 0xD47A'5EA1'0C5A'17EDULL;
constexpr std::uint64_t kAckSalt = 0xACC5'EA1E'D0C5'A17BULL;
constexpr std::uint64_t kBlobSalt = 0xB10B'5EA1'ED05'A17FULL;

constexpr std::int64_t kCsumBits = 10;
constexpr std::int64_t kCsumMask = (std::int64_t{1} << kCsumBits) - 1;
constexpr std::int64_t kItemBits = 8;
constexpr std::int64_t kSeqnoBits = 20;

std::uint64_t mix(std::uint64_t v) {
  std::uint64_t s = v;
  return splitmix64(s);
}

sim::MsgId seal(std::int64_t body, std::uint64_t salt) {
  const auto csum = static_cast<std::int64_t>(
      mix(static_cast<std::uint64_t>(body) ^ salt) & kCsumMask);
  return (body << kCsumBits) | csum;
}

std::optional<std::int64_t> unseal(sim::MsgId id, std::uint64_t salt) {
  if (id < 0) return std::nullopt;
  const std::int64_t body = id >> kCsumBits;
  if (seal(body, salt) != id) return std::nullopt;
  return body;
}

std::int64_t data_body(std::uint64_t epoch, std::size_t seqno,
                       seq::DataItem item) {
  return (static_cast<std::int64_t>(epoch) << (kSeqnoBits + kItemBits)) |
         (static_cast<std::int64_t>(seqno) << kItemBits) |
         static_cast<std::int64_t>(item);
}

std::int64_t ack_body(std::uint64_t epoch, std::size_t frontier) {
  return (static_cast<std::int64_t>(epoch) << (kSeqnoBits + kItemBits)) |
         (static_cast<std::int64_t>(frontier) << kItemBits);
}

/// The seal token of `payload`: masked so it round-trips through the
/// signed-int64 blob text.
std::int64_t blob_hash(std::string_view payload) {
  std::uint64_t h = kBlobSalt ^ mix(payload.size());
  for (unsigned char c : payload) h = mix(h ^ c);
  return static_cast<std::int64_t>(h & 0x3FFF'FFFF'FFFF'FFFFULL);
}

}  // namespace

std::string hardened_seal_blob(const std::string& payload) {
  return payload + ' ' + std::to_string(blob_hash(payload));
}

bool hardened_unseal_blob(const std::string& blob, std::string& payload) {
  const std::size_t pos = blob.find_last_of(' ');
  if (pos == std::string::npos) return false;
  const std::string_view candidate = std::string_view(blob).substr(0, pos);
  util::CanonicalScanner scan(std::string_view(blob).substr(pos + 1));
  std::int64_t stored = 0;
  if (!scan.next(stored) || !scan.done() || stored != blob_hash(candidate)) {
    return false;
  }
  payload = candidate;
  return true;
}

// ---------------------------------------------------------------- sender --

HardenedSender::HardenedSender(int domain_size) : domain_size_(domain_size) {
  STPX_EXPECT(domain_size >= 1, "HardenedSender: domain must be non-empty");
  STPX_EXPECT(domain_size <= (1 << kItemBits),
              "HardenedSender: domain exceeds the item field");
}

void HardenedSender::start(const seq::Sequence& x) {
  STPX_EXPECT(seq::in_domain(x, seq::Domain{domain_size_}),
              "HardenedSender: input outside domain");
  STPX_EXPECT(x.size() < (std::size_t{1} << kSeqnoBits),
              "HardenedSender: input exceeds the seqno field");
  x_ = x;
  next_ = 0;
  epoch_ = 0;
  rejected_ = 0;
}

sim::SenderEffect HardenedSender::on_step() {
  if (next_ >= x_.size()) return {};
  return sim::SenderEffect{
      .send = seal(data_body(epoch_, next_, x_[next_]), kDataSalt)};
}

void HardenedSender::on_deliver(sim::MsgId msg) {
  const auto body = unseal(msg, kAckSalt);
  if (!body) {
    ++rejected_;  // corrupted or forged: shed it, retransmission recovers
    return;
  }
  const auto epoch =
      static_cast<std::uint64_t>(*body >> (kSeqnoBits + kItemBits));
  const auto frontier = static_cast<std::size_t>(
      (*body >> kItemBits) & ((std::int64_t{1} << kSeqnoBits) - 1));
  const std::size_t capped = std::min(frontier, x_.size());
  if (epoch > epoch_) {
    // The receiver restarted: adopt its epoch and its frontier outright,
    // even when that moves our cursor backwards — resending a suffix is
    // the price of re-converging after the receiver shed state.
    epoch_ = epoch;
    next_ = capped;
  } else if (epoch == epoch_) {
    next_ = std::max(next_, capped);  // cumulative ack
  }
  // Older epoch: a stale ack from before a restart we already know about.
}

std::string HardenedSender::save_state() const {
  util::BlobWriter w;
  w.i64(kSenderTag);
  w.u64(epoch_);
  w.u64(next_);
  return hardened_seal_blob(w.str());
}

bool HardenedSender::restore_state(const std::string& blob) {
  std::string payload;
  if (!hardened_unseal_blob(blob, payload)) return false;
  util::BlobReader r(payload);
  std::int64_t tag = 0;
  std::uint64_t epoch = 0;
  std::uint64_t next = 0;
  if (!r.i64(tag) || tag != kSenderTag || !r.u64(epoch) || !r.u64(next) ||
      !r.done()) {
    return false;
  }
  if (next > x_.size()) return false;
  epoch_ = epoch;
  next_ = static_cast<std::size_t>(next);
  return true;
}

std::unique_ptr<sim::ISender> HardenedSender::clone() const {
  return std::make_unique<HardenedSender>(*this);
}

// -------------------------------------------------------------- receiver --

HardenedReceiver::HardenedReceiver(int domain_size)
    : domain_size_(domain_size) {
  STPX_EXPECT(domain_size >= 1, "HardenedReceiver: domain must be non-empty");
  STPX_EXPECT(domain_size <= (1 << kItemBits),
              "HardenedReceiver: domain exceeds the item field");
}

void HardenedReceiver::start() {
  epoch_ = 0;
  written_ = 0;
  pending_writes_.clear();
  rejected_ = 0;
}

sim::ReceiverEffect HardenedReceiver::on_step() {
  sim::ReceiverEffect eff;
  eff.writes = std::move(pending_writes_);
  pending_writes_.clear();
  written_ += static_cast<std::int64_t>(eff.writes.size());
  eff.send = seal(ack_body(epoch_, frontier()), kAckSalt);
  return eff;
}

void HardenedReceiver::on_deliver(sim::MsgId msg) {
  const auto body = unseal(msg, kDataSalt);
  if (!body) {
    ++rejected_;  // corrupted or forged: shed it, retransmission recovers
    return;
  }
  const auto epoch =
      static_cast<std::uint64_t>(*body >> (kSeqnoBits + kItemBits));
  const auto seqno = static_cast<std::size_t>(
      (*body >> kItemBits) & ((std::int64_t{1} << kSeqnoBits) - 1));
  const auto item =
      static_cast<seq::DataItem>(*body & ((std::int64_t{1} << kItemBits) - 1));
  if (item >= domain_size_) {
    ++rejected_;  // validated but out of domain: a config mixup, shed it
    return;
  }
  // Data from an older epoch predates our last restart; data from a newer
  // epoch is impossible (only we bump the epoch).  Either way, drop.
  if (epoch != epoch_) return;
  if (seqno == frontier()) pending_writes_.push_back(item);
}

std::string HardenedReceiver::save_state() const {
  util::BlobWriter w;
  w.i64(kReceiverTag);
  w.u64(epoch_);
  w.i64(written_);
  write_items(w, pending_writes_);
  return hardened_seal_blob(w.str());
}

bool HardenedReceiver::restore_state(const std::string& blob,
                                     const seq::Sequence& tape) {
  std::string payload;
  if (!hardened_unseal_blob(blob, payload)) return false;
  util::BlobReader r(payload);
  std::int64_t tag = 0;
  std::uint64_t epoch = 0;
  std::int64_t written = 0;
  std::vector<seq::DataItem> pending;
  if (!r.i64(tag) || tag != kReceiverTag || !r.u64(epoch) ||
      !r.i64(written) || !read_items(r, pending) || !r.done() || written < 0) {
    return false;
  }
  written_ = written;
  pending_writes_ = std::move(pending);
  reconcile_with_tape(written_, pending_writes_, tape);
  // Announce the restart: the next ack carries a fresh epoch, which makes
  // the sender adopt our (possibly rewound) frontier and resend from it.
  epoch_ = epoch + 1;
  return true;
}

std::unique_ptr<sim::IReceiver> HardenedReceiver::clone() const {
  return std::make_unique<HardenedReceiver>(*this);
}

}  // namespace stpx::proto

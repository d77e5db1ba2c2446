#include "store/session_log.hpp"

#include <algorithm>
#include <array>
#include <string_view>
#include <utility>

#include "util/blob.hpp"

namespace stpx::store {

namespace {
// Distinct from every per-protocol state tag (those are small ints like
// 101/102), so a protocol blob fed to from_payload is rejected outright.
constexpr std::int64_t kManifestTag = 7001;

/// The fixed fields of a record, in payload order: tag, session,
/// is_sender, epoch, seq, proto_tag, position, completed, owner.
using FixedFields = std::array<std::int64_t, 9>;
/// Room for the fixed fields and the blob length, each at most 20 chars
/// plus a separator, so to_payload() allocates once.
constexpr std::size_t kFixedBytes = 10 * 21;

/// The manifest the fixed fields describe (endpoint_state left empty), or
/// nullopt when one is out of its range.
std::optional<SessionManifest> from_fields(const FixedFields& f) {
  const auto [tag, session, is_sender, epoch, seq, proto_tag, position,
              completed, owner] = f;
  constexpr std::int64_t kMaxU32 = 0xFFFFFFFF;
  const auto flag = [](std::int64_t v) { return v == 0 || v == 1; };
  if (tag != kManifestTag || session < 0 || session > kMaxU32 ||
      !flag(is_sender) || epoch < 0 || seq < 0 || proto_tag < 0 ||
      position < 0 || !flag(completed) || owner < 0 || owner > kMaxU32) {
    return std::nullopt;
  }
  SessionManifest m;
  m.session = static_cast<std::uint32_t>(session);
  m.is_sender = is_sender == 1;
  m.epoch = static_cast<std::uint64_t>(epoch);
  m.seq = static_cast<std::uint64_t>(seq);
  m.proto_tag = static_cast<std::uint64_t>(proto_tag);
  m.position = static_cast<std::uint64_t>(position);
  m.completed = completed == 1;
  m.owner = static_cast<std::uint32_t>(owner);
  return m;
}
}  // namespace

std::uint64_t proto_tag_of(const std::string& name) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : name) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string SessionManifest::to_payload() const {
  util::BlobWriter w;
  w.reserve(kFixedBytes + endpoint_state.size());
  w.i64(kManifestTag);
  w.u64(session);
  w.boolean(is_sender);
  w.u64(epoch);
  w.u64(seq);
  w.u64(proto_tag);
  w.u64(position);
  w.boolean(completed);
  w.u64(owner);
  // save_state() produces canonical blob text by construction, copied
  // as-is; anything else is normalised, and unparseable text becomes an
  // empty (cold-start) state rather than corrupting the record.
  w.nested(endpoint_state);
  return std::move(w).take();
}

std::optional<SessionManifest> SessionManifest::from_payload(
    const std::string& payload) {
  FixedFields f{};
  // Canonical text (everything to_payload() writes) is read in place and
  // its endpoint state copied verbatim.
  util::CanonicalScanner scan(payload);
  bool canonical = true;
  for (std::int64_t& v : f) canonical = canonical && scan.next(v);
  std::int64_t length = 0;
  std::string_view state;
  if (canonical && scan.next(length) && length >= 0 &&
      scan.tokens(static_cast<std::size_t>(length), state) && scan.done()) {
    auto m = from_fields(f);
    if (m) m->endpoint_state.assign(state);
    return m;
  }
  // Anything else is read by the normalising parser, which rejoins the
  // endpoint state into canonical text.
  util::BlobReader r(payload);
  for (std::int64_t& v : f) {
    if (!r.i64(v)) return std::nullopt;
  }
  std::vector<std::int64_t> inner;
  if (!r.vec(inner) || !r.done()) return std::nullopt;
  auto m = from_fields(f);
  if (m) m->endpoint_state = util::blob_join(inner);
  return m;
}

SessionLogScan scan_session_logs(const std::vector<IStableStore*>& stores) {
  SessionLogScan scan;
  for (IStableStore* store : stores) {
    if (store == nullptr) continue;
    ReplayResult r = store->replay();
    scan.records_skipped += r.records_skipped;
    for (const std::string& payload : r.payloads) {
      auto m = SessionManifest::from_payload(payload);
      if (!m) {
        ++scan.records_skipped;
        continue;
      }
      ++scan.records_scanned;
      scan.max_epoch = std::max(scan.max_epoch, m->epoch);
      auto it = scan.newest.find(m->session);
      if (it == scan.newest.end()) {
        scan.newest.emplace(m->session, std::move(*m));
      } else if (m->newer_than(it->second)) {
        it->second = std::move(*m);
      }
    }
  }
  return scan;
}

std::vector<std::uint32_t> manifested_sessions(
    const std::vector<IStableStore*>& stores) {
  const SessionLogScan scan = scan_session_logs(stores);
  std::vector<std::uint32_t> out;
  out.reserve(scan.newest.size());
  for (const auto& [id, m] : scan.newest) {
    if (!m.is_sender) out.push_back(id);  // map iteration: already id order
  }
  return out;
}

std::uint64_t compact_session_log(IStableStore& store) {
  const SessionLogScan scan = scan_session_logs({&store});
  std::vector<const SessionManifest*> kept;
  kept.reserve(scan.newest.size());
  for (const auto& [id, m] : scan.newest) kept.push_back(&m);
  std::sort(kept.begin(), kept.end(),
            [](const SessionManifest* a, const SessionManifest* b) {
              return b->newer_than(*a);
            });
  std::vector<std::string> payloads;
  payloads.reserve(kept.size());
  for (const SessionManifest* m : kept) payloads.push_back(m->to_payload());
  store.reset();
  store.append_batch(payloads);
  const std::uint64_t total = scan.records_scanned + scan.records_skipped;
  return total > payloads.size() ? total - payloads.size() : 0;
}

}  // namespace stpx::store

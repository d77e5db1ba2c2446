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
constexpr std::int64_t kDeltaTag = 7002;

/// The fixed fields of a record, in payload order (a full record leaves
/// kBase at 0).  The fold keeps them as they were read: one record costs
/// these ten words and a view of its endpoint state.
using FixedFields = std::array<std::int64_t, 10>;
enum Field : std::size_t {
  kTag, kSession, kIsSender, kEpoch, kSeq, kProtoTag, kPosition, kCompleted,
  kOwner, kBase
};
/// Room for the fixed fields and the blob length, each at most 20 chars
/// plus a separator, so to_payload() allocates once.
constexpr std::size_t kFixedBytes = 11 * 21;

/// How many fixed fields a record with this tag has; 0 for no record.
std::size_t field_count(std::int64_t tag) {
  return tag == kManifestTag ? 9 : tag == kDeltaTag ? 10 : 0;
}

/// True when every fixed field is in its range: the one check both
/// from_payload() and the fold apply.
bool in_range(const FixedFields& f) {
  constexpr std::int64_t kMaxU32 = 0xFFFFFFFF;
  const auto flag = [](std::int64_t v) { return v == 0 || v == 1; };
  const std::size_t n = field_count(f[kTag]);
  return n != 0 && f[kSession] >= 0 && f[kSession] <= kMaxU32 &&
         flag(f[kIsSender]) && f[kEpoch] >= 0 && f[kSeq] >= 0 &&
         f[kProtoTag] >= 0 && f[kPosition] >= 0 && flag(f[kCompleted]) &&
         f[kOwner] >= 0 && f[kOwner] <= kMaxU32 &&
         (n == 9 || (f[kBase] >= 1 && f[kBase] <= f[kPosition]));
}

/// The manifest in-range fixed fields describe, with `state` as its
/// endpoint state.
SessionManifest manifest_of(const FixedFields& f, std::string state) {
  SessionManifest m;
  m.session = static_cast<std::uint32_t>(f[kSession]);
  m.is_sender = f[kIsSender] == 1;
  m.epoch = static_cast<std::uint64_t>(f[kEpoch]);
  m.seq = static_cast<std::uint64_t>(f[kSeq]);
  m.proto_tag = static_cast<std::uint64_t>(f[kProtoTag]);
  m.position = static_cast<std::uint64_t>(f[kPosition]);
  m.completed = f[kCompleted] == 1;
  m.owner = static_cast<std::uint32_t>(f[kOwner]);
  m.base = static_cast<std::uint64_t>(f[kBase]);
  m.endpoint_state = std::move(state);
  return m;
}

/// Reads a payload in place: its fixed fields, and its endpoint state as a
/// view into `payload`.  False for anything but canonical text, which is
/// everything to_payload() writes.
bool read_canonical(std::string_view payload, FixedFields& f,
                    std::string_view& state) {
  util::CanonicalScanner scan(payload);
  if (!scan.next(f[kTag]) || field_count(f[kTag]) == 0) return false;
  for (std::size_t i = 1; i < field_count(f[kTag]); ++i) {
    if (!scan.next(f[i])) return false;
  }
  std::int64_t length = 0;
  return scan.next(length) && length >= 0 &&
         scan.tokens(static_cast<std::size_t>(length), state) && scan.done();
}

/// One valid record: its fixed fields, a view of its endpoint state, and
/// the payload it was read from.
struct Record {
  FixedFields f;
  std::string_view state;
  const std::string* payload;

  std::int64_t epoch() const { return f[kEpoch]; }
  std::int64_t position() const { return f[kPosition]; }
  std::int64_t base() const { return f[kBase]; }
  /// True when (epoch, seq) orders this record after `other`.
  bool newer_than(const Record& other) const {
    return f[kEpoch] != other.f[kEpoch] ? f[kEpoch] > other.f[kEpoch]
                                        : f[kSeq] > other.f[kSeq];
  }
};

/// Every valid record of `stores`, and per session the indices of its
/// records in (epoch, seq) order, repeats of one (epoch, seq) dropped.
struct Histories {
  std::vector<ReplayResult> replays;  // owns the payloads records point at
  std::vector<Record> records;
  std::map<std::uint32_t, std::vector<std::uint32_t>> sessions;
  std::uint64_t records_skipped = 0;
  std::uint64_t max_epoch = 0;
};

Histories read_histories(const std::vector<IStableStore*>& stores) {
  Histories h;
  h.replays.reserve(stores.size());
  std::size_t payloads = 0;
  for (IStableStore* store : stores) {
    if (store == nullptr) continue;
    h.replays.push_back(store->replay());
    payloads += h.replays.back().payloads.size();
    h.records_skipped += h.replays.back().records_skipped;
  }
  h.records.reserve(payloads);
  std::int64_t max_epoch = 0;
  for (const ReplayResult& r : h.replays) {
    for (const std::string& payload : r.payloads) {
      Record rec{{}, {}, &payload};
      if (!read_canonical(payload, rec.f, rec.state) || !in_range(rec.f)) {
        ++h.records_skipped;
        continue;
      }
      max_epoch = std::max(max_epoch, rec.epoch());
      h.sessions[static_cast<std::uint32_t>(rec.f[kSession])].push_back(
          static_cast<std::uint32_t>(h.records.size()));
      h.records.push_back(rec);
    }
  }
  h.max_epoch = static_cast<std::uint64_t>(max_epoch);
  const auto older = [&h](std::uint32_t a, std::uint32_t b) {
    return h.records[b].newer_than(h.records[a]);
  };
  const auto same_point = [&h](std::uint32_t a, std::uint32_t b) {
    const FixedFields& x = h.records[a].f;
    const FixedFields& y = h.records[b].f;
    return x[kEpoch] == y[kEpoch] && x[kSeq] == y[kSeq];
  };
  for (auto& [id, idx] : h.sessions) {
    // Stable, so the first copy of a resurrected record is the one kept.
    if (!std::is_sorted(idx.begin(), idx.end(), older)) {
      std::stable_sort(idx.begin(), idx.end(), older);
    }
    idx.erase(std::unique(idx.begin(), idx.end(), same_point), idx.end());
  }
  return h;
}

/// The live chain among one session's records `idx` (indices into
/// `records`, in (epoch, seq) order), as the range [first, last) of
/// `idx`: the newest full record, then each later delta of its epoch
/// that starts where the chain so far ends, up to the first gap.  Empty
/// when no full record survived.
std::pair<std::size_t, std::size_t> live_chain(
    const std::vector<Record>& records, const std::vector<std::uint32_t>& idx) {
  const auto at = [&](std::size_t i) -> const Record& {
    return records[idx[i]];
  };
  std::size_t first = idx.size();
  while (first > 0 && at(first - 1).base() != 0) --first;
  if (first == 0) return {0, 0};
  --first;  // every record after the newest full one is a delta
  std::size_t last = first + 1;
  while (last < idx.size() && at(last).epoch() == at(first).epoch() &&
         at(last).base() == at(last - 1).position()) {
    ++last;
  }
  return {first, last};
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
  w.i64(base == 0 ? kManifestTag : kDeltaTag);
  w.u64(session);
  w.boolean(is_sender);
  w.u64(epoch);
  w.u64(seq);
  w.u64(proto_tag);
  w.u64(position);
  w.boolean(completed);
  w.u64(owner);
  if (base != 0) w.u64(base);
  // save_state() produces canonical blob text by construction, copied
  // as-is; anything else becomes an empty (cold-start) state rather than
  // corrupting the record.
  w.nested(endpoint_state);
  return std::move(w).take();
}

std::optional<SessionManifest> SessionManifest::from_payload(
    const std::string& payload) {
  FixedFields f{};
  std::string_view state;
  if (!read_canonical(payload, f, state) || !in_range(f)) return std::nullopt;
  return manifest_of(f, std::string(state));
}

SessionLogScan scan_session_logs(const std::vector<IStableStore*>& stores) {
  const Histories h = read_histories(stores);
  SessionLogScan scan;
  scan.records_scanned = h.records.size();
  scan.records_skipped = h.records_skipped;
  scan.max_epoch = h.max_epoch;
  for (const auto& [id, idx] : h.sessions) {
    const auto [first, last] = live_chain(h.records, idx);
    if (first == last) continue;
    std::size_t bytes = 0;
    for (std::size_t i = first; i < last; ++i) {
      bytes += h.records[idx[i]].state.size() + 1;
    }
    std::string chain;
    chain.reserve(bytes);
    for (std::size_t i = first; i < last; ++i) {
      const std::string_view state = h.records[idx[i]].state;
      if (!chain.empty() && !state.empty()) chain.push_back(' ');
      chain.append(state);
    }
    // Only the chain's last record becomes a manifest: its fields, as a
    // full record holding the whole chain.
    SessionManifest m =
        manifest_of(h.records[idx[last - 1]].f, std::move(chain));
    m.base = 0;
    scan.newest.emplace_hint(scan.newest.end(), id, std::move(m));
  }
  return scan;
}

std::vector<std::uint32_t> manifested_sessions(
    const std::vector<IStableStore*>& stores) {
  const Histories h = read_histories(stores);
  std::vector<std::uint32_t> out;
  for (const auto& [id, idx] : h.sessions) {
    const auto [first, last] = live_chain(h.records, idx);
    // Map iteration: already id order.
    if (first != last && h.records[idx[last - 1]].f[kIsSender] == 0) {
      out.push_back(id);
    }
  }
  return out;
}

std::uint64_t compact_session_log(IStableStore& store) {
  const Histories h = read_histories({&store});
  std::vector<const Record*> kept;
  for (const auto& [id, idx] : h.sessions) {
    const auto [first, last] = live_chain(h.records, idx);
    for (std::size_t i = first; i < last; ++i) {
      kept.push_back(&h.records[idx[i]]);
    }
  }
  std::sort(kept.begin(), kept.end(), [](const Record* a, const Record* b) {
    return b->newer_than(*a);
  });
  std::vector<std::string> payloads;
  payloads.reserve(kept.size());
  for (const Record* r : kept) payloads.push_back(*r->payload);
  store.reset();
  store.append_batch(payloads);
  const std::uint64_t total = h.records.size() + h.records_skipped;
  return total > payloads.size() ? total - payloads.size() : 0;
}

}  // namespace stpx::store

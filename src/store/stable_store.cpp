#include "store/stable_store.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "util/expect.hpp"

namespace stpx::store {

namespace {

constexpr char kMagic[4] = {'S', 'P', 'X', 'R'};
constexpr std::size_t kHeaderSize = 4 + 4 + 8;
constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr std::size_t kLanes = 4;  // payloads checksummed per loop

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = kFnvBasis;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint32_t get_u32(std::string_view buf, std::size_t pos) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[pos + i])) << (8 * i);
  return v;
}

std::uint64_t get_u64(std::string_view buf, std::size_t pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[pos + i])) << (8 * i);
  return v;
}

bool magic_at(std::string_view buf, std::size_t pos) {
  return pos + 4 <= buf.size() && buf[pos] == kMagic[0] && buf[pos + 1] == kMagic[1] &&
         buf[pos + 2] == kMagic[2] && buf[pos + 3] == kMagic[3];
}

std::size_t next_magic(std::string_view buf, std::size_t from) {
  for (std::size_t p = from; p + 4 <= buf.size(); ++p)
    if (magic_at(buf, p)) return p;
  return buf.size();
}

/// The record framed at `pos`, if its header is whole and its length
/// fits the buffer: its payload and the checksum its header claims.
bool framed_at(std::string_view buf, std::size_t pos, std::string_view& payload,
               std::uint64_t& sum) {
  if (!magic_at(buf, pos) || pos + kHeaderSize > buf.size()) return false;
  const std::uint32_t len = get_u32(buf, pos + 4);
  if (len > buf.size() - pos - kHeaderSize) return false;
  sum = get_u64(buf, pos + 8);
  payload = buf.substr(pos + kHeaderSize, len);
  return true;
}

/// fnv1a() of the first `n` (<= kLanes) payloads.  Four at a time they
/// are hashed in one loop over their common length, so that the four
/// multiply chains interleave instead of waiting on each other; the same
/// hashes as n calls to fnv1a().
void fnv1a_lanes(const std::string_view* in, std::size_t n,
                 std::uint64_t* out) {
  std::size_t i = 0;
  if (n == kLanes) {
    const std::size_t common = std::min(std::min(in[0].size(), in[1].size()),
                                        std::min(in[2].size(), in[3].size()));
    const auto bytes = [in](std::size_t k) {
      return reinterpret_cast<const unsigned char*>(in[k].data());
    };
    const unsigned char *b0 = bytes(0), *b1 = bytes(1), *b2 = bytes(2),
                        *b3 = bytes(3);
    std::uint64_t h0 = kFnvBasis, h1 = kFnvBasis, h2 = kFnvBasis,
                  h3 = kFnvBasis;
    for (; i < common; ++i) {
      h0 = (h0 ^ b0[i]) * kFnvPrime;
      h1 = (h1 ^ b1[i]) * kFnvPrime;
      h2 = (h2 ^ b2[i]) * kFnvPrime;
      h3 = (h3 ^ b3[i]) * kFnvPrime;
    }
    out[0] = h0;
    out[1] = h1;
    out[2] = h2;
    out[3] = h3;
  } else {
    for (std::size_t k = 0; k < n; ++k) out[k] = kFnvBasis;
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = i; j < in[k].size(); ++j) {
      out[k] = (out[k] ^ static_cast<unsigned char>(in[k][j])) * kFnvPrime;
    }
  }
}

/// The framing and re-sync rules, in one place: walks `buffer` once and
/// calls `unit(offset, size, payload)` for each region in order, where
/// `payload` is a view of a valid record's payload in `buffer`, or
/// nullptr for a damaged span (which runs to the next magic).
template <class Unit>
void walk_records(std::string_view buffer, Unit&& unit) {
  std::size_t pos = 0;
  while (pos < buffer.size()) {
    // Frame up to kLanes records back to back, each where the one before
    // it would end if intact, and checksum them in one pass.  They are
    // taken in order up to the first that fails; the rest are framed
    // again from wherever the walk goes on.
    std::string_view payload[kLanes];
    std::uint64_t sum[kLanes];
    std::size_t n = 0;
    for (std::size_t at = pos;
         n < kLanes && framed_at(buffer, at, payload[n], sum[n]); ++n) {
      at += kHeaderSize + payload[n].size();
    }
    std::uint64_t hash[kLanes];
    fnv1a_lanes(payload, n, hash);
    std::size_t valid = 0;
    for (; valid < n && hash[valid] == sum[valid]; ++valid) {
      unit(pos, kHeaderSize + payload[valid].size(), &payload[valid]);
      pos += kHeaderSize + payload[valid].size();
    }
    if (n > 0 && valid == n) continue;
    // Damaged region: re-sync to the next magic strictly after pos.
    const std::size_t resync = next_magic(buffer, pos + 1);
    unit(pos, resync - pos, nullptr);
    pos = resync;
  }
}

/// Append `payload` to `out` as one framed record.  A pending torn-write
/// fault (`torn`) keeps only the record's first half and is consumed.
void put_record(std::string& out, const std::string& payload, bool& torn) {
  const std::size_t start = out.size();
  out.append(kMagic, 4);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u64(out, fnv1a(payload));
  out += payload;
  if (torn) {
    out.resize(start + (out.size() - start) / 2);  // truncated mid-write
    torn = false;
  }
}

}  // namespace

void IStableStore::append_batch(const std::vector<std::string>& states) {
  for (const std::string& s : states) append(s);
  sync();
}

RecoveredState IStableStore::recover() {
  ReplayResult r = replay();
  RecoveredState out;
  out.found = !r.payloads.empty();
  if (out.found) out.state = std::move(r.payloads.back());
  out.records_replayed = r.payloads.size();
  out.records_skipped = r.records_skipped;
  return out;
}

std::string encode_record(const std::string& payload) {
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  bool torn = false;
  put_record(out, payload, torn);
  return out;
}

std::vector<RecordUnit> parse_records(const std::string& buffer) {
  std::vector<RecordUnit> units;
  walk_records(buffer, [&units](std::size_t offset, std::size_t size,
                                const std::string_view* payload) {
    units.push_back({offset, size,
                     payload ? std::string(*payload) : std::string{},
                     payload != nullptr});
  });
  return units;
}

// ---------------------------------------------------------------------------
// StoreImage — the shared logical store.

void StoreImage::clear() {
  log.clear();
  snapshot.clear();
  snapshot_old.clear();
  log_old.clear();
  torn_next = false;
}

void StoreImage::append(const std::string& state) {
  put_record(log, state, torn_next);
}

void StoreImage::compact() {
  const ReplayResult all = replay();
  snapshot_old = snapshot;
  log_old = log;
  snapshot = all.payloads.empty() ? std::string{}
                                   : encode_record(all.payloads.back());
  log.clear();
}

ReplayResult StoreImage::replay() const {
  // One walk per buffer: each payload is checksummed where it lies and
  // copied once, straight into the result.
  ReplayResult out;
  for (const std::string* buf : {&snapshot, &log}) {
    walk_records(*buf, [&out](std::size_t, std::size_t,
                              const std::string_view* payload) {
      if (payload != nullptr) {
        out.payloads.emplace_back(*payload);
      } else {
        ++out.records_skipped;
      }
    });
  }
  return out;
}

void StoreImage::lose_tail(std::uint64_t n) {
  const auto units = parse_records(log);
  const std::uint64_t keep =
      units.size() > n ? static_cast<std::uint64_t>(units.size()) - n : 0;
  const std::size_t end = keep == 0 ? 0 : units[keep - 1].offset + units[keep - 1].size;
  log.resize(end);
}

void StoreImage::corrupt_record() {
  const auto units = parse_records(log);
  if (units.empty()) return;
  const RecordUnit& last = units.back();
  // Flip a payload byte (past the header when one exists) so the frame
  // still parses but the checksum catches the damage.
  const std::size_t at =
      last.offset + (last.size > kHeaderSize ? kHeaderSize + (last.size - kHeaderSize) / 2
                                             : last.size / 2);
  if (at < log.size()) log[at] = static_cast<char>(log[at] ^ 0x20);
}

void StoreImage::stale_snapshot() {
  // Compaction's snapshot write turns out not to have been durable: the
  // previous snapshot comes back, together with the log records the
  // compaction folded in (the log truncation was behind the same
  // barrier).  Records are full states, so recovery replays more records
  // but lands on the same newest state.
  snapshot = snapshot_old;
  log = log_old + log;
  log_old.clear();
}

// ---------------------------------------------------------------------------
// MemStore.

void MemStore::reset() {
  std::lock_guard<std::mutex> hold(mu_);
  img_.clear();
  appends_ = 0;
}

void MemStore::append(const std::string& state) {
  std::lock_guard<std::mutex> hold(mu_);
  img_.append(state);
  ++appends_;
}

void MemStore::compact() {
  std::lock_guard<std::mutex> hold(mu_);
  img_.compact();
}

ReplayResult MemStore::replay() {
  std::lock_guard<std::mutex> hold(mu_);
  return img_.replay();
}

std::uint64_t MemStore::appends() const {
  std::lock_guard<std::mutex> hold(mu_);
  return appends_;
}

void MemStore::fault_torn_next_append() {
  std::lock_guard<std::mutex> hold(mu_);
  img_.torn_next = true;
}
void MemStore::fault_lose_tail(std::uint64_t n) {
  std::lock_guard<std::mutex> hold(mu_);
  img_.lose_tail(n);
}
void MemStore::fault_corrupt_record() {
  std::lock_guard<std::mutex> hold(mu_);
  img_.corrupt_record();
}
void MemStore::fault_stale_snapshot() {
  std::lock_guard<std::mutex> hold(mu_);
  img_.stale_snapshot();
}

// ---------------------------------------------------------------------------
// FileStore.

namespace {

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return {};
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::filesystem::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  STPX_EXPECT(static_cast<bool>(out), "FileStore: cannot open " + p.string());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void append_file(const std::filesystem::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::app);
  STPX_EXPECT(static_cast<bool>(out), "FileStore: cannot open " + p.string());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

FileStore::FileStore(std::string dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

StoreImage FileStore::load() const {
  const std::filesystem::path d(dir_);
  StoreImage img;
  img.log = read_file(d / "log");
  img.snapshot = read_file(d / "snapshot");
  img.snapshot_old = read_file(d / "snapshot.old");
  img.log_old = read_file(d / "log.old");
  return img;
}

void FileStore::flush(const StoreImage& img) const {
  const std::filesystem::path d(dir_);
  write_file(d / "log", img.log);
  write_file(d / "snapshot", img.snapshot);
  write_file(d / "snapshot.old", img.snapshot_old);
  write_file(d / "log.old", img.log_old);
}

void FileStore::reset() {
  StoreImage img;
  flush(img);
  torn_next_ = false;
  appends_ = 0;
}

void FileStore::append(const std::string& state) {
  std::string rec;
  rec.reserve(kHeaderSize + state.size());
  put_record(rec, state, torn_next_);
  append_file(std::filesystem::path(dir_) / "log", rec);
  ++appends_;
}

void FileStore::append_batch(const std::vector<std::string>& states) {
  // Group commit: frame everything, then one write for the batch.
  if (states.empty()) return;
  std::size_t bytes = 0;
  for (const std::string& s : states) bytes += kHeaderSize + s.size();
  std::string batch;
  batch.reserve(bytes);
  for (const std::string& s : states) put_record(batch, s, torn_next_);
  append_file(std::filesystem::path(dir_) / "log", batch);
  appends_ += states.size();
}

void FileStore::compact() {
  StoreImage img = load();
  img.compact();
  flush(img);
}

ReplayResult FileStore::replay() { return load().replay(); }

void FileStore::fault_torn_next_append() { torn_next_ = true; }

void FileStore::fault_lose_tail(std::uint64_t n) {
  StoreImage img = load();
  img.lose_tail(n);
  flush(img);
}

void FileStore::fault_corrupt_record() {
  StoreImage img = load();
  img.corrupt_record();
  flush(img);
}

void FileStore::fault_stale_snapshot() {
  StoreImage img = load();
  img.stale_snapshot();
  flush(img);
}

}  // namespace stpx::store

#include "store/stable_store.hpp"

#include <filesystem>
#include <fstream>

#include "util/expect.hpp"

namespace stpx::store {

namespace {

constexpr char kMagic[4] = {'S', 'P', 'X', 'R'};
constexpr std::size_t kHeaderSize = 4 + 4 + 8;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint32_t get_u32(const std::string& buf, std::size_t pos) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[pos + i])) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::string& buf, std::size_t pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[pos + i])) << (8 * i);
  return v;
}

bool magic_at(const std::string& buf, std::size_t pos) {
  return pos + 4 <= buf.size() && buf[pos] == kMagic[0] && buf[pos + 1] == kMagic[1] &&
         buf[pos + 2] == kMagic[2] && buf[pos + 3] == kMagic[3];
}

std::size_t next_magic(const std::string& buf, std::size_t from) {
  for (std::size_t p = from; p + 4 <= buf.size(); ++p)
    if (magic_at(buf, p)) return p;
  return buf.size();
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
  std::size_t pos = 0;
  while (pos < buffer.size()) {
    if (magic_at(buffer, pos) && pos + kHeaderSize <= buffer.size()) {
      const std::uint32_t len = get_u32(buffer, pos + 4);
      const std::uint64_t sum = get_u64(buffer, pos + 8);
      if (pos + kHeaderSize + len <= buffer.size()) {
        std::string payload = buffer.substr(pos + kHeaderSize, len);
        if (fnv1a(payload) == sum) {
          units.push_back({pos, kHeaderSize + len, std::move(payload), true});
          pos += kHeaderSize + len;
          continue;
        }
      }
    }
    // Damaged region: re-sync to the next magic strictly after pos.
    const std::size_t resync = next_magic(buffer, pos + 1);
    units.push_back({pos, resync - pos, std::string{}, false});
    pos = resync;
  }
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
  ReplayResult out;
  for (const std::string* buf : {&snapshot, &log}) {
    for (auto& u : parse_records(*buf)) {
      if (u.valid) {
        out.payloads.push_back(std::move(u.payload));
      } else {
        ++out.records_skipped;
      }
    }
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

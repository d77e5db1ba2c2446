#pragma once
// Stable storage for crash-recoverable processes.
//
// An IStableStore is an append-only log of checksummed full-state
// checkpoint records plus a snapshot area.  The engine appends one record
// per durable state transition (commit point) and calls recover() when a
// crashed process restarts; recovery replays snapshot and log and the
// newest record that passes its checksum wins, falling back to the
// snapshot and finally to "nothing found" (cold start).
//
// The store is itself fault-injectable, with damage bounded to the tail
// of the log — the failure model of a single machine losing or mangling
// its most recent unsynced writes:
//
//   * torn write       — the next append is truncated mid-record
//   * lose tail        — the newest n records vanish
//   * corrupt record   — bytes of the newest record flip (checksum catches)
//   * stale snapshot   — compaction's snapshot write was not yet durable;
//                        the previous snapshot and the records it folded
//                        in reappear (benign by design: records are full
//                        states, so replay recovers the same state)
//
// Record framing, shared by both stores and exposed for tests:
//   [4-byte magic "SPXR"][u32 payload length][u64 FNV-1a][payload]
// Payloads are util::Blob text (digits and spaces), so the magic can
// never occur inside a payload and a damaged region is re-synced by
// scanning for the next magic.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace stpx::store {

/// Result of scanning the store after a crash.
struct RecoveredState {
  bool found = false;            ///< any valid state recovered
  std::string state;             ///< newest valid checkpoint payload
  std::uint64_t records_replayed = 0;  ///< valid records scanned
  std::uint64_t records_skipped = 0;   ///< damaged records detected + skipped
};

/// Every valid payload in the store, oldest first (snapshot, then log),
/// for logs that multiplex records of independent streams (e.g. one
/// manifest record per network session): recover() collapses to the
/// newest record, replay() keeps them all so the reader can fold
/// newest-per-stream itself.
struct ReplayResult {
  std::vector<std::string> payloads;
  std::uint64_t records_skipped = 0;  ///< damaged records detected + skipped
};

class IStableStore {
 public:
  virtual ~IStableStore() = default;

  /// Wipe everything; called once per run before the first append.
  virtual void reset() = 0;
  /// Append one full-state checkpoint record.
  virtual void append(const std::string& state) = 0;
  /// Group commit: append every record as one unit — the unit the
  /// session mux uses so that 10k sessions cost one write per shard
  /// sweep, not 10k.  The default is append-per-record + sync();
  /// FileStore overrides it with one file write for the whole batch.
  virtual void append_batch(const std::vector<std::string>& states);
  /// Make buffered appends durable now.  Both stores write through, so
  /// for them this is a no-op; it stays a hook for decorators.
  virtual void sync() {}
  /// Fold the log into the snapshot area and truncate the log.
  virtual void compact() = 0;
  /// Scan for the newest valid state (see file header for the rules).
  /// The default folds replay(): the last payload wins, every payload
  /// counts as replayed and the damaged records as skipped.
  virtual RecoveredState recover();
  /// Every valid payload oldest-first (see ReplayResult).
  virtual ReplayResult replay() = 0;
  /// Total records appended since reset() (drives periodic compaction).
  virtual std::uint64_t appends() const = 0;

  // Fault entry points (driven by the engine from FaultPlan actions).
  virtual void fault_torn_next_append() = 0;
  virtual void fault_lose_tail(std::uint64_t n) = 0;
  virtual void fault_corrupt_record() = 0;
  virtual void fault_stale_snapshot() = 0;

  virtual std::string name() const = 0;
};

/// Frame one payload as a checksummed record.
std::string encode_record(const std::string& payload);

/// One parsed region of a record buffer: either a valid record or a
/// damaged span up to the next re-sync point.
struct RecordUnit {
  std::size_t offset = 0;
  std::size_t size = 0;
  std::string payload;  ///< empty when !valid
  bool valid = false;
};

/// Split a buffer into records, re-syncing past damaged regions.  The
/// same walk as StoreImage::replay(), which copies only valid payloads.
std::vector<RecordUnit> parse_records(const std::string& buffer);

/// The logical image both concrete stores operate on: the live log and
/// snapshot plus the previous compaction's buffers (retained so the
/// stale-snapshot fault can roll compaction back).
struct StoreImage {
  std::string log;
  std::string snapshot;      ///< at most one framed record
  std::string snapshot_old;  ///< snapshot before the last compact()
  std::string log_old;       ///< log records folded in by the last compact()
  bool torn_next = false;

  void clear();
  void append(const std::string& state);
  void compact();
  ReplayResult replay() const;
  void lose_tail(std::uint64_t n);
  void corrupt_record();
  void stale_snapshot();
};

/// In-memory stable store — the default for sweeps and soaks.
/// Internally synchronized: the fabric's reclaim path replays a
/// survivor's store as a handoff source while the survivor's restarted
/// mux is still appending to it, so every image operation holds the
/// store mutex (each append lands a whole framed record, so a replay
/// interleaved mid-batch still parses at record boundaries).
class MemStore final : public IStableStore {
 public:
  void reset() override;
  void append(const std::string& state) override;
  void compact() override;
  ReplayResult replay() override;
  std::uint64_t appends() const override;

  void fault_torn_next_append() override;
  void fault_lose_tail(std::uint64_t n) override;
  void fault_corrupt_record() override;
  void fault_stale_snapshot() override;

  std::string name() const override { return "mem"; }

 private:
  mutable std::mutex mu_;
  StoreImage img_;
  std::uint64_t appends_ = 0;
};

/// File-backed stable store: a directory holding `log`, `snapshot`,
/// `snapshot.old`, and `log.old`.  The bytes on disk are the single
/// source of truth, and every append writes through: a second FileStore
/// opened on the same directory recovers every record appended so far.
/// append() writes its framed record to the log file in append mode
/// (records are self-framing), append_batch() writes the whole framed
/// batch with one write, and snapshot rewrites happen only on
/// compaction.  Writes go through std::ofstream with no fsync, so the
/// crash model is process death; an unsynced tail exists only as the
/// lose-tail fault.
class FileStore final : public IStableStore {
 public:
  explicit FileStore(std::string dir);

  void reset() override;
  void append(const std::string& state) override;
  void append_batch(const std::vector<std::string>& states) override;
  void compact() override;
  ReplayResult replay() override;
  std::uint64_t appends() const override { return appends_; }

  void fault_torn_next_append() override;
  void fault_lose_tail(std::uint64_t n) override;
  void fault_corrupt_record() override;
  void fault_stale_snapshot() override;

  std::string name() const override { return "file"; }
  const std::string& dir() const { return dir_; }

 private:
  StoreImage load() const;
  void flush(const StoreImage& img) const;

  std::string dir_;
  bool torn_next_ = false;
  std::uint64_t appends_ = 0;
};

}  // namespace stpx::store

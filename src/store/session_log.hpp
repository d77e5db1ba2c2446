#pragma once
// Session manifest records: the durable unit of the wire layer.
//
// A SessionMux checkpoints every durable session as manifest records in
// an IStableStore log (group-committed per shard, see docs/NETWORK.md).
// Unlike the engine's single-process checkpoint log — where recover()
// collapses to the newest record — a session log multiplexes independent
// streams, so rehydration replays ALL valid records and folds them per
// session here.
//
// Records are ordered by (epoch, seq): epoch is the mux generation
// (bumped past the maximum seen on every rehydration, so records written
// after a restart always supersede pre-crash ones even though the
// per-mux seq counter restarts), and seq is a process-wide append
// counter within the generation.  Byte order in the log is NOT trusted —
// a stale-snapshot fault can resurrect old records behind newer ones.
//
// The manifest payload is ordinary util::Blob text, in two kinds:
//
//   full  [7001] [session] [is_sender] [epoch] [seq] [proto_tag]
//         [position] [completed] [owner] [vec: endpoint_state tokens]
//   delta [7002] [session] [is_sender] [epoch] [seq] [proto_tag]
//         [position] [completed] [owner] [base] [vec: endpoint_state]
//
// proto_tag fingerprints the endpoint's protocol (FNV-1a of its name());
// rehydration factories use it to refuse to feed a blob saved by one
// protocol into another.  endpoint_state is the opaque
// ISessionEndpoint::save_state(base) blob, nested as one length-prefixed
// vec so the outer record stays a flat token list.  A full record
// (base 0) holds the endpoint's whole state; a delta (0 < base <=
// position) holds its state without the output written before `base`,
// so it extends the session's previous record, which ended at `base`.  A
// receiver writes one full record per generation and deltas after it,
// which keeps a record's size flat as its tape grows.
//
// The fold.  Per session, in (epoch, seq) order, the live chain starts at
// the newest full record and takes every later delta of the same epoch
// whose base is the position the chain has reached.  The first that does
// not fit (a lost, torn or corrupt record left a gap) ends it, which
// truncates the tape to its contiguous prefix — a rewind the peer heals
// by retransmission.  Records with equal (epoch, seq) count once.  The
// scan hands out each chain as one manifest: the last record's fields,
// base 0, and the chain's blobs joined by single spaces, which
// ISessionEndpoint::restore_state() takes whole.
//
// Payloads are canonical blob text (util/blob.hpp): to_payload() counts a
// canonical endpoint_state and copies it verbatim, and the one reader
// takes it out as it stands, so a record costs a copy of its bytes rather
// than a parse-and-print of the state inside it.  A payload in any other
// spelling is malformed: from_payload() refuses it and the scan skips it
// like damage.  The scan keeps, per record, its fixed fields and a view
// of its endpoint state; only each chain's last record becomes a
// SessionManifest.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "store/stable_store.hpp"

namespace stpx::store {

/// Protocol fingerprint for manifest records: FNV-1a64 of the name.
std::uint64_t proto_tag_of(const std::string& name);

struct SessionManifest {
  std::uint32_t session = 0;
  bool is_sender = false;
  std::uint64_t epoch = 1;       ///< mux generation (bumped per rehydration)
  std::uint64_t seq = 0;         ///< append order within the generation
  std::uint64_t proto_tag = 0;   ///< proto_tag_of(endpoint name)
  std::uint64_t position = 0;    ///< endpoint items_done() at checkpoint
  bool completed = false;        ///< FIN state: session was terminal-completed
  /// Which fabric backend wrote the record (0 = unattributed).  After a
  /// cross-process re-homing the survivor's records carry its own id, so
  /// a merged or handed-off log stays attributable (docs/FABRIC.md).
  std::uint32_t owner = 0;
  /// 0: a full record.  Otherwise a delta: endpoint_state is
  /// save_state(base), which extends the record that ended at `base`.
  std::uint64_t base = 0;
  std::string endpoint_state;    ///< ISessionEndpoint::save_state() blob

  /// True when (epoch, seq) orders this record after `other`.
  bool newer_than(const SessionManifest& other) const {
    return epoch != other.epoch ? epoch > other.epoch : seq > other.seq;
  }

  /// A full record (tag 7001) when base == 0, a delta (7002) otherwise.
  std::string to_payload() const;
  /// nullopt on malformed blobs (wrong tag, truncation, junk tokens,
  /// non-canonical text, a delta whose base is 0 or past its position).
  static std::optional<SessionManifest> from_payload(const std::string& payload);
};

/// Result of scanning one or more session logs after a restart.
struct SessionLogScan {
  /// Each session's chain as one full manifest (map: deterministic id
  /// order).  Sessions with no surviving full record are absent.
  std::map<std::uint32_t, SessionManifest> newest;
  std::uint64_t records_scanned = 0;  ///< valid manifest records seen
  std::uint64_t records_skipped = 0;  ///< store damage + non-manifest payloads
  std::uint64_t max_epoch = 0;        ///< highest epoch across all records
};

/// Replay every store and fold each session's chain by (epoch, seq).
SessionLogScan scan_session_logs(const std::vector<IStableStore*>& stores);

/// Receiver-role session ids manifested across `stores`, in id order —
/// the set a rejoining backend can claim durable ownership of (its
/// reclaim set, minus whatever the membership table has since moved for
/// good).  Sender manifests are skipped: a fabric cell hosts receivers.
std::vector<std::uint32_t> manifested_sessions(
    const std::vector<IStableStore*>& stores);

/// Rewrite one store to hold only each session's chain, its records
/// verbatim, in (epoch, seq) order: one full record per session once a
/// drain has written one for each.  Returns the number of records
/// dropped.  The rewrite is reset + re-append, which is NOT crash-atomic
/// — callers run it only on the graceful drain path, never as crash
/// recovery.
std::uint64_t compact_session_log(IStableStore& store);

}  // namespace stpx::store

#pragma once
// Session manifest records: the durable unit of the wire layer.
//
// A SessionMux checkpoints every durable session as one manifest record
// in an IStableStore log (group-committed per shard, see
// docs/NETWORK.md).  Unlike the engine's single-process checkpoint log —
// where recover() collapses to the newest record — a session log
// multiplexes independent streams, so rehydration replays ALL valid
// records and folds newest-per-session here.
//
// "Newest" is decided by (epoch, seq): epoch is the mux generation
// (bumped past the maximum seen on every rehydration, so records written
// after a restart always supersede pre-crash ones even though the
// per-mux seq counter restarts), and seq is a process-wide append
// counter within the generation.  Byte order in the log is NOT trusted —
// a stale-snapshot fault can resurrect old records behind newer ones.
//
// The manifest payload is ordinary util::Blob text:
//
//   [kManifestTag] [session] [is_sender] [epoch] [seq] [proto_tag]
//   [position] [completed] [owner] [vec: endpoint_state tokens]
//
// proto_tag fingerprints the endpoint's protocol (FNV-1a of its name());
// rehydration factories use it to refuse to feed a blob saved by one
// protocol into another.  endpoint_state is the opaque
// ISessionEndpoint::save_state() blob, nested as one length-prefixed
// vec so the outer record stays a flat token list.  Payloads are
// canonical blob text (util/blob.hpp): to_payload() counts a canonical
// endpoint_state and copies it verbatim, and from_payload() copies it
// back out of a canonical payload, so a record costs a copy of its bytes
// rather than a parse-and-print of the tape inside it.

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
  std::string endpoint_state;    ///< ISessionEndpoint::save_state() blob

  /// True when (epoch, seq) orders this record after `other`.
  bool newer_than(const SessionManifest& other) const {
    return epoch != other.epoch ? epoch > other.epoch : seq > other.seq;
  }

  std::string to_payload() const;
  /// nullopt on malformed blobs (wrong tag, truncation, junk tokens).
  static std::optional<SessionManifest> from_payload(const std::string& payload);
};

/// Result of scanning one or more session logs after a restart.
struct SessionLogScan {
  /// Newest manifest per session id (map: deterministic id order).
  std::map<std::uint32_t, SessionManifest> newest;
  std::uint64_t records_scanned = 0;  ///< valid manifest records seen
  std::uint64_t records_skipped = 0;  ///< store damage + non-manifest payloads
  std::uint64_t max_epoch = 0;        ///< highest epoch across all records
};

/// Replay every store and fold newest-per-session by (epoch, seq).
SessionLogScan scan_session_logs(const std::vector<IStableStore*>& stores);

/// Receiver-role session ids manifested across `stores`, in id order —
/// the set a rejoining backend can claim durable ownership of (its
/// reclaim set, minus whatever the membership table has since moved for
/// good).  Sender manifests are skipped: a fabric cell hosts receivers.
std::vector<std::uint32_t> manifested_sessions(
    const std::vector<IStableStore*>& stores);

/// Rewrite one store to hold only the newest record per session, in
/// (epoch, seq) order.  Returns the number of records dropped.  The
/// rewrite is reset + re-append, which is NOT crash-atomic — callers run
/// it only on the graceful drain path, never as crash recovery.
std::uint64_t compact_session_log(IStableStore& store);

}  // namespace stpx::store

#pragma once
// Helpers shared by the protocols' save_state()/restore_state()
// implementations (the durable recovery layer — see docs/RECOVERY.md).
//
// Blobs are util::Blob integer text.  Each protocol prefixes its blob with
// a distinct tag so a checkpoint from one protocol can never rehydrate
// another.  Receiver restores reconcile against the engine-owned output
// tape Y: a checkpoint may predate the newest writes (lost tail records),
// but every item the tape holds was definitely externalized, so the stale
// front of the pending-write queue is dropped and the write cursor
// advances to tape.size().  This is what makes a one-record rewind
// prefix-safe: a lost transition either changed no durable state (a pure
// retransmission) or drained a durable queue whose externalized part the
// tape replays.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "seq/types.hpp"
#include "util/blob.hpp"

namespace stpx::proto {

inline void write_items(util::BlobWriter& w,
                        const std::vector<seq::DataItem>& v) {
  std::vector<std::int64_t> tmp(v.begin(), v.end());
  w.vec(tmp);
}

/// True when a restored token is a value a seq::DataItem holds.  Tokens
/// are int64 and items int32: a token outside that range is damage, to
/// refuse, never an item to narrow.
inline bool fits_item(std::int64_t v) {
  return v >= std::numeric_limits<seq::DataItem>::min() &&
         v <= std::numeric_limits<seq::DataItem>::max();
}

/// True when every token lies in [lo, hi].  Restores check every token
/// this way before they assign a member, so a refused blob leaves the
/// process as it was.
inline bool all_within(
    const std::vector<std::int64_t>& v, std::int64_t lo,
    std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
  return std::all_of(v.begin(), v.end(),
                     [&](std::int64_t t) { return t >= lo && t <= hi; });
}

inline bool read_items(util::BlobReader& r, std::vector<seq::DataItem>& out) {
  std::vector<std::int64_t> tmp;
  if (!r.vec(tmp) || !std::all_of(tmp.begin(), tmp.end(), fits_item)) {
    return false;
  }
  out.assign(tmp.begin(), tmp.end());
  return true;
}

/// Advance `written` to the tape length, dropping the already-externalized
/// front of `pending` (pending queues drain FIFO, so writes the tape holds
/// beyond the checkpoint's cursor are exactly the queue's front).
inline void reconcile_with_tape(std::int64_t& written,
                                std::vector<seq::DataItem>& pending,
                                const seq::Sequence& tape) {
  const auto n = static_cast<std::int64_t>(tape.size());
  if (n <= written) return;
  const std::int64_t drop = std::min<std::int64_t>(
      n - written, static_cast<std::int64_t>(pending.size()));
  pending.erase(pending.begin(), pending.begin() + drop);
  written = n;
}

}  // namespace stpx::proto

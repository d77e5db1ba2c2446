// Wire codec: the versioned frame format every stpx transport carries.
//
// A frame is the on-the-wire unit of the service layer: one protocol
// message (`sim::MsgId`) stamped with the session it belongs to, the
// direction it travels, and a checksum.  The layout is fixed-size and
// little-endian so encode/decode are branch-light and allocation-free:
//
//   offset  size  field
//   0       2     magic  0x53 0x54 ("ST")
//   2       1     version (kWireVersion)
//   3       1     kind    (0 = data, 1 = fin, 2 = probe, 3 = probe-ack,
//                          4 = join, 5 = join-ack)
//   4       1     dir     (0 = S->R, 1 = R->S)
//   5       4     session id, u32 LE
//   9       8     msg id, i64 LE (two's complement)
//   17      4     FNV-1a 32 checksum over bytes [0, 17), u32 LE
//   -- total 21 bytes (kFrameSize)
//
// decode() never throws: malformed bytes — wrong size, bad magic, unknown
// version/kind/dir, checksum mismatch — yield a reject with a reason,
// mirroring the defensive-ignore convention of the stabilization layer
// (docs/STABILIZATION.md): a transport peer can be arbitrarily hostile and
// the worst it achieves is a counted, dropped frame.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace stpx::net {

inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kFrameSize = 21;
inline constexpr std::uint8_t kMagic0 = 0x53;  // 'S'
inline constexpr std::uint8_t kMagic1 = 0x54;  // 'T'

/// What a frame carries.  kData frames hold one protocol message; kFin is
/// the service layer's receipt notice (the receiver-side session observed
/// its full expected sequence — see docs/NETWORK.md).  kProbe/kProbeAck
/// are the fabric's liveness heartbeat (docs/FABRIC.md): a router sends a
/// kProbe carrying a nonce in `msg` on the reserved kFabricSession; a live
/// mux answers with a kProbeAck echoing the nonce.  Probe frames never
/// reach a session.
///
/// The remaining kinds are the fabric's rejoin handshake (docs/FABRIC.md):
///   kJoin       — a fenced backend announcing itself for rejoin on the
///                 reserved kFabricSession; `msg` carries its new cell
///                 generation.
///   kJoinAck    — the router's answer; `msg` carries the current
///                 membership epoch, confirming probation has begun.
/// A mux is not a party to either: control kinds other than kProbe
/// reaching a mux pump are counted and dropped, never delivered.
enum class FrameKind : std::uint8_t {
  kData = 0,
  kFin = 1,
  kProbe = 2,
  kProbeAck = 3,
  kJoin = 4,
  kJoinAck = 5,
};

/// Highest valid FrameKind value (decode()'s validity bound).
inline constexpr std::uint8_t kMaxFrameKind = 5;

constexpr const char* to_cstr(FrameKind k) {
  switch (k) {
    case FrameKind::kData: return "data";
    case FrameKind::kFin: return "fin";
    case FrameKind::kProbe: return "probe";
    case FrameKind::kProbeAck: return "probe-ack";
    case FrameKind::kJoin: return "join";
    case FrameKind::kJoinAck: return "join-ack";
  }
  return "?";
}

/// Session id reserved for fabric control traffic (probes); never a real
/// session — the mux refuses to register it.
inline constexpr std::uint32_t kFabricSession = 0xFFFFFFFFu;

/// Why decode() rejected a byte buffer.
enum class RejectReason : std::uint8_t {
  kBadSize = 0,
  kBadMagic,
  kBadVersion,
  kBadKind,
  kBadDir,
  kBadChecksum,
};

constexpr const char* to_cstr(RejectReason r) {
  switch (r) {
    case RejectReason::kBadSize: return "bad-size";
    case RejectReason::kBadMagic: return "bad-magic";
    case RejectReason::kBadVersion: return "bad-version";
    case RejectReason::kBadKind: return "bad-kind";
    case RejectReason::kBadDir: return "bad-dir";
    case RejectReason::kBadChecksum: return "bad-checksum";
  }
  return "?";
}

/// Number of RejectReason values.
inline constexpr std::size_t kRejectReasonCount = 6;

/// One decoded frame.  `msg` is the protocol payload for kData frames; for
/// kFin frames it carries the receiver's item count (informational).
struct Frame {
  FrameKind kind = FrameKind::kData;
  sim::Dir dir = sim::Dir::kSenderToReceiver;
  std::uint32_t session = 0;
  sim::MsgId msg = 0;

  friend bool operator==(const Frame&, const Frame&) = default;
};

std::string to_string(const Frame& f);

/// FNV-1a 32-bit over `len` bytes (the frame checksum primitive; exposed
/// for tests).  A single corrupted byte anywhere in the covered region is
/// guaranteed to change the digest — each round is injective in the running
/// hash (odd multiplier mod 2^32) and in the input byte (XOR).
std::uint32_t fnv1a32(const std::uint8_t* data, std::size_t len);

/// Serialize to exactly kFrameSize bytes.
std::vector<std::uint8_t> encode(const Frame& f);

/// Parse a byte buffer.  Returns the frame, or std::nullopt with `*why`
/// set (when `why` is non-null).  Never throws, never reads out of bounds.
std::optional<Frame> decode(const std::uint8_t* data, std::size_t len,
                            RejectReason* why = nullptr);
std::optional<Frame> decode(const std::vector<std::uint8_t>& bytes,
                            RejectReason* why = nullptr);

}  // namespace stpx::net

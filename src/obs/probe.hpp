// The event record and the probe interface every stpx run reports into.
//
// The paper's arguments — and any live diagnosis of a sweep, a soak or a
// running mux — are about what happened *during* a run: which direction
// carried traffic, how long items waited to be written, when a fault
// window opened.  Every producer reports those events as one compact
// TraceEvent through one call, IProbe::record:
//
//   * sim::Engine and fault::ChaosChannel report the engine kinds, stamped
//     with the engine step, synchronously from Engine::apply() /
//     ChaosChannel::fire().  Set EngineConfig::probe (non-owning; the
//     caller keeps the probe alive for the run).  stp::with_chaos()
//     forwards the same probe into its ChaosChannel, so fault firings land
//     in the same stream.  Engine::clone() shares the probe pointer:
//     analysis layers that branch runs (knowledge explorer, attack
//     synthesizer) interleave events from every branch, so attach probes to
//     linear runs.
//   * net::SessionMux reports the wire kinds from its pump and workers
//     concurrently (see MuxConfig::probe); net::FlightRecorder stamps their
//     timestamps.
//
// With no probe attached a producer pays one null-pointer test per event
// site — nothing is recorded and nothing is allocated.
//
// This header is link-free for sim and fault, which use only the record
// and the interface; the obs *library* (MultiProbe, metrics, reports)
// sits above them.  That keeps the library DAG acyclic:
//   util <- seq <- sim(+probe.hpp) <- {channel, fault} <- obs <- proto ...
// The JSONL codec and the trace sinks live in net (net/trace_sinks.hpp),
// the lowest library that can name every enum a record carries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace stpx::obs {

/// Which event a TraceEvent records.  The wire kinds come first and keep
/// their values; the engine kinds follow.
enum class TraceEventKind : std::uint8_t {
  // --- wire (net::SessionMux) --------------------------------------------
  kFrameSent = 0,
  kFrameReceived,
  kFrameRejected,
  kFrameShed,        // an inbound frame shed by inbox backpressure
  kItem,             // a receiver session wrote a correct-prefix item
  kSessionState,     // a session entered a terminal state
  kRehydrate,        // rehydrate() re-admitted a manifested session
  kCheckpointFlush,  // a shard group-committed manifest records
  kProbeAnswered,    // fabric heartbeat echoed; msg carries the nonce
  // --- engine (sim::Engine, fault::ChaosChannel) -------------------------
  kRunBegin,
  kStep,      // an action is about to be applied (once per step)
  kSend,      // a process handed a message to the channel
  kDeliver,   // one copy of a message was delivered
  kWrite,     // the receiver appended an output item
  kCrash,     // a process was crash-restarted (volatile state lost)
  kRestart,   // paired with kCrash: the process came back up
  kStall,     // the watchdog declared the run stalled
  kScramble,  // a scramble-state fault struck a process
  kConverge,  // a corrupted run met the suffix-safety criterion at run end
  kRunEnd,
  kFault,     // the chaos layer fired a fault action
};

constexpr const char* to_cstr(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kFrameSent: return "frame-sent";
    case TraceEventKind::kFrameReceived: return "frame-received";
    case TraceEventKind::kFrameRejected: return "frame-rejected";
    case TraceEventKind::kFrameShed: return "frame-shed";
    case TraceEventKind::kItem: return "item";
    case TraceEventKind::kSessionState: return "session-state";
    case TraceEventKind::kRehydrate: return "rehydrate";
    case TraceEventKind::kCheckpointFlush: return "checkpoint-flush";
    case TraceEventKind::kProbeAnswered: return "probe-answered";
    case TraceEventKind::kRunBegin: return "run_begin";
    case TraceEventKind::kStep: return "step";
    case TraceEventKind::kSend: return "send";
    case TraceEventKind::kDeliver: return "deliver";
    case TraceEventKind::kWrite: return "write";
    case TraceEventKind::kCrash: return "crash";
    case TraceEventKind::kRestart: return "restart";
    case TraceEventKind::kStall: return "stall";
    case TraceEventKind::kScramble: return "scramble";
    case TraceEventKind::kConverge: return "converge";
    case TraceEventKind::kRunEnd: return "run_end";
    case TraceEventKind::kFault: return "fault";
  }
  return "?";
}

/// Number of TraceEventKind values.
inline constexpr std::size_t kTraceEventKindCount = 21;

/// One event, as a fixed-size POD a recorder can copy into a ring without
/// allocating.  (Not the engine's sim::TraceEvent, which is the per-step
/// replay record.)  Payload fields are kind-dependent:
///
///   kind              msg          aux            session  detail        dir
///   frame-sent/-recv  MsgId        -              session  FrameKind     dir
///   frame-rejected    -            -              -        RejectReason  -
///   frame-shed        -            -              session  -             -
///   item              index        -              session  -             -
///   session-state     -            -              session  SessionState  -
///   rehydrate         position     -              session  SessionState  -
///   checkpoint-flush  records      duration (µs)  shard    -             -
///   probe-answered    nonce        -              -        -             -
///   run_begin         items        -              -        -             -
///   step              action msg   -              -        ActionKind    -
///   send / deliver    MsgId        -              -        -             dir
///   write             item         index          -        -             -
///   crash             -            -              -        Proc          -
///   restart           records      rehydrated     -        Proc          -
///                     replayed     (0/1)
///   scramble          -            accepted (0/1) -        Proc          -
///   converge          -            steps since    -        -             -
///                                  corruption
///   run_end           -            -              -        RunVerdict    -
///   fault             match        count, or the  -        FaultKind     dir
///                                  window length
///                                  (blackout/freeze)
///
/// `ts_us` is the recorder's epoch-relative microseconds for wire kinds and
/// the engine step for engine kinds (the Chrome export renders 1 step as
/// 1 µs).  `seq` is a recorder's per-ring write index (0 from the engine),
/// and `backend` the fabric backend whose recorder stamped the event (0 =
/// unattributed / single-process).
struct TraceEvent {
  std::uint64_t ts_us = 0;
  std::uint64_t seq = 0;
  std::int64_t msg = 0;
  std::uint64_t aux = 0;
  std::uint32_t session = 0;
  std::uint32_t backend = 0;
  TraceEventKind kind = TraceEventKind::kFrameSent;
  std::uint8_t detail = 0;
  sim::Dir dir = sim::Dir::kSenderToReceiver;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// A passive observer of a run's event stream.  Engine-side producers call
/// it from the run's one thread; a probe attached to a mux must be
/// thread-safe (MuxConfig::probe).
class IProbe {
 public:
  virtual ~IProbe() = default;
  virtual void record(const TraceEvent& ev) = 0;
};

/// Fan-out: forwards every event to each registered probe, in order.  Lets
/// a caller attach a MetricsProbe and a trace sink to the same run.
/// Defined out of line (probe.cpp): an inline record() would be
/// speculatively inlined at every event site of the engine and the mux,
/// bloating their hot paths even when no probe is attached.
class MultiProbe final : public IProbe {
 public:
  MultiProbe() = default;
  explicit MultiProbe(std::vector<IProbe*> probes);

  /// Register a probe (non-owning; ignored if null).
  void add(IProbe* p);

  void record(const TraceEvent& ev) override;

 private:
  std::vector<IProbe*> probes_;
};

}  // namespace stpx::obs

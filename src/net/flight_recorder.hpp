// FlightRecorder — the wire-level observatory's capture stage.
//
// A probe that appends every TraceEvent it is given to a bounded
// per-shard ring buffer, stamping its timestamp, ring sequence number and
// backend id:
//
//   * Shards are claimed per *producer thread*: the first event a thread
//     records binds it to a free ring, so in the common case (threads <=
//     shards) each ring has exactly one producer and one consumer — a true
//     SPSC ring needing only acquire/release atomics on head/tail.  When
//     threads outnumber shards, the surplus threads share rings and a
//     per-ring producer mutex (uncontended otherwise) serializes them;
//     correctness never depends on the thread count.
//   * Rings are BOUNDED (capacity rounded up to a power of two) and never
//     block the hot path: when a ring is full the incoming event is
//     dropped and counted — explicit drop accounting, never backpressure
//     into the mux.  A flight recorder must observe, not perturb.
//   * drain() consumes everything published so far and merge-sorts the
//     per-shard streams into one (ts_us, seq)-ordered stream.  It is safe
//     to call concurrently with live recording (periodic drains bound the
//     memory of long runs) as long as only one thread drains.
//
// Timestamps are steady_clock microseconds relative to the recorder's
// construction (`epoch()`); to_trace_spans() rebases wall-clock intervals
// (e.g. LoopbackPair::fault_windows()) onto the same clock so sinks and
// analyzers can overlay them on the event stream.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "net/mux.hpp"
#include "net/trace_sinks.hpp"
#include "obs/probe.hpp"

namespace stpx::net {

struct FlightRecorderConfig {
  /// Producer rings.  Sized for the mux's thread census (workers + pump);
  /// more threads than shards still works, just with mutex sharing.
  std::size_t shards = 8;
  /// Events per ring; rounded up to a power of two (min 8).
  std::size_t ring_capacity = 1 << 14;
  /// Stamped into every event's `backend` field (0 = unattributed).  Give
  /// each fabric backend its own id so traces drained from several
  /// recorders — or several processes — stay attributable after a merge.
  std::uint32_t backend_id = 0;
};

/// Drop/throughput accounting (a consistent-enough snapshot of atomics).
struct FlightRecorderStats {
  std::uint64_t recorded = 0;  // events written into a ring
  std::uint64_t dropped = 0;   // events lost to full rings
  std::vector<std::uint64_t> dropped_per_shard;
};

class FlightRecorder final : public obs::IProbe {
 public:
  explicit FlightRecorder(FlightRecorderConfig cfg = {});
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;
  ~FlightRecorder() override;

  /// Append `ev` to the calling thread's ring, stamped with the
  /// recorder's clock (ts_us), the ring's sequence number (seq) and this
  /// recorder's backend id.  One ring append; thread-safe.
  void record(const obs::TraceEvent& ev) override;

  /// Consume every event published so far, merge-sorted by (ts_us, seq).
  /// Single consumer; safe against concurrent producers.
  std::vector<obs::TraceEvent> drain();

  FlightRecorderStats stats() const;
  std::chrono::steady_clock::time_point epoch() const { return epoch_; }
  /// The epoch as absolute steady-clock microseconds.  CLOCK_MONOTONIC is
  /// machine-wide, so recorders in different processes (or constructed at
  /// different times in one process) can be merged onto a common clock:
  /// rebase each stream by (epoch_offset_us - min over streams) — see
  /// fabric::merge_backend_traces.
  std::uint64_t epoch_offset_us() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            epoch_.time_since_epoch())
            .count());
  }
  std::uint32_t backend_id() const { return backend_id_; }
  /// kItem events seen so far, recorded or dropped: the items written by
  /// every generation reporting here.  Safe to poll from any thread.
  std::uint64_t items() const;
  std::size_t shard_count() const { return rings_.size(); }
  std::size_t ring_capacity() const { return capacity_; }

  /// Publish recorded/dropped counters into `reg` (net.trace.* family).
  void publish_metrics(obs::MetricsRegistry& reg) const;

 private:
  /// One bounded ring.  head_ is published by the producer side with
  /// release order; tail_ by the (single) consumer.  buf_ slots in
  /// [tail_, head_) are owned by the consumer, the rest by producers.
  struct Ring {
    std::vector<obs::TraceEvent> buf;
    std::mutex producer_mu;  // uncontended while threads <= shards
    std::atomic<std::uint64_t> head{0};
    std::atomic<std::uint64_t> tail{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> seq{0};  // per-shard event sequence
    std::atomic<std::uint64_t> items{0};  // kItem events, kept or dropped
  };

  Ring& ring_for_thread();
  std::uint64_t now_us() const;

  /// Process-unique, never reused: keys each thread's ring binding, which
  /// a recycled recorder address must not inherit.
  const std::uint64_t id_;
  std::chrono::steady_clock::time_point epoch_;
  std::size_t capacity_ = 0;  // power of two
  std::uint32_t backend_id_ = 0;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::atomic<std::size_t> next_slot_{0};
};

/// Rebase wall-clock WireWindow intervals (e.g. a loopback transport's
/// fault_windows()) onto a recorder's epoch clock.  Windows ending before
/// the epoch vanish; begins before it clamp to 0.
std::vector<TraceSpan> to_trace_spans(
    const std::vector<WireWindow>& windows,
    std::chrono::steady_clock::time_point epoch);

}  // namespace stpx::net

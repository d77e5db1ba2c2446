#include "net/flight_recorder.hpp"

#include <algorithm>

namespace stpx::net {

namespace {

std::size_t round_pow2(std::size_t v) {
  std::size_t p = 8;
  while (p < v) p <<= 1;
  return p;
}

std::atomic<std::uint64_t> next_recorder_id{0};

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderConfig cfg)
    : id_(next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()),
      capacity_(round_pow2(std::max<std::size_t>(cfg.ring_capacity, 8))),
      backend_id_(cfg.backend_id) {
  const std::size_t shards = std::max<std::size_t>(cfg.shards, 1);
  rings_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto r = std::make_unique<Ring>();
    r->buf.resize(capacity_);
    rings_.push_back(std::move(r));
  }
}

FlightRecorder::~FlightRecorder() = default;

std::uint64_t FlightRecorder::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

FlightRecorder::Ring& FlightRecorder::ring_for_thread() {
  // First event from a thread claims the next slot round-robin; the
  // binding is cached thread-locally per recorder id (not address: a new
  // recorder may reuse a dead one's storage with fewer rings), so the hot
  // path is one small linear scan of thread-owned memory.
  thread_local std::vector<std::pair<std::uint64_t, std::size_t>> bindings;
  for (const auto& [id, slot] : bindings) {
    if (id == id_) return *rings_[slot];
  }
  const std::size_t slot =
      next_slot_.fetch_add(1, std::memory_order_relaxed) % rings_.size();
  bindings.emplace_back(id_, slot);
  return *rings_[slot];
}

void FlightRecorder::record(const obs::TraceEvent& ev) {
  Ring& r = ring_for_thread();
  if (ev.kind == obs::TraceEventKind::kItem) {
    r.items.fetch_add(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> hold(r.producer_mu);
  const std::uint64_t head = r.head.load(std::memory_order_relaxed);
  const std::uint64_t tail = r.tail.load(std::memory_order_acquire);
  if (head - tail >= capacity_) {
    // Full ring: drop the incoming event, never block the mux.  The gap
    // is accounted, and the seq counter still advances so a drained
    // stream shows exactly where the hole is.
    r.dropped.fetch_add(1, std::memory_order_relaxed);
    r.seq.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  obs::TraceEvent& slot = r.buf[head & (capacity_ - 1)];
  slot = ev;
  // Stamped under the producer mutex so a shared ring stays ts-ordered
  // even when two threads interleave (drain()'s merge relies on it).
  slot.ts_us = now_us();
  slot.seq = r.seq.fetch_add(1, std::memory_order_relaxed);
  slot.backend = backend_id_;
  r.head.store(head + 1, std::memory_order_release);
}

std::vector<obs::TraceEvent> FlightRecorder::drain() {
  // Consume each ring's published window, then k-way merge.  Each ring is
  // (ts, seq)-ordered already — one producer at a time writes it and both
  // ts and seq are monotone per ring — so a merge by (ts, seq) yields one
  // globally time-ordered stream (seq breaks same-microsecond ties
  // deterministically within a shard; cross-shard same-microsecond order
  // is arbitrary but stable for a given drain).
  std::vector<std::vector<obs::TraceEvent>> streams;
  streams.reserve(rings_.size());
  for (auto& rp : rings_) {
    Ring& r = *rp;
    const std::uint64_t head = r.head.load(std::memory_order_acquire);
    const std::uint64_t tail = r.tail.load(std::memory_order_relaxed);
    std::vector<obs::TraceEvent> s;
    s.reserve(head - tail);
    for (std::uint64_t i = tail; i < head; ++i) {
      s.push_back(r.buf[i & (capacity_ - 1)]);
    }
    r.tail.store(head, std::memory_order_release);
    if (!s.empty()) streams.push_back(std::move(s));
  }

  std::vector<obs::TraceEvent> out;
  std::size_t total = 0;
  for (const auto& s : streams) total += s.size();
  out.reserve(total);
  std::vector<std::size_t> cursor(streams.size(), 0);
  while (out.size() < total) {
    std::size_t best = streams.size();
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (cursor[i] >= streams[i].size()) continue;
      if (best == streams.size()) {
        best = i;
        continue;
      }
      const obs::TraceEvent& a = streams[i][cursor[i]];
      const obs::TraceEvent& b = streams[best][cursor[best]];
      if (a.ts_us < b.ts_us ||
          (a.ts_us == b.ts_us && a.seq < b.seq)) {
        best = i;
      }
    }
    out.push_back(streams[best][cursor[best]++]);
  }
  return out;
}

std::uint64_t FlightRecorder::items() const {
  std::uint64_t n = 0;
  for (const auto& rp : rings_) n += rp->items.load(std::memory_order_relaxed);
  return n;
}

FlightRecorderStats FlightRecorder::stats() const {
  FlightRecorderStats st;
  st.dropped_per_shard.reserve(rings_.size());
  for (const auto& rp : rings_) {
    const std::uint64_t dropped = rp->dropped.load(std::memory_order_relaxed);
    const std::uint64_t written = rp->seq.load(std::memory_order_relaxed);
    st.dropped += dropped;
    st.recorded += written - dropped;
    st.dropped_per_shard.push_back(dropped);
  }
  return st;
}

void FlightRecorder::publish_metrics(obs::MetricsRegistry& reg) const {
  const FlightRecorderStats st = stats();
  reg.counter("net.trace.recorded").inc(st.recorded);
  reg.counter("net.trace.dropped").inc(st.dropped);
}

std::vector<TraceSpan> to_trace_spans(
    const std::vector<WireWindow>& windows,
    std::chrono::steady_clock::time_point epoch) {
  std::vector<TraceSpan> out;
  out.reserve(windows.size());
  for (const WireWindow& w : windows) {
    if (w.end <= epoch) continue;
    TraceSpan s;
    s.name = w.name;
    s.begin_us =
        w.begin <= epoch
            ? 0
            : static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      w.begin - epoch)
                      .count());
    s.end_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(w.end - epoch)
            .count());
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace stpx::net

// Metrics registry: named counters, gauges, and fixed-bucket histograms,
// plus the MetricsProbe that populates one from engine/chaos events.
//
// Instruments are owned by the registry and addressed by name; repeated
// lookups with the same name return the same instrument.  Iteration order
// (and hence JSON output) is lexicographic, so two identical runs serialize
// identically — determinism is a repo-wide invariant and metrics must not
// be the layer that breaks it.
//
// Histograms are fixed-bucket: observe() is O(#buckets) worst case with no
// allocation, which keeps the per-step probe cost bounded.  Percentiles
// read from a histogram are therefore bucket-upper-bound approximations;
// the exact-sample percentiles in obs/report.hpp are the tool for offline
// report generation.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/probe.hpp"

namespace stpx::obs {

class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// A signed instantaneous level that also remembers its high-water mark.
class Gauge {
 public:
  void set(std::int64_t v) {
    value_ = v;
    if (v > max_) max_ = v;
  }
  void add(std::int64_t delta) { set(value_ + delta); }
  std::int64_t value() const { return value_; }
  std::int64_t max() const { return max_; }

 private:
  std::int64_t value_ = 0;
  std::int64_t max_ = 0;
};

/// Fixed-bucket histogram over non-negative integer samples.  `bounds` are
/// inclusive upper bounds of the first N buckets; one implicit overflow
/// bucket catches everything beyond the last bound.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t sample);
  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t max_seen() const { return max_seen_; }
  double mean() const;
  const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

  /// Smallest bucket upper bound b with cumulative(b) >= q * count().
  /// Samples past the last bound report max_seen().  q in [0, 1].
  std::uint64_t quantile(double q) const;

  /// Add `other`'s samples, as if each had been observed here.  The
  /// bounds must be equal.
  void merge(const Histogram& other);

 private:
  std::vector<std::uint64_t> bounds_;  // sorted, strictly increasing
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 (overflow last)
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_seen_ = 0;
};

/// Log-linear bucket bounds 1, 2, ..., 16, then 16 equal buckets per
/// octave up to 2^octaves, so a quantile reads at most 1/16 (6.25 %) above
/// the sample it stands for.
std::vector<std::uint64_t> log_linear_bounds(std::size_t octaves);

class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` is used on first creation only; later lookups reuse the
  /// existing instrument.
  Histogram& histogram(const std::string& name,
                       const std::vector<std::uint64_t>& bounds);

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Counter value, or 0 when absent (convenient in tests/assertions).
  std::uint64_t counter_value(const std::string& name) const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string to_json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// A fixed table of event counters indexed by the enum E, whose last
/// enumerator is kCount.  Each entry is a relaxed atomic: counting is one
/// fetch_add from any thread, and a snapshot may be read at any time
/// (every entry exact, the set not from one instant).  The owner keeps one
/// name table beside E giving each entry its metric key, so the key is
/// spelled once and publishing is a loop.
template <typename E>
class CounterTable {
 public:
  static constexpr std::size_t kSize = static_cast<std::size_t>(E::kCount);
  /// names[i] is entry i's counter key; nullptr leaves it unpublished.
  using Names = std::array<const char*, kSize>;

  /// Plain values read from the table, indexed by the same enum.
  class Snapshot {
   public:
    std::uint64_t operator[](E e) const {
      return values_[static_cast<std::size_t>(e)];
    }
    /// Add each named entry to the registry counter of that name.
    void publish(MetricsRegistry& reg, const Names& names) const {
      for (std::size_t i = 0; i < kSize; ++i) {
        if (names[i] != nullptr) reg.counter(names[i]).inc(values_[i]);
      }
    }

   private:
    friend class CounterTable;
    std::array<std::uint64_t, kSize> values_{};
  };

  void add(E e, std::uint64_t n = 1) {
    slots_[static_cast<std::size_t>(e)].fetch_add(n,
                                                  std::memory_order_relaxed);
  }
  Snapshot snapshot() const {
    Snapshot s;
    for (std::size_t i = 0; i < kSize; ++i) {
      s.values_[i] = slots_[i].load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kSize> slots_{};
};

/// The standard engine instrumentation, accumulated across every run the
/// probe observes (attach a fresh registry per sweep for per-sweep stats).
///
/// Metric catalog (see docs/OBSERVABILITY.md):
///   counters   runs, steps, sends.sr / sends.rs, delivers.sr / delivers.rs,
///              dup_replays.sr / dup_replays.rs (re-deliveries of an id
///              already delivered in that direction within the run),
///              writes, crashes.sender / crashes.receiver, stalls,
///              recoveries (restarts rehydrated from a stable store),
///              recoveries.cold (restarts that came back with no state),
///              records_replayed (store records scanned across recoveries),
///              faults.<kind>, verdict.<name>,
///              stabilization.scrambles / stabilization.scrambles.rejected
///              (scramble-state strikes, split by whether the process
///              accepted any mutated blob), stabilization.converged (runs
///              whose corrupted output re-converged)
///   gauges     inflight.sr / inflight.rs (sends minus deliveries; dup
///              channels can drive these negative — delivery does not
///              consume), with high-water mark
///   histograms occupancy.sr / occupancy.rs (in-flight level sampled each
///              step), write_latency (steps between consecutive writes),
///              ack_rtt (sender data send -> next delivery to the sender),
///              recovery.latency (restart -> next output write: how long a
///              recovery takes to resume visible progress),
///              stabilization.latency (first injected corruption -> the
///              step convergence was declared)
///
/// The wire layer publishes a parallel net.* family from
/// net::SessionMux::publish_metrics and fabric.* from
/// fabric::FabricRouter::publish_metrics; their counter keys are the name
/// tables kMuxCounterNames (net/mux.hpp) and kRouterCounterNames
/// (fabric/router.hpp).
class MetricsProbe final : public IProbe {
 public:
  /// `registry` is non-owning and must outlive the probe's use.
  explicit MetricsProbe(MetricsRegistry* registry);

  void record(const TraceEvent& ev) override;

 private:
  MetricsRegistry* reg_;
  // --- per-run state, cleared by run_begin ------------------------------
  std::int64_t inflight_[2] = {0, 0};
  std::map<sim::MsgId, std::uint64_t> seen_[2];  // deliveries per id per dir
  std::vector<std::uint64_t> pending_sends_;     // S->R send steps, FIFO
  std::uint64_t last_write_step_ = 0;
  bool restart_pending_ = false;        // a restart awaits its next write
  std::uint64_t last_restart_step_ = 0;  // step of that restart
};

}  // namespace stpx::obs

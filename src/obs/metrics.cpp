#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "fault/plan.hpp"
#include "util/expect.hpp"

namespace stpx::obs {

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {
  STPX_EXPECT(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                  std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                      bounds_.end(),
              "Histogram: bounds must be strictly increasing");
}

void Histogram::observe(std::uint64_t sample) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), sample);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += sample;
  if (sample > max_seen_) max_seen_ = sample;
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  const double target = q * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    cum += counts_[i];
    if (static_cast<double>(cum) >= target) return bounds_[i];
  }
  return max_seen_;
}

void Histogram::merge(const Histogram& other) {
  STPX_EXPECT(bounds_ == other.bounds_, "Histogram: merge needs equal bounds");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  max_seen_ = std::max(max_seen_, other.max_seen_);
}

std::vector<std::uint64_t> log_linear_bounds(std::size_t octaves) {
  const std::uint64_t top = std::uint64_t{1} << octaves;
  std::vector<std::uint64_t> bounds;
  // Each step is 1/16 of the octave the bound sits in (at least 1), so the
  // walk lands on every power of two.
  for (std::uint64_t b = 1; b <= top;
       b += std::max<std::uint64_t>(1, std::bit_floor(b) / 16)) {
    bounds.push_back(b);
  }
  return bounds;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(
    const std::string& name, const std::vector<std::uint64_t>& bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(bounds)).first;
  }
  return it->second;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "" : ",") << '"' << name << "\":" << c.value();
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "" : ",") << '"' << name << "\":{\"value\":" << g.value()
       << ",\"max\":" << g.max() << '}';
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "" : ",") << '"' << name << "\":{\"count\":" << h.count()
       << ",\"sum\":" << h.sum() << ",\"max\":" << h.max_seen()
       << ",\"p50\":" << h.quantile(0.50) << ",\"p90\":" << h.quantile(0.90)
       << ",\"p99\":" << h.quantile(0.99) << '}';
    first = false;
  }
  os << "}}";
  return os.str();
}

namespace {

std::size_t di(sim::Dir d) { return static_cast<std::size_t>(d); }

const char* dir_suffix(sim::Dir d) {
  return d == sim::Dir::kSenderToReceiver ? "sr" : "rs";
}

}  // namespace

MetricsProbe::MetricsProbe(MetricsRegistry* registry) : reg_(registry) {
  STPX_EXPECT(reg_ != nullptr, "MetricsProbe: null registry");
}

void MetricsProbe::record(const TraceEvent& ev) {
  // Histogram bounds, built once (the registry copies them only when it
  // creates a histogram): occupancy up to 2^15 messages, steps up to 2^19.
  static const std::vector<std::uint64_t> kOccupancy = log_linear_bounds(15);
  static const std::vector<std::uint64_t> kSteps = log_linear_bounds(19);
  const std::uint64_t step = ev.ts_us;
  switch (ev.kind) {
    case TraceEventKind::kRunBegin:
      reg_->counter("runs").inc();
      inflight_[0] = inflight_[1] = 0;
      seen_[0].clear();
      seen_[1].clear();
      pending_sends_.clear();
      last_write_step_ = 0;
      restart_pending_ = false;
      last_restart_step_ = 0;
      reg_->gauge("inflight.sr").set(0);
      reg_->gauge("inflight.rs").set(0);
      break;
    case TraceEventKind::kStep:
      reg_->counter("steps").inc();
      // Occupancy over time: sample the in-flight level once per step.
      reg_->histogram("occupancy.sr", kOccupancy)
          .observe(static_cast<std::uint64_t>(std::max<std::int64_t>(
              inflight_[0], 0)));
      reg_->histogram("occupancy.rs", kOccupancy)
          .observe(static_cast<std::uint64_t>(std::max<std::int64_t>(
              inflight_[1], 0)));
      break;
    case TraceEventKind::kSend:
      reg_->counter(std::string("sends.") + dir_suffix(ev.dir)).inc();
      reg_->gauge(std::string("inflight.") + dir_suffix(ev.dir)).add(1);
      ++inflight_[di(ev.dir)];
      if (ev.dir == sim::Dir::kSenderToReceiver) {
        // Bounded pending queue: enough to pair each outstanding data
        // message with the next ack the sender sees; cap so a flooding
        // sender cannot grow the probe without bound.
        if (pending_sends_.size() < 1024) pending_sends_.push_back(step);
      }
      break;
    case TraceEventKind::kDeliver:
      reg_->counter(std::string("delivers.") + dir_suffix(ev.dir)).inc();
      reg_->gauge(std::string("inflight.") + dir_suffix(ev.dir)).add(-1);
      --inflight_[di(ev.dir)];
      if (++seen_[di(ev.dir)][ev.msg] > 1) {
        reg_->counter(std::string("dup_replays.") + dir_suffix(ev.dir)).inc();
      }
      if (ev.dir == sim::Dir::kReceiverToSender && !pending_sends_.empty()) {
        // Ack round trip: oldest unacknowledged data send -> this delivery
        // to the sender.  An approximation (ids are protocol-private), but
        // a faithful one for the stop-and-wait style protocols under study.
        reg_->histogram("ack_rtt", kSteps)
            .observe(step - pending_sends_.front());
        pending_sends_.erase(pending_sends_.begin());
      }
      break;
    case TraceEventKind::kWrite:
      reg_->counter("writes").inc();
      reg_->histogram("write_latency", kSteps)
          .observe(step - last_write_step_);
      last_write_step_ = step;
      if (restart_pending_) {
        // Recovery latency: the most recent restart -> this first write
        // after it, i.e. how long recovery took to resume visible progress.
        reg_->histogram("recovery.latency", kSteps)
            .observe(step - last_restart_step_);
        restart_pending_ = false;
      }
      break;
    case TraceEventKind::kCrash:
      reg_->counter(std::string("crashes.") +
                    sim::to_cstr(static_cast<sim::Proc>(ev.detail)))
          .inc();
      break;
    case TraceEventKind::kRestart:
      reg_->counter(ev.aux != 0 ? "recoveries" : "recoveries.cold").inc();
      if (ev.msg > 0) {
        reg_->counter("records_replayed")
            .inc(static_cast<std::uint64_t>(ev.msg));
      }
      restart_pending_ = true;
      last_restart_step_ = step;
      break;
    case TraceEventKind::kStall:
      reg_->counter("stalls").inc();
      break;
    case TraceEventKind::kScramble:
      reg_->counter("stabilization.scrambles").inc();
      if (ev.aux == 0) reg_->counter("stabilization.scrambles.rejected").inc();
      break;
    case TraceEventKind::kConverge:
      reg_->counter("stabilization.converged").inc();
      reg_->histogram("stabilization.latency", kSteps)
          .observe(ev.aux);
      break;
    case TraceEventKind::kRunEnd:
      reg_->counter(std::string("verdict.") +
                    sim::to_cstr(static_cast<sim::RunVerdict>(ev.detail)))
          .inc();
      break;
    case TraceEventKind::kFault:
      reg_->counter(std::string("faults.") +
                    fault::to_cstr(static_cast<fault::FaultKind>(ev.detail)))
          .inc();
      break;
    default:  // wire kinds: the mux counts its own (publish_metrics)
      break;
  }
}

}  // namespace stpx::obs

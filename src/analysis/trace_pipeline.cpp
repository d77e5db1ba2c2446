#include "analysis/trace_pipeline.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "net/frame.hpp"
#include "net/mux.hpp"
#include "obs/report.hpp"
#include "obs/sinks.hpp"

namespace stpx::analysis {

using obs::TraceEvent;
using obs::TraceEventKind;

std::int64_t TraceReport::value(const std::string& key) const {
  const auto it = values.find(key);
  return it == values.end() ? 0 : it->second;
}

std::string TraceReport::to_json() const {
  std::ostringstream os;
  os << "{\"ok\":" << (ok ? "true" : "false") << ",\"values\":{";
  bool first = true;
  for (const auto& [k, v] : values) {
    os << (first ? "" : ",") << '"' << obs::json_escape(k) << "\":" << v;
    first = false;
  }
  os << "},\"notes\":{";
  first = true;
  for (const auto& [k, v] : notes) {
    os << (first ? "" : ",") << '"' << obs::json_escape(k) << "\":\""
       << obs::json_escape(v) << '"';
    first = false;
  }
  os << "}}";
  return os.str();
}

TracePipeline& TracePipeline::add(std::unique_ptr<ITraceAnalyzer> analyzer) {
  analyzers_.push_back(std::move(analyzer));
  return *this;
}

TraceReport TracePipeline::run(const std::vector<TraceEvent>& events,
                               const TraceContext& ctx) {
  TraceReport report;
  for (auto& a : analyzers_) a->begin(ctx);
  for (const TraceEvent& ev : events) {
    for (auto& a : analyzers_) a->on_event(ev);
  }
  for (auto& a : analyzers_) a->finish(ctx, report);
  return report;
}

namespace {

/// Integer nearest-rank percentiles (samples are integral, so the doubles
/// obs::percentiles_u64 returns are exact and the casts lossless).
void emit_percentiles(TraceReport& out, const std::string& prefix,
                      std::vector<std::uint64_t> samples) {
  const obs::Percentiles p = obs::percentiles_u64(std::move(samples));
  out.values[prefix + ".count"] = static_cast<std::int64_t>(p.count);
  out.values[prefix + ".p50_us"] = static_cast<std::int64_t>(p.p50);
  out.values[prefix + ".p90_us"] = static_cast<std::int64_t>(p.p90);
  out.values[prefix + ".p99_us"] = static_cast<std::int64_t>(p.p99);
}

bool is_data_send_sr(const TraceEvent& ev) {
  return ev.kind == TraceEventKind::kFrameSent &&
         static_cast<net::FrameKind>(ev.detail) == net::FrameKind::kData &&
         ev.dir == sim::Dir::kSenderToReceiver;
}

// --- ack_rtt ---------------------------------------------------------------

class AckRttAnalyzer final : public ITraceAnalyzer {
 public:
  std::string name() const override { return "ack_rtt"; }

  void begin(const TraceContext&) override {
    pending_.clear();
    samples_.clear();
  }

  void on_event(const TraceEvent& ev) override {
    if (is_data_send_sr(ev)) {
      pending_.try_emplace(ev.session, ev.ts_us);  // keep the oldest
    } else if (ev.kind == TraceEventKind::kFrameReceived &&
               ev.dir == sim::Dir::kReceiverToSender) {
      const auto it = pending_.find(ev.session);
      if (it != pending_.end()) {
        samples_.push_back(ev.ts_us - it->second);
        pending_.erase(it);
      }
    }
  }

  void finish(const TraceContext&, TraceReport& out) override {
    emit_percentiles(out, "ack_rtt", std::move(samples_));
  }

 private:
  std::map<std::uint32_t, std::uint64_t> pending_;  // session -> send ts
  std::vector<std::uint64_t> samples_;
};

// --- item_latency ----------------------------------------------------------

class ItemLatencyAnalyzer final : public ITraceAnalyzer {
 public:
  std::string name() const override { return "item_latency"; }

  void begin(const TraceContext&) override {
    last_.clear();
    samples_.clear();
  }

  void on_event(const TraceEvent& ev) override {
    if (ev.kind != TraceEventKind::kItem) return;
    const auto it = last_.find(ev.session);
    if (it != last_.end()) samples_.push_back(ev.ts_us - it->second);
    last_[ev.session] = ev.ts_us;
  }

  void finish(const TraceContext&, TraceReport& out) override {
    emit_percentiles(out, "item_latency", std::move(samples_));
  }

 private:
  std::map<std::uint32_t, std::uint64_t> last_;  // session -> last item ts
  std::vector<std::uint64_t> samples_;
};

// --- goodput ---------------------------------------------------------------

class GoodputAnalyzer final : public ITraceAnalyzer {
 public:
  std::string name() const override { return "goodput"; }

  void begin(const TraceContext&) override {
    seen_any_ = false;
    first_ts_ = last_ts_ = items_ = sent_ = received_ = 0;
  }

  void on_event(const TraceEvent& ev) override {
    if (!seen_any_ || ev.ts_us < first_ts_) first_ts_ = ev.ts_us;
    if (!seen_any_ || ev.ts_us > last_ts_) last_ts_ = ev.ts_us;
    seen_any_ = true;
    if (ev.kind == TraceEventKind::kItem) {
      ++items_;
    } else if (is_data_send_sr(ev)) {
      ++sent_;
    } else if (ev.kind == TraceEventKind::kFrameReceived &&
               static_cast<net::FrameKind>(ev.detail) ==
                   net::FrameKind::kData &&
               ev.dir == sim::Dir::kSenderToReceiver) {
      ++received_;
    }
  }

  void finish(const TraceContext& ctx, TraceReport& out) override {
    const std::uint64_t end =
        ctx.trace_end_us != 0 ? ctx.trace_end_us : last_ts_;
    const std::uint64_t dur = end > first_ts_ ? end - first_ts_ : 0;
    // Data-frame traffic from whichever side the trace was taken: prefer
    // the sender's sends; a receiver-side trace sees only deliveries.
    // (A merged two-sided trace is judged by its send side — counting
    // both would tally every frame twice.)
    const std::uint64_t data_frames = sent_ > 0 ? sent_ : received_;
    // Every data frame past one per accepted item is retransmission
    // overhead (a lower bound: frames for still-inflight items count too).
    const std::uint64_t retx =
        data_frames > items_ ? data_frames - items_ : 0;
    out.values["goodput.items"] = static_cast<std::int64_t>(items_);
    out.values["goodput.data_frames"] = static_cast<std::int64_t>(data_frames);
    out.values["goodput.retx_permille"] = static_cast<std::int64_t>(
        data_frames == 0 ? 0 : retx * 1000 / data_frames);
    out.values["goodput.duration_us"] = static_cast<std::int64_t>(dur);
    out.values["goodput.items_per_sec"] = static_cast<std::int64_t>(
        dur == 0 ? 0 : items_ * 1'000'000 / dur);
  }

 private:
  bool seen_any_ = false;
  std::uint64_t first_ts_ = 0;
  std::uint64_t last_ts_ = 0;
  std::uint64_t items_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

// --- prefix attestor -------------------------------------------------------

class PrefixAttestor final : public ITraceAnalyzer {
 public:
  std::string name() const override { return "prefix"; }

  void begin(const TraceContext&) override {
    sessions_.clear();
    item_violations_ = 0;
    state_violations_ = 0;
    first_violation_.clear();
  }

  void on_event(const TraceEvent& ev) override {
    switch (ev.kind) {
      case TraceEventKind::kItem: {
        Session& s = sessions_[ev.session];
        // The acceptance criterion, re-derived from the wire: accepted
        // item indices of a session must be exactly 0,1,2,… in order.
        if (ev.msg != static_cast<std::int64_t>(s.next_index)) {
          ++item_violations_;
          if (first_violation_.empty()) {
            std::ostringstream os;
            os << "session " << ev.session << ": item index " << ev.msg
               << " where " << s.next_index << " was required";
            first_violation_ = os.str();
          }
        } else {
          ++s.next_index;
        }
        break;
      }
      case TraceEventKind::kSessionState: {
        Session& s = sessions_[ev.session];
        const auto state = static_cast<net::SessionState>(ev.detail);
        if (state == net::SessionState::kCompleted) {
          s.completed = true;
        } else if (state == net::SessionState::kSafetyViolation ||
                   state == net::SessionState::kRecoveryViolation) {
          ++state_violations_;
          if (first_violation_.empty()) {
            std::ostringstream os;
            os << "session " << ev.session << ": state "
               << net::to_cstr(state);
            first_violation_ = os.str();
          }
        }
        break;
      }
      case TraceEventKind::kRehydrate: {
        // A rehydration resumes the session at the durable `position` —
        // assignment, in either direction, exactly like a live probe
        // handling the rehydrate event.  Raising covers indices accepted
        // before the crash that never reappear; LOWERING is the
        // crash-rewind case: the dead generation's trace may witness items
        // beyond the last durable checkpoint, and the surviving generation
        // legitimately re-earns them (a released ack never outran the
        // durable position, so the peer replays them — docs/RECOVERY.md).
        Session& s = sessions_[ev.session];
        s.next_index = static_cast<std::size_t>(ev.msg);
        break;
      }
      default:
        break;
    }
  }

  void finish(const TraceContext& ctx, TraceReport& out) override {
    std::uint64_t completed = 0;
    std::uint64_t incomplete = 0;
    for (const auto& [id, s] : sessions_) {
      if (s.completed) ++completed;
    }
    for (const auto& [id, expected] : ctx.expected_items) {
      const auto it = sessions_.find(id);
      if (it == sessions_.end() || !it->second.completed ||
          it->second.next_index != expected) {
        ++incomplete;
        if (first_violation_.empty()) {
          std::ostringstream os;
          os << "session " << id << ": expected " << expected
             << " items, incomplete";
          first_violation_ = os.str();
        }
      }
    }
    const bool ok =
        item_violations_ == 0 && state_violations_ == 0 && incomplete == 0;
    out.values["prefix.sessions"] =
        static_cast<std::int64_t>(sessions_.size());
    out.values["prefix.completed"] = static_cast<std::int64_t>(completed);
    out.values["prefix.item_violations"] =
        static_cast<std::int64_t>(item_violations_);
    out.values["prefix.state_violations"] =
        static_cast<std::int64_t>(state_violations_);
    out.values["prefix.incomplete"] = static_cast<std::int64_t>(incomplete);
    out.values["prefix.ok"] = ok ? 1 : 0;
    if (!first_violation_.empty()) {
      out.notes["prefix.first_violation"] = first_violation_;
    }
    if (!ok) out.ok = false;
  }

 private:
  struct Session {
    std::size_t next_index = 0;
    bool completed = false;
  };
  std::map<std::uint32_t, Session> sessions_;
  std::uint64_t item_violations_ = 0;
  std::uint64_t state_violations_ = 0;
  std::string first_violation_;
};

// --- fault correlator ------------------------------------------------------

class FaultCorrelator final : public ITraceAnalyzer {
 public:
  std::string name() const override { return "faultcorr"; }

  void begin(const TraceContext& ctx) override {
    windows_ = ctx.fault_windows;
    sheds_in_ = sheds_out_ = rejects_in_ = rejects_out_ = sends_in_ = 0;
  }

  void on_event(const TraceEvent& ev) override {
    switch (ev.kind) {
      case TraceEventKind::kFrameShed:
        (in_window(ev.ts_us) ? sheds_in_ : sheds_out_) += 1;
        break;
      case TraceEventKind::kFrameRejected:
        (in_window(ev.ts_us) ? rejects_in_ : rejects_out_) += 1;
        break;
      case TraceEventKind::kFrameSent:
        // Sends stamped inside a window are the loss candidates a
        // blackout swallowed (their receive side will never appear).
        if (in_window(ev.ts_us)) ++sends_in_;
        break;
      default:
        break;
    }
  }

  void finish(const TraceContext&, TraceReport& out) override {
    std::uint64_t covered = 0;
    for (const auto& w : windows_) covered += w.end_us - w.begin_us;
    out.values["faultcorr.windows"] =
        static_cast<std::int64_t>(windows_.size());
    out.values["faultcorr.covered_us"] = static_cast<std::int64_t>(covered);
    out.values["faultcorr.sends_in_window"] =
        static_cast<std::int64_t>(sends_in_);
    out.values["faultcorr.sheds_in_window"] =
        static_cast<std::int64_t>(sheds_in_);
    out.values["faultcorr.sheds_outside"] =
        static_cast<std::int64_t>(sheds_out_);
    out.values["faultcorr.rejects_in_window"] =
        static_cast<std::int64_t>(rejects_in_);
    out.values["faultcorr.rejects_outside"] =
        static_cast<std::int64_t>(rejects_out_);
  }

 private:
  bool in_window(std::uint64_t ts) const {
    for (const auto& w : windows_) {
      if (ts >= w.begin_us && ts < w.end_us) return true;
    }
    return false;
  }

  std::vector<net::TraceSpan> windows_;
  std::uint64_t sheds_in_ = 0;
  std::uint64_t sheds_out_ = 0;
  std::uint64_t rejects_in_ = 0;
  std::uint64_t rejects_out_ = 0;
  std::uint64_t sends_in_ = 0;
};

// --- stall / livelock detector --------------------------------------------

class StallDetector final : public ITraceAnalyzer {
 public:
  StallDetector(std::uint64_t stall_threshold_us,
                std::uint64_t livelock_frames)
      : threshold_us_(stall_threshold_us), livelock_frames_(livelock_frames) {}

  std::string name() const override { return "stall"; }

  void begin(const TraceContext&) override {
    seen_any_ = false;
    prev_ts_ = max_gap_ = 0;
    gaps_over_ = trailing_frames_ = 0;
    completed_.clear();
  }

  void on_event(const TraceEvent& ev) override {
    if (seen_any_ && ev.ts_us > prev_ts_) {
      const std::uint64_t gap = ev.ts_us - prev_ts_;
      if (gap > max_gap_) max_gap_ = gap;
      if (gap >= threshold_us_) ++gaps_over_;
    }
    prev_ts_ = ev.ts_us;
    seen_any_ = true;
    switch (ev.kind) {
      case TraceEventKind::kItem:
        trailing_frames_ = 0;  // the wire is still making progress
        break;
      case TraceEventKind::kFrameSent:
      case TraceEventKind::kFrameReceived:
        ++trailing_frames_;
        break;
      case TraceEventKind::kSessionState:
        if (static_cast<net::SessionState>(ev.detail) ==
            net::SessionState::kCompleted) {
          completed_.insert(ev.session);
        }
        break;
      default:
        break;
    }
  }

  void finish(const TraceContext& ctx, TraceReport& out) override {
    // Livelock = the wire kept churning frames long after the last item
    // while expected sessions were still incomplete.  Without expected
    // sessions the trailing traffic is indistinguishable from keepalives,
    // so no verdict is taken.
    bool incomplete = false;
    for (const auto& [id, n] : ctx.expected_items) {
      if (completed_.find(id) == completed_.end()) {
        incomplete = true;
        break;
      }
    }
    const bool livelock =
        incomplete && trailing_frames_ >= livelock_frames_;
    out.values["stall.max_gap_us"] = static_cast<std::int64_t>(max_gap_);
    out.values["stall.gaps_over_threshold"] =
        static_cast<std::int64_t>(gaps_over_);
    out.values["stall.threshold_us"] = static_cast<std::int64_t>(threshold_us_);
    out.values["stall.trailing_frames"] =
        static_cast<std::int64_t>(trailing_frames_);
    out.values["stall.livelock"] = livelock ? 1 : 0;
    if (livelock) {
      out.ok = false;
      std::ostringstream os;
      os << trailing_frames_ << " frames after the last item with sessions"
         << " incomplete";
      out.notes["stall.livelock"] = os.str();
    }
  }

 private:
  std::uint64_t threshold_us_;
  std::uint64_t livelock_frames_;
  bool seen_any_ = false;
  std::uint64_t prev_ts_ = 0;
  std::uint64_t max_gap_ = 0;
  std::uint64_t gaps_over_ = 0;
  std::uint64_t trailing_frames_ = 0;
  std::set<std::uint32_t> completed_;
};

// --- rehydration latency ---------------------------------------------------

class RehydrationAnalyzer final : public ITraceAnalyzer {
 public:
  std::string name() const override { return "rehydrate"; }

  void begin(const TraceContext&) override {
    pending_.clear();
    samples_.clear();
    rehydrations_ = 0;
  }

  void on_event(const TraceEvent& ev) override {
    if (ev.kind == TraceEventKind::kRehydrate) {
      ++rehydrations_;
      pending_.try_emplace(ev.session, ev.ts_us);
    } else if (ev.kind == TraceEventKind::kItem) {
      const auto it = pending_.find(ev.session);
      if (it != pending_.end()) {
        samples_.push_back(ev.ts_us - it->second);
        pending_.erase(it);
      }
    }
  }

  void finish(const TraceContext&, TraceReport& out) override {
    out.values["rehydrate.rehydrations"] =
        static_cast<std::int64_t>(rehydrations_);
    emit_percentiles(out, "rehydrate.latency", std::move(samples_));
  }

 private:
  std::map<std::uint32_t, std::uint64_t> pending_;  // session -> restore ts
  std::vector<std::uint64_t> samples_;
  std::uint64_t rehydrations_ = 0;
};

}  // namespace

std::unique_ptr<ITraceAnalyzer> make_ack_rtt_analyzer() {
  return std::make_unique<AckRttAnalyzer>();
}

std::unique_ptr<ITraceAnalyzer> make_item_latency_analyzer() {
  return std::make_unique<ItemLatencyAnalyzer>();
}

std::unique_ptr<ITraceAnalyzer> make_goodput_analyzer() {
  return std::make_unique<GoodputAnalyzer>();
}

std::unique_ptr<ITraceAnalyzer> make_prefix_attestor() {
  return std::make_unique<PrefixAttestor>();
}

std::unique_ptr<ITraceAnalyzer> make_fault_correlator() {
  return std::make_unique<FaultCorrelator>();
}

std::unique_ptr<ITraceAnalyzer> make_stall_detector(
    std::uint64_t stall_threshold_us, std::uint64_t livelock_frames) {
  return std::make_unique<StallDetector>(stall_threshold_us, livelock_frames);
}

std::unique_ptr<ITraceAnalyzer> make_rehydration_analyzer() {
  return std::make_unique<RehydrationAnalyzer>();
}

TracePipeline make_standard_pipeline() {
  TracePipeline p;
  p.add(make_ack_rtt_analyzer())
      .add(make_item_latency_analyzer())
      .add(make_goodput_analyzer())
      .add(make_prefix_attestor())
      .add(make_fault_correlator())
      .add(make_stall_detector())
      .add(make_rehydration_analyzer());
  return p;
}

void publish_trace_report(const TraceReport& report,
                          obs::MetricsRegistry& reg) {
  for (const auto& [k, v] : report.values) {
    reg.gauge("trace." + k).set(v);
  }
  reg.gauge("trace.ok").set(report.ok ? 1 : 0);
}

}  // namespace stpx::analysis

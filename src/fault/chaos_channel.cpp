#include "fault/chaos_channel.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace stpx::fault {

namespace {
std::size_t di(sim::Dir d) { return static_cast<std::size_t>(d); }
}  // namespace

ChaosChannel::ChaosChannel(std::unique_ptr<sim::IChannel> inner,
                           FaultPlan plan)
    : inner_(std::move(inner)), plan_(std::move(plan)) {
  STPX_EXPECT(inner_ != nullptr, "ChaosChannel: null inner channel");
  fired_.assign(plan_.actions.size(), false);
}

ChaosChannel::ChaosChannel(const ChaosChannel& other)
    : inner_(other.inner_->clone()),
      plan_(other.plan_),
      step_(other.step_),
      sends_seen_(other.sends_seen_),
      fired_(other.fired_),
      windows_(other.windows_),
      cap_{other.cap_[0], other.cap_[1]},
      stats_(other.stats_),
      probe_(other.probe_) {}

void ChaosChannel::reset() {
  inner_->reset();
  step_ = 0;
  sends_seen_ = 0;
  fired_.assign(plan_.actions.size(), false);
  windows_.clear();
  cap_[0] = cap_[1] = 0;
  stats_ = ChaosStats{};
}

bool ChaosChannel::frozen(sim::Dir dir) const {
  for (const Window& w : windows_) {
    if (w.kind == FaultKind::kFreeze && w.dir == dir && step_ < w.end_step) {
      return true;
    }
  }
  return false;
}

bool ChaosChannel::blacked_out(sim::Dir dir, sim::MsgId msg) const {
  for (const Window& w : windows_) {
    if (w.kind == FaultKind::kBlackout && w.dir == dir &&
        step_ < w.end_step && (w.match == kAnyMsg || w.match == msg)) {
      return true;
    }
  }
  return false;
}

std::uint64_t ChaosChannel::deliverable_copies(sim::Dir dir) const {
  std::uint64_t total = 0;
  for (sim::MsgId id : inner_->deliverable(dir)) {
    total += inner_->copies(dir, id);
  }
  return total;
}

bool ChaosChannel::fire(const FaultAction& a, sim::TickEffect& fx) {
  // Payload corruption needs a victim: if no matching message is in flight
  // at this tick, stay armed and strike the first one that appears (a
  // trigger firing into an empty channel would otherwise be a silent no-op
  // and the conformance cell would "pass" without its fault ever biting).
  if (a.kind == FaultKind::kCorruptPayload) {
    bool victim = false;
    for (sim::MsgId id : inner_->deliverable(a.dir)) {
      if (a.match != kAnyMsg && a.match != id) continue;
      if (inner_->copies(a.dir, id) == 0) continue;
      victim = true;
      break;
    }
    if (!victim) return false;
  }
  ++stats_.actions_fired;
  if (probe_) {
    // Windows report their effective (clamped) span so trace spans match
    // what the channel actually enforces below.
    probe_->record({.ts_us = step_,
                    .msg = a.match,
                    .aux = is_window_fault(a.kind)
                               ? std::max<std::uint64_t>(a.duration, 1)
                               : a.count,
                    .kind = obs::TraceEventKind::kFault,
                    .detail = static_cast<std::uint8_t>(a.kind),
                    .dir = a.dir});
  }
  switch (a.kind) {
    case FaultKind::kDropBurst: {
      if (!inner_->can_drop()) break;  // dup channels: deletion is forbidden
      std::uint64_t budget =
          a.count == 0 ? ~std::uint64_t{0} : a.count;
      for (sim::MsgId id : inner_->deliverable(a.dir)) {
        if (a.match != kAnyMsg && a.match != id) continue;
        while (budget > 0 && inner_->copies(a.dir, id) > 0) {
          inner_->drop(a.dir, id);
          ++stats_.copies_dropped;
          --budget;
        }
        if (budget == 0) break;
      }
      break;
    }
    case FaultKind::kDupBurst: {
      std::vector<sim::MsgId> ids;
      for (sim::MsgId id : inner_->deliverable(a.dir)) {
        if (a.match == kAnyMsg || a.match == id) ids.push_back(id);
      }
      if (ids.empty()) break;  // nothing in flight to amplify
      const std::uint64_t budget = a.count == 0 ? 1 : a.count;
      for (std::uint64_t i = 0; i < budget; ++i) {
        inner_->send(a.dir, ids[static_cast<std::size_t>(i % ids.size())]);
        ++stats_.copies_duplicated;
      }
      break;
    }
    case FaultKind::kBlackout:
    case FaultKind::kFreeze:
      windows_.push_back(
          Window{a.kind, a.dir, a.match, step_ + std::max<std::uint64_t>(
                                                     a.duration, 1)});
      break;
    case FaultKind::kCapInFlight:
      cap_[di(a.dir)] = std::max<std::uint64_t>(a.count, 1);
      break;
    case FaultKind::kCrashSender:
      fx.crash_sender = true;
      ++stats_.crashes_requested;
      break;
    case FaultKind::kCrashReceiver:
      fx.crash_receiver = true;
      ++stats_.crashes_requested;
      break;
    case FaultKind::kTornWrite:
      fx.store_faults.push_back(
          {a.proc, sim::StoreFaultKind::kTornWrite, 1});
      ++stats_.store_faults_requested;
      break;
    case FaultKind::kLoseTail:
      fx.store_faults.push_back({a.proc, sim::StoreFaultKind::kLoseTail,
                                 std::max<std::uint64_t>(a.count, 1)});
      ++stats_.store_faults_requested;
      break;
    case FaultKind::kCorruptRecord:
      fx.store_faults.push_back(
          {a.proc, sim::StoreFaultKind::kCorruptRecord, 1});
      ++stats_.store_faults_requested;
      break;
    case FaultKind::kStaleSnapshot:
      fx.store_faults.push_back(
          {a.proc, sim::StoreFaultKind::kStaleSnapshot, 1});
      ++stats_.store_faults_requested;
      break;
    case FaultKind::kCorruptPayload: {
      // Mutate the first matching in-flight id: one copy is replaced by
      // id ^ mask (mask >= 1, so the twin always differs; XOR of two
      // non-negative int64s stays non-negative, keeping MsgId invariants).
      // On channels that forbid deletion (dup) the original copy also
      // survives — corruption there *adds* a convincing imposter.
      const sim::MsgId mask =
          static_cast<sim::MsgId>(std::max<std::uint64_t>(a.count, 1));
      for (sim::MsgId id : inner_->deliverable(a.dir)) {
        if (a.match != kAnyMsg && a.match != id) continue;
        if (inner_->copies(a.dir, id) == 0) continue;
        if (inner_->can_drop()) inner_->drop(a.dir, id);
        inner_->send(a.dir, id ^ mask);
        ++stats_.payloads_corrupted;
        ++fx.corruptions;
        break;
      }
      break;
    }
    case FaultKind::kForgeMessage: {
      // Inject copies of a message nobody sent.  The forged id is `match`
      // (kAnyMsg degrades to 0, the smallest alphabet symbol); sends go to
      // the inner channel directly so blackouts cannot swallow the forgery.
      const sim::MsgId forged = a.match == kAnyMsg ? 0 : a.match;
      const std::uint64_t copies = std::max<std::uint64_t>(a.count, 1);
      for (std::uint64_t i = 0; i < copies; ++i) {
        inner_->send(a.dir, forged);
        ++stats_.messages_forged;
        ++fx.corruptions;
      }
      break;
    }
    case FaultKind::kScrambleState:
      fx.scrambles.push_back({a.proc, a.count});
      ++stats_.scrambles_requested;
      break;
  }
  return true;
}

sim::TickEffect ChaosChannel::tick(const sim::ChannelTick& t) {
  step_ = t.step;
  sim::TickEffect fx = inner_->tick(t);  // stacked decorators compose
  for (std::size_t i = 0; i < plan_.actions.size(); ++i) {
    if (fired_[i]) continue;
    const FaultAction& a = plan_.actions[i];
    std::uint64_t watched = 0;
    switch (a.trigger.kind) {
      case TriggerKind::kStep: watched = t.step; break;
      case TriggerKind::kWrites: watched = t.items_written; break;
      case TriggerKind::kSends: watched = sends_seen_; break;
    }
    if (watched < a.trigger.at) continue;
    fired_[i] = fire(a, fx);
  }
  // Expired windows can be discarded (steps only move forward).
  std::erase_if(windows_, [&](const Window& w) { return step_ >= w.end_step; });
  return fx;
}

void ChaosChannel::send(sim::Dir dir, sim::MsgId msg) {
  ++sends_seen_;
  if (blacked_out(dir, msg)) {
    ++stats_.sends_blacked_out;
    return;
  }
  if (cap_[di(dir)] > 0 && deliverable_copies(dir) >= cap_[di(dir)]) {
    ++stats_.sends_shed;
    return;
  }
  inner_->send(dir, msg);
}

std::vector<sim::MsgId> ChaosChannel::deliverable(sim::Dir dir) const {
  std::vector<sim::MsgId> out;
  deliverable_into(dir, out);
  return out;
}

void ChaosChannel::deliverable_into(sim::Dir dir,
                                    std::vector<sim::MsgId>& out) const {
  if (frozen(dir)) {
    out.clear();
    return;
  }
  inner_->deliverable_into(dir, out);
}

std::uint64_t ChaosChannel::copies(sim::Dir dir, sim::MsgId msg) const {
  if (frozen(dir)) return 0;
  return inner_->copies(dir, msg);
}

void ChaosChannel::deliver(sim::Dir dir, sim::MsgId msg) {
  STPX_EXPECT(!frozen(dir),
              "ChaosChannel: deliver during a freeze window");
  inner_->deliver(dir, msg);
}

void ChaosChannel::drop(sim::Dir dir, sim::MsgId msg) {
  inner_->drop(dir, msg);
}

std::unique_ptr<sim::IChannel> ChaosChannel::clone() const {
  return std::make_unique<ChaosChannel>(*this);
}

}  // namespace stpx::fault

#include "net/loopback.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace stpx::net {

namespace {

/// One fault lane: actions sorted by trigger threshold plus a cursor to the
/// first not-yet-fired one.  Counters are monotone and actions fire once,
/// so a cursor makes fire_due O(actions fired this call) — periodic plans
/// arm hundreds of thousands of actions and a rescan would be quadratic.
struct Lane {
  std::vector<fault::FaultAction> actions;
  std::size_t next = 0;
};

}  // namespace

/// Shared state behind a loopback pair: one Link per direction, each with
/// its own mutex, queue, reorder Rng, and fault timeline.  All mutable
/// state of a link — including its Rng, which is not thread-safe on its
/// own — is only ever touched under that link's mutex.
class LoopbackCore {
 public:
  LoopbackCore(const LoopbackConfig& cfg) : cfg_(cfg) {
    Rng seeder(cfg.seed);
    for (int d = 0; d < 2; ++d) {
      links_[d].rng = seeder.split();
      for (const auto& a : cfg.plan.actions) {
        if (fault::is_store_fault(a.kind) ||
            fault::is_corruption_fault(a.kind) ||
            a.kind == fault::FaultKind::kCrashSender ||
            a.kind == fault::FaultKind::kCrashReceiver) {
          continue;  // no transport meaning
        }
        if (a.dir != static_cast<sim::Dir>(d)) continue;
        if (a.trigger.kind == fault::TriggerKind::kWrites) continue;
        auto& lane = a.trigger.kind == fault::TriggerKind::kSends
                         ? links_[d].by_sends
                         : links_[d].by_ticks;
        lane.actions.push_back(a);
      }
      const auto by_at = [](const fault::FaultAction& x,
                            const fault::FaultAction& y) {
        return x.trigger.at < y.trigger.at;
      };
      std::stable_sort(links_[d].by_sends.actions.begin(),
                       links_[d].by_sends.actions.end(), by_at);
      std::stable_sort(links_[d].by_ticks.actions.begin(),
                       links_[d].by_ticks.actions.end(), by_at);
    }
  }

  bool send(sim::Dir dir, const std::vector<std::uint8_t>& bytes) {
    Link& l = link(dir);
    std::unique_lock<std::mutex> hold(l.mu);
    const bool was_deliverable = deliverable(l);
    const bool queued = admit(l, dir, bytes);
    // Only the send that makes the link deliverable can end a wait; later
    // ones find the waiter already woken.  (A poll that ends a freeze does
    // not signal: another thread's waiter then sleeps out its bound.)
    const bool wake = l.waiters > 0 && !was_deliverable && deliverable(l);
    hold.unlock();
    // Signalled after the unlock, so the woken poller does not block on
    // the mutex this thread still holds.
    if (wake) l.ready.notify_all();
    return queued;
  }

  /// Block until the next poll() tick of `dir` would deliver, or `max`.
  void wait(sim::Dir dir, std::chrono::microseconds max) {
    Link& l = link(dir);
    std::unique_lock<std::mutex> hold(l.mu);
    ++l.waiters;
    l.ready.wait_for(hold, max, [&l] { return deliverable(l); });
    --l.waiters;
  }

  std::optional<std::vector<std::uint8_t>> poll(sim::Dir dir) {
    Link& l = link(dir);
    std::lock_guard<std::mutex> hold(l.mu);
    ++l.ticks;
    fire_due(l, l.by_ticks, l.ticks);
    note_windows(l, dir);
    if (l.ticks < l.freeze_until) {
      ++l.stats.frozen_polls;
      return std::nullopt;
    }
    if (l.queue.empty()) return std::nullopt;
    std::size_t idx = 0;
    if (cfg_.reorder_window > 1) {
      idx = static_cast<std::size_t>(l.rng.below(
          std::min<std::uint64_t>(cfg_.reorder_window, l.queue.size())));
    }
    std::vector<std::uint8_t> out = std::move(l.queue[idx]);
    l.queue.erase(l.queue.begin() + static_cast<std::ptrdiff_t>(idx));
    ++l.stats.delivered;
    return out;
  }

  LoopbackStats stats(sim::Dir dir) {
    Link& l = link(dir);
    std::lock_guard<std::mutex> hold(l.mu);
    return l.stats;
  }

  std::vector<WireWindow> fault_windows() {
    std::vector<WireWindow> out;
    const auto now = std::chrono::steady_clock::now();
    for (int d = 0; d < 2; ++d) {
      Link& l = links_[d];
      const auto dir = static_cast<sim::Dir>(d);
      std::lock_guard<std::mutex> hold(l.mu);
      out.insert(out.end(), l.windows.begin(), l.windows.end());
      if (l.blackout_open) {
        out.push_back({window_name("blackout", dir), l.blackout_begin, now});
      }
      if (l.freeze_open) {
        out.push_back({window_name("freeze", dir), l.freeze_begin, now});
      }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const WireWindow& a, const WireWindow& b) {
                       return a.begin < b.begin;
                     });
    return out;
  }

 private:
  struct Link {
    std::mutex mu;
    std::condition_variable ready;  // signalled when a send makes the
                                    // link deliverable
    std::uint32_t waiters = 0;      // threads inside wait()
    std::deque<std::vector<std::uint8_t>> queue;
    Rng rng;
    Lane by_sends;  // sorted by trigger threshold
    Lane by_ticks;
    std::uint64_t ticks = 0;  // poll() calls
    std::uint64_t pending_drops = 0;
    std::uint64_t pending_dups = 0;
    std::uint64_t blackout_until = 0;  // active while ticks < this
    std::uint64_t freeze_until = 0;
    std::uint64_t cap = 0;  // 0 = uncapped
    LoopbackStats stats;
    // Wall-clock fault-window bookkeeping (windows themselves are
    // tick-denominated; these record when they were observed active, for
    // overlay on wall-clock traces).
    bool blackout_open = false;
    bool freeze_open = false;
    std::chrono::steady_clock::time_point blackout_begin{};
    std::chrono::steady_clock::time_point freeze_begin{};
    std::vector<WireWindow> windows;
  };

  Link& link(sim::Dir dir) { return links_[static_cast<int>(dir)]; }

  /// Run one send() through the fault timeline and the queue bounds.
  /// Caller holds the link mutex.  True when the frame was queued.
  bool admit(Link& l, sim::Dir dir, const std::vector<std::uint8_t>& bytes) {
    ++l.stats.attempted;
    fire_due(l, l.by_sends, l.stats.attempted);
    fire_due(l, l.by_ticks, l.ticks);
    note_windows(l, dir);
    if (l.ticks < l.blackout_until) {
      ++l.stats.blacked_out;
      return false;
    }
    if (l.pending_drops > 0) {
      --l.pending_drops;
      ++l.stats.dropped;
      return false;
    }
    if (full(l)) {
      ++l.stats.shed;
      return false;
    }
    l.queue.push_back(bytes);
    ++l.stats.queued;
    if (l.pending_dups > 0) {
      --l.pending_dups;
      push_copy(l, bytes);
    }
    return true;
  }

  /// True when the link holds as many frames as its cap or max_queue
  /// allows.  Caller holds the link mutex.
  bool full(const Link& l) const {
    return (l.cap > 0 && l.queue.size() >= l.cap) ||
           (cfg_.max_queue > 0 && l.queue.size() >= cfg_.max_queue);
  }

  /// Queue one duplicate, or shed it when the link is full: a dup burst
  /// must not grow a bounded link past its bound.
  void push_copy(Link& l, const std::vector<std::uint8_t>& bytes) {
    if (full(l)) {
      ++l.stats.shed;
      return;
    }
    l.queue.push_back(bytes);
    ++l.stats.duplicated;
  }

  /// True when the next poll() tick would deliver: a frame is queued and
  /// that tick is past every freeze fired so far.  A tick-triggered
  /// action not yet fired may still empty that poll; the waiter then
  /// polls once for nothing and waits again.  Caller holds the link mutex.
  static bool deliverable(const Link& l) {
    return !l.queue.empty() && l.ticks + 1 >= l.freeze_until;
  }

  static std::string window_name(const char* kind, sim::Dir dir) {
    return std::string(kind) + " " + sim::to_cstr(dir);
  }

  /// Open/close the wall-clock record of tick-denominated fault windows.
  /// Caller holds the link mutex; transitions are observed on every
  /// send()/poll(), which is as fine-grained as the windows can act.
  void note_windows(Link& l, sim::Dir dir) {
    const auto now = std::chrono::steady_clock::now();
    const bool blackout = l.ticks < l.blackout_until;
    if (blackout && !l.blackout_open) {
      l.blackout_open = true;
      l.blackout_begin = now;
    } else if (!blackout && l.blackout_open) {
      l.blackout_open = false;
      l.windows.push_back({window_name("blackout", dir), l.blackout_begin,
                           now});
    }
    const bool freeze = l.ticks < l.freeze_until;
    if (freeze && !l.freeze_open) {
      l.freeze_open = true;
      l.freeze_begin = now;
    } else if (!freeze && l.freeze_open) {
      l.freeze_open = false;
      l.windows.push_back({window_name("freeze", dir), l.freeze_begin, now});
    }
  }

  /// Fire every not-yet-fired action in `lane` whose threshold the counter
  /// has reached.  Caller holds the link mutex.
  void fire_due(Link& l, Lane& lane, std::uint64_t counter) {
    while (lane.next < lane.actions.size() &&
           lane.actions[lane.next].trigger.at <= counter) {
      apply(l, lane.actions[lane.next++]);
    }
  }

  void apply(Link& l, const fault::FaultAction& a) {
    switch (a.kind) {
      case fault::FaultKind::kDropBurst:
        if (a.count == 0) {
          l.stats.dropped += l.queue.size();
          l.queue.clear();
        } else {
          l.pending_drops += a.count;
        }
        break;
      case fault::FaultKind::kDupBurst:
        if (a.count == 0) {
          // push_back on a deque keeps references to its elements valid.
          const std::size_t n = l.queue.size();
          for (std::size_t i = 0; i < n; ++i) push_copy(l, l.queue[i]);
        } else {
          l.pending_dups += a.count;
        }
        break;
      case fault::FaultKind::kBlackout:
        l.blackout_until = std::max(l.blackout_until, l.ticks + a.duration);
        break;
      case fault::FaultKind::kFreeze:
        l.freeze_until = std::max(l.freeze_until, l.ticks + a.duration);
        break;
      case fault::FaultKind::kCapInFlight:
        if (a.count > 0) l.cap = a.count;
        break;
      default:
        break;  // filtered out at construction
    }
  }

  LoopbackConfig cfg_;
  Link links_[2];
};

namespace {

class LoopbackEnd final : public ITransport {
 public:
  LoopbackEnd(std::shared_ptr<LoopbackCore> core, sim::Dir out_link)
      : core_(std::move(core)), out_(out_link) {}

  bool send(const std::vector<std::uint8_t>& bytes) override {
    return core_->send(out_, bytes);
  }

  std::optional<std::vector<std::uint8_t>> poll() override {
    return core_->poll(in());
  }

  void wait(std::chrono::microseconds max) override {
    core_->wait(in(), max);
  }

  std::string name() const override {
    return out_ == sim::Dir::kSenderToReceiver ? "loopback/a" : "loopback/b";
  }

 private:
  sim::Dir in() const {
    return out_ == sim::Dir::kSenderToReceiver ? sim::Dir::kReceiverToSender
                                               : sim::Dir::kSenderToReceiver;
  }

  std::shared_ptr<LoopbackCore> core_;
  sim::Dir out_;
};

}  // namespace

LoopbackStats LoopbackPair::stats(sim::Dir link) const {
  return core->stats(link);
}

std::vector<WireWindow> LoopbackPair::fault_windows() const {
  return core->fault_windows();
}

LoopbackPair make_loopback(LoopbackConfig cfg) {
  LoopbackPair pair;
  pair.core = std::make_shared<LoopbackCore>(cfg);
  pair.a =
      std::make_unique<LoopbackEnd>(pair.core, sim::Dir::kSenderToReceiver);
  pair.b =
      std::make_unique<LoopbackEnd>(pair.core, sim::Dir::kReceiverToSender);
  return pair;
}

}  // namespace stpx::net

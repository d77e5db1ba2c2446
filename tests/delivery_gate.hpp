// DeliveryGate — a mux probe that holds the worker in its first delivery.
//
// Shared by the inbox-backpressure tests in test_net.cpp and
// test_trace.cpp.  A flood queued before start() must meet a full inbox
// however the threads are scheduled: the gate blocks the worker in its
// first kFrameReceived event until open(), so the pump routes (or sheds)
// the rest of the flood while nothing drains the inbox.
#pragma once

#include <condition_variable>
#include <mutex>

#include "obs/probe.hpp"

namespace stpx::test {

/// Holds every kFrameReceived event until open(); forwards each event to
/// `inner` when one is given.
class DeliveryGate final : public obs::IProbe {
 public:
  explicit DeliveryGate(obs::IProbe* inner = nullptr) : inner_(inner) {}

  void record(const obs::TraceEvent& ev) override {
    if (ev.kind == obs::TraceEventKind::kFrameReceived) {  // worker
      std::unique_lock<std::mutex> lock(mu_);
      opened_.wait(lock, [this] { return open_; });
    }
    if (inner_ != nullptr) inner_->record(ev);
  }

  void open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    opened_.notify_all();
  }

 private:
  obs::IProbe* inner_;
  std::mutex mu_;
  std::condition_variable opened_;
  bool open_ = false;
};

}  // namespace stpx::test

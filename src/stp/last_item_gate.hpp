// LastItemGate — hold back the last item of every wrapped sender until a
// kill drill says so.
//
// A drill that kills a server once its sessions have made some progress
// asserts that the kill hit live traffic.  A fast session can finish
// between the progress anchor and the kill, and then the assertion
// measures the scheduler.  A sender wrapped by the gate withholds its
// last item while the gate is closed: the frame is not sent, as if lost,
// and the sender's timer repeats the frame before it.  No wrapped session
// can complete before open(); the next step after it sends the item.
//
// One gate serves a whole client: wrap() every sender, open() once.  The
// gate must outlive the senders it wrapped.  parked() counts the senders
// that reached their last item while the gate was closed — once every
// live session is parked nothing more can move, so a drill waiting for
// progress knows that no more will come.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>

#include "sim/process.hpp"

namespace stpx::stp {

class LastItemGate {
 public:
  explicit LastItemGate(bool open = false) : open_(open) {}
  LastItemGate(const LastItemGate&) = delete;
  LastItemGate& operator=(const LastItemGate&) = delete;

  void open() { open_.store(true, std::memory_order_release); }
  bool is_open() const { return open_.load(std::memory_order_acquire); }
  std::size_t parked() const {
    return parked_.load(std::memory_order_acquire);
  }

  /// `inner`, withholding the message `last` (its last item's data frame)
  /// while the gate is closed.
  std::unique_ptr<sim::ISender> wrap(std::unique_ptr<sim::ISender> inner,
                                     sim::MsgId last) {
    return std::make_unique<Sender>(std::move(inner), last, *this);
  }

 private:
  class Sender final : public sim::ISender {
   public:
    Sender(std::unique_ptr<sim::ISender> inner, sim::MsgId last,
           LastItemGate& gate, bool parked = false)
        : inner_(std::move(inner)), last_(last), gate_(gate),
          parked_(parked) {}

    void start(const seq::Sequence& x) override { inner_->start(x); }
    sim::SenderEffect on_step() override {
      sim::SenderEffect eff = inner_->on_step();
      if (eff.send == last_ && !gate_.is_open()) {
        eff.send.reset();
        if (!parked_) {
          parked_ = true;
          gate_.parked_.fetch_add(1, std::memory_order_acq_rel);
        }
      }
      return eff;
    }
    void on_deliver(sim::MsgId msg) override { inner_->on_deliver(msg); }
    int alphabet_size() const override { return inner_->alphabet_size(); }
    std::string save_state() const override { return inner_->save_state(); }
    bool restore_state(const std::string& blob) override {
      return inner_->restore_state(blob);
    }
    std::unique_ptr<sim::ISender> clone() const override {
      return std::make_unique<Sender>(inner_->clone(), last_, gate_,
                                      parked_);
    }
    std::string name() const override { return inner_->name(); }

   private:
    std::unique_ptr<sim::ISender> inner_;
    sim::MsgId last_;
    LastItemGate& gate_;
    bool parked_;  // counted in gate_.parked_ (a clone is not recounted)
  };

  std::atomic<bool> open_;
  std::atomic<std::size_t> parked_{0};
};

}  // namespace stpx::stp

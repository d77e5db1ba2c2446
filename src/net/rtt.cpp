#include "net/rtt.hpp"

#include <algorithm>

namespace stpx::net {

namespace {
/// Timeouts past which the timeout is pinned at kMaxRto anyway.
constexpr std::uint32_t kMaxTimeouts = 16;
}  // namespace

void RttEstimator::on_send(time_point now) {
  ++sends_;
  sent_at_ = now;
}

RttEstimator::Heard RttEstimator::on_receive(time_point now) {
  Heard h;
  if (sends_ == 1 && now >= sent_at_) {
    const auto r = std::chrono::duration_cast<micros>(now - sent_at_);
    if (!sampled_) {
      srtt_ = r;
      rttvar_ = r / 2;
      sampled_ = true;
    } else {
      const micros err = srtt_ > r ? srtt_ - r : r - srtt_;
      rttvar_ = (3 * rttvar_ + err) / 4;
      srtt_ = (7 * srtt_ + r) / 8;
    }
    timeouts_ = 0;
    h.sample = r;
  }
  sends_ = 0;
  if (!h.sample && silent_timeouts_ >= kPeerGoneTimeouts) {
    timeouts_ = 0;
    h.peer_returned = true;
  }
  silent_timeouts_ = 0;
  return h;
}

void RttEstimator::on_timeout() {
  ++silent_timeouts_;
  timeouts_ = std::min(timeouts_ + 1, kMaxTimeouts);
}

RttEstimator::micros RttEstimator::rto() const {
  const micros base =
      sampled_ ? std::clamp(srtt_ + kRttvarWeight * rttvar_, kMinRto, kMaxRto)
               : kInitialRto;
  return std::min(base * (std::int64_t{1} << backoff()), kMaxRto);
}

}  // namespace stpx::net

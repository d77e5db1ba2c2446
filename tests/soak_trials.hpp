// sim_soak_trials — trials shaped like perfbench's sim_soak.
//
// Shared by Soak.SampledChaosTrialsReplayExactly (test_soak.cpp), which
// pins what the trials do, and Alloc.SoakTrialsAllocateAlmostNothingPerStep
// (test_alloc.cpp), which counts what they allocate.
#pragma once

#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "channel/del_channel.hpp"
#include "channel/schedulers.hpp"
#include "stp/soak.hpp"
#include "util/rng.hpp"

namespace stpx::test {

/// One trial: its input, its seed and its system, fault plan included.
struct SoakTrial {
  seq::Sequence input;
  std::uint64_t seed = 0;
  stp::SystemSpec spec;
};

/// `n` trials drawn from Rng(1): repfree-del and Stenning alternate on the
/// reorder+delete channel under the fair random scheduler, each under its
/// own sampled channel-level fault plan, with repetition-free inputs of 8
/// items over 12 symbols, at 60000 max steps and a 6000-step stall window.
inline std::vector<SoakTrial> sim_soak_trials(std::size_t n) {
  constexpr int kDomain = 12;
  constexpr std::size_t kSeqLen = 8;
  Rng rng(1);
  std::vector<SoakTrial> trials(n);
  for (std::size_t t = 0; t < n; ++t) {
    SoakTrial& trial = trials[t];
    seq::Sequence pool(kDomain);
    std::iota(pool.begin(), pool.end(), 0);
    for (std::size_t i = 0; i < kSeqLen; ++i) {
      std::swap(pool[i], pool[i + rng.below(pool.size() - i)]);
    }
    trial.input.assign(pool.begin(), pool.begin() + kSeqLen);
    trial.seed = rng();
    const bool repfree = t % 2 == 0;
    stp::SystemSpec spec;
    spec.protocols = [repfree] {
      return repfree ? proto::make_repfree_del(kDomain)
                     : proto::make_stenning(kDomain);
    };
    spec.channel = [](std::uint64_t seed) {
      return std::make_unique<channel::DelChannel>(0.0, seed);
    };
    spec.scheduler = [](std::uint64_t seed) {
      return std::make_unique<channel::FairRandomScheduler>(seed);
    };
    spec.engine.max_steps = 60000;
    spec.engine.stall_window = 6000;
    trial.spec = stp::with_chaos(
        spec, stp::plan_for_trial(trial.seed, fault::SamplerConfig{}));
  }
  return trials;
}

}  // namespace stpx::test

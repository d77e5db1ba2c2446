// The simulator's allocation bound: on the del-channel path an engine step
// builds its scheduler view and keeps the channel's multiset without
// allocating, so a soak allocates per trial and per written item only.
//
// This binary replaces the global operator new with a counting one, so it
// is a test binary of its own: no other suite runs under the counter.  The
// counter is armed around the measured trial loop only.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "soak_trials.hpp"

namespace {
std::atomic<bool> g_armed{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// Not inlined: inlined into a call site, a free() of what operator new
// returned reads to the compiler as a mismatched pair.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace stpx::stp {
namespace {

TEST(Alloc, SoakTrialsAllocateAlmostNothingPerStep) {
  // 256 trials shaped like perfbench's sim_soak (soak_trials.hpp), the
  // ones Soak.SampledChaosTrialsReplayExactly pins.  The specs are built
  // before the counter is armed, as the benchmark builds them before its
  // clock starts.  What the counter then sees is each trial's set-up
  // (components, engine, result) and one write buffer per written item,
  // spread over about 340 steps a trial: about 0.10 allocations a step.
  // A step that built its scheduler view afresh and kept the del
  // channel's multiset in a std::map read about 1.3.
  const std::vector<test::SoakTrial> trials = test::sim_soak_trials(256);
  std::vector<sim::RunVerdict> verdicts(trials.size());
  std::uint64_t steps = 0;
  std::uint64_t items = 0;

  g_allocs.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
  for (std::size_t t = 0; t < trials.size(); ++t) {
    const sim::RunResult r =
        run_one(trials[t].spec, trials[t].input, trials[t].seed);
    verdicts[t] = r.verdict;
    steps += r.stats.steps;
    items += r.output.size();
  }
  g_armed.store(false, std::memory_order_relaxed);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed);

  for (std::size_t t = 0; t < trials.size(); ++t) {
    ASSERT_EQ(verdicts[t], sim::RunVerdict::kCompleted) << "trial " << t;
  }
  ASSERT_GT(steps, 0u);
  const double per_step =
      static_cast<double>(allocs) / static_cast<double>(steps);
  std::printf("allocations: %llu over %llu steps and %llu items: %.4f a step, "
              "%.2f an item\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(steps),
              static_cast<unsigned long long>(items), per_step,
              static_cast<double>(allocs) / static_cast<double>(items));
  EXPECT_LE(per_step, 0.25);
}

}  // namespace
}  // namespace stpx::stp

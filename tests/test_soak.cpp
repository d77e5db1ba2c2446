// Short deterministic soak run (ctest label: soak_smoke).
//
// This is the end-to-end robustness acceptance test for the fault subsystem:
//   (a) the soak harness finds injected-fault failures for a protocol outside
//       its design envelope (ABP assumes FIFO; we run it on a reordering
//       channel),
//   (b) delta-debugging shrinks a failing plan to a minimal schedule that
//       still fails,
//   (c) the minimized schedule replays deterministically to the same verdict,
// while repfree — run under the *same* chaos configuration on its own
// channel family — soaks clean: safety never violated, watchdog never fires.
#include <gtest/gtest.h>

#include "channel/del_channel.hpp"
#include "channel/dupdel_channel.hpp"
#include "channel/schedulers.hpp"
#include "soak_trials.hpp"
#include "stp/soak.hpp"

namespace stpx::stp {
namespace {

seq::Sequence iota(int n) {
  seq::Sequence x;
  for (int i = 0; i < n; ++i) x.push_back(i);
  return x;
}

/// Reorder+delete system: repfree-del's home turf, hostile ground for ABP.
SystemSpec del_spec(std::function<proto::ProtocolPair()> protocols,
                    std::uint64_t max_steps, std::uint64_t stall_window) {
  SystemSpec spec;
  spec.protocols = std::move(protocols);
  spec.channel = [](std::uint64_t seed) {
    return std::make_unique<channel::DelChannel>(0.0, seed);
  };
  spec.scheduler = [](std::uint64_t seed) {
    return std::make_unique<channel::FairRandomScheduler>(seed);
  };
  spec.engine.max_steps = max_steps;
  spec.engine.stall_window = stall_window;
  return spec;
}

// The shared chaos configuration: channel-level faults only (drop / dup /
// blackout / freeze), the sampler's fair defaults.
SoakConfig chaos_config() { return SoakConfig{}; }

TEST(SoakSmoke, RepFreeRidesOutChannelChaosClean) {
  const auto spec = del_spec([] { return proto::make_repfree_del(12); },
                             /*max_steps=*/60000, /*stall_window=*/6000);
  const auto report =
      soak_sweep("repfree-del", spec, {iota(8), iota(5)}, chaos_config());
  EXPECT_EQ(report.trials, 10u);
  EXPECT_EQ(report.safety_violations, 0u);
  EXPECT_EQ(report.stalled, 0u) << "watchdog fired under a fair plan";
  EXPECT_TRUE(report.clean()) << report.failures.front().detail;
}

TEST(SoakSmoke, AbpUnderReorderingFailsMinimizesAndReplays) {
  // (a) find: ABP on a reordering channel is outside its design envelope.
  const auto spec = del_spec([] { return proto::make_abp(12); },
                             /*max_steps=*/20000, /*stall_window=*/2500);
  const auto report =
      soak_sweep("abp", spec, {iota(8)}, chaos_config());
  ASSERT_FALSE(report.clean());
  ASSERT_GE(report.failures.size(), 1u);
  const SoakFailure& f = report.failures.front();

  // (b) shrink: the minimized plan must still defeat the protocol.  (It may
  // shrink all the way to the empty plan — reordering alone breaks ABP.)
  const MinimizedPlan min = minimize_plan(spec, f);
  EXPECT_LE(min.plan.size(), f.plan.size());
  EXPECT_NE(min.verdict, sim::RunVerdict::kCompleted);

  // (c) replay: deterministic to the same verdict, twice.
  SoakFailure shrunk = f;
  shrunk.plan = min.plan;
  const auto r1 = replay_failure(spec, shrunk);
  const auto r2 = replay_failure(spec, shrunk);
  EXPECT_EQ(r1.verdict, min.verdict);
  EXPECT_EQ(r2.verdict, r1.verdict);
  EXPECT_EQ(r2.stats.steps, r1.stats.steps);
  EXPECT_EQ(r2.output, r1.output);
}

TEST(SoakSmoke, MinimizerProducesOneMinimalSchedule) {
  // repfree-dup sends each message exactly once; deleting every in-flight
  // copy mid-run (possible only through injected chaos — DupDelChannel with
  // suppress_prob 0 never drops on its own) stalls the transfer for good.
  SystemSpec spec;
  spec.protocols = [] { return proto::make_repfree_dup(12); };
  spec.channel = [](std::uint64_t seed) {
    return std::make_unique<channel::DupDelChannel>(0.0, seed);
  };
  spec.scheduler = [](std::uint64_t seed) {
    return std::make_unique<channel::FairRandomScheduler>(seed);
  };
  spec.engine.max_steps = 30000;
  spec.engine.stall_window = 3000;

  SoakFailure f;
  f.protocol = "repfree-dup";
  f.input = iota(10);
  f.seed = 3;
  f.plan = fault::plan_from_text(
      "drop @step 30 dir SR count 0 match *\n"
      "drop @step 30 dir RS count 0 match *\n"
      "dup @step 10 dir SR count 2 match *\n"
      "blackout @step 200 dir RS len 50 match *\n");
  const auto recorded = replay_failure(spec, f);
  ASSERT_NE(recorded.verdict, sim::RunVerdict::kCompleted);
  f.verdict = recorded.verdict;

  const MinimizedPlan min = minimize_plan(spec, f);
  ASSERT_GE(min.plan.size(), 1u);  // the bare channel completes fine
  EXPECT_LT(min.plan.size(), f.plan.size());
  EXPECT_NE(min.verdict, sim::RunVerdict::kCompleted);

  // 1-minimality: the minimized plan still fails, and removing any single
  // remaining action yields a passing schedule.
  SoakFailure probe = f;
  probe.plan = min.plan;
  EXPECT_EQ(replay_failure(spec, probe).verdict, min.verdict);
  for (std::size_t i = 0; i < min.plan.size(); ++i) {
    SoakFailure without = probe;
    without.plan.actions.erase(without.plan.actions.begin() +
                               static_cast<std::ptrdiff_t>(i));
    EXPECT_EQ(replay_failure(spec, without).verdict,
              sim::RunVerdict::kCompleted)
        << "minimized plan is not 1-minimal: action " << i << " is removable";
  }
}

TEST(Soak, SampledChaosTrialsReplayExactly) {
  // 256 trials shaped like perfbench's sim_soak (soak_trials.hpp).  The
  // pinned totals and the hash over every write step change if a channel
  // lists its deliverable ids in another order (the fair scheduler picks
  // by index) or any trial takes another path.
  std::uint64_t steps = 0;
  std::uint64_t sends = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a, 64-bit
  const std::vector<test::SoakTrial> trials = test::sim_soak_trials(256);
  for (std::size_t t = 0; t < trials.size(); ++t) {
    const sim::RunResult r =
        run_one(trials[t].spec, trials[t].input, trials[t].seed);
    ASSERT_EQ(r.verdict, sim::RunVerdict::kCompleted) << "trial " << t;
    steps += r.stats.steps;
    sends += r.stats.sent[0] + r.stats.sent[1];
    deliveries += r.stats.delivered[0] + r.stats.delivered[1];
    for (std::uint64_t step : r.stats.write_step) {
      for (int byte = 0; byte < 8; ++byte) {
        hash = (hash ^ ((step >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
      }
    }
  }
  EXPECT_EQ(steps, 87730u);
  EXPECT_EQ(sends, 53522u);
  EXPECT_EQ(deliveries, 34021u);
  EXPECT_EQ(hash, 11338464002778581469ULL);
}

}  // namespace
}  // namespace stpx::stp

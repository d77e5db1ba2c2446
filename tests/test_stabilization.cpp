// Tests for the self-stabilization layer: the corruption-fault grammar and
// sampler, the hardened protocol's three integrity defenses, the engine's
// suffix-safety convergence criterion, checkpoint round-trip fidelity for
// the whole suite, failure dedup, and the protocol x corruption x process
// conformance matrix.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "channel/dup_channel.hpp"
#include "channel/schedulers.hpp"
#include "channel/sync_channel.hpp"
#include "fault/plan.hpp"
#include "net/trace_sinks.hpp"
#include "obs/probe.hpp"
#include "proto/encoded.hpp"
#include "proto/hardened.hpp"
#include "proto/suite.hpp"
#include "seq/encoding.hpp"
#include "seq/family.hpp"
#include "stp/soak.hpp"
#include "stp/stabilization.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------- grammar --

namespace stpx::fault {
namespace {

TEST(CorruptionGrammar, ParsesAllThreeOps) {
  const auto plan = plan_from_text(
      "corrupt-payload @step 5 dir SR count 21 match *\n"
      "forge-message @writes 2 dir RS count 3 match 4\n"
      "scramble-state @sends 7 proc receiver count 99\n");
  ASSERT_EQ(plan.actions.size(), 3u);

  EXPECT_EQ(plan.actions[0].kind, FaultKind::kCorruptPayload);
  EXPECT_EQ(plan.actions[0].trigger.kind, TriggerKind::kStep);
  EXPECT_EQ(plan.actions[0].dir, sim::Dir::kSenderToReceiver);
  EXPECT_EQ(plan.actions[0].count, 21u);
  EXPECT_EQ(plan.actions[0].match, kAnyMsg);

  EXPECT_EQ(plan.actions[1].kind, FaultKind::kForgeMessage);
  EXPECT_EQ(plan.actions[1].trigger.kind, TriggerKind::kWrites);
  EXPECT_EQ(plan.actions[1].dir, sim::Dir::kReceiverToSender);
  EXPECT_EQ(plan.actions[1].match, 4);

  EXPECT_EQ(plan.actions[2].kind, FaultKind::kScrambleState);
  EXPECT_EQ(plan.actions[2].proc, sim::Proc::kReceiver);
  EXPECT_EQ(plan.actions[2].count, 99u);
}

TEST(CorruptionGrammar, TextRoundTripIsStable) {
  const std::string text =
      "corrupt-payload @step 5 dir SR count 21 match *\n"
      "forge-message @writes 2 dir RS count 3 match 4\n"
      "scramble-state @sends 7 proc receiver count 99\n";
  const std::string once = to_text(plan_from_text(text));
  EXPECT_EQ(once, text);
  EXPECT_EQ(to_text(plan_from_text(once)), once);
}

TEST(CorruptionGrammar, KindPredicates) {
  for (FaultKind k : {FaultKind::kCorruptPayload, FaultKind::kForgeMessage,
                      FaultKind::kScrambleState}) {
    EXPECT_TRUE(is_corruption_fault(k)) << to_cstr(k);
    EXPECT_FALSE(is_store_fault(k)) << to_cstr(k);
  }
  EXPECT_FALSE(is_corruption_fault(FaultKind::kDropBurst));
  EXPECT_FALSE(is_corruption_fault(FaultKind::kTornWrite));
}

TEST(CorruptionSampler, DisabledByDefault) {
  // Corruption faults are opt-in: the default sampler menu must never
  // produce them (r1 soak baselines would silently change otherwise).
  Rng rng(7);
  SamplerConfig cfg;
  for (int i = 0; i < 200; ++i) {
    for (const FaultAction& a : sample_plan(rng, cfg).actions) {
      EXPECT_FALSE(is_corruption_fault(a.kind)) << to_cstr(a.kind);
    }
  }
}

TEST(CorruptionSampler, EnabledKindsAppearAndAreWellFormed) {
  Rng rng(11);
  SamplerConfig cfg;
  cfg.allow_drop = false;
  cfg.allow_dup = false;
  cfg.allow_blackout = false;
  cfg.allow_freeze = false;
  cfg.allow_corrupt_payload = true;
  cfg.allow_forge_message = true;
  cfg.allow_scramble_state = true;
  std::set<FaultKind> seen;
  for (int i = 0; i < 200; ++i) {
    for (const FaultAction& a : sample_plan(rng, cfg).actions) {
      ASSERT_TRUE(is_corruption_fault(a.kind)) << to_cstr(a.kind);
      seen.insert(a.kind);
      if (a.kind == FaultKind::kCorruptPayload) {
        // XOR mask: nonzero and bounded, so the mangled id stays plausible.
        EXPECT_GE(a.count, 1u);
        EXPECT_LE(a.count, cfg.max_xor_mask);
      }
      if (a.kind == FaultKind::kForgeMessage) {
        // A forge must name the lie (no wildcard) so plans replay exactly.
        EXPECT_NE(a.match, kAnyMsg);
        EXPECT_GE(a.match, 0);
        EXPECT_LT(a.match, static_cast<sim::MsgId>(cfg.max_forge_id));
      }
    }
  }
  EXPECT_EQ(seen.size(), 3u);  // every enabled kind was actually sampled
}

}  // namespace
}  // namespace stpx::fault

// --------------------------------------------------------------- hardened --

namespace stpx::proto {
namespace {

TEST(Hardened, SealedBlobRoundTripAndTamperDetection) {
  const std::string payload = "190 3 0 1 2";
  const std::string blob = hardened_seal_blob(payload);
  std::string out;
  ASSERT_TRUE(hardened_unseal_blob(blob, out));
  EXPECT_EQ(out, payload);

  // Any single-character tamper (the scramble model mutates whole tokens,
  // a strictly larger change) must be caught by the blob hash.
  for (std::size_t i = 0; i < blob.size(); ++i) {
    std::string bad = blob;
    bad[i] = bad[i] == '7' ? '8' : '7';
    if (bad == blob) continue;
    EXPECT_FALSE(hardened_unseal_blob(bad, out)) << "tamper at " << i;
  }
  EXPECT_FALSE(hardened_unseal_blob(payload, out));  // hash token missing
  EXPECT_FALSE(hardened_unseal_blob("", out));
  // The seal token is read as canonical text only: the same value
  // respelled is no seal.
  const std::size_t seal = blob.find_last_of(' ') + 1;
  for (const std::string prefix : {"0", "+"}) {
    std::string respelled = blob;
    respelled.insert(seal, prefix);
    EXPECT_FALSE(hardened_unseal_blob(respelled, out)) << respelled;
  }
}

TEST(Hardened, ReceiverShedsMangledAndForgedIds) {
  HardenedSender s(6);
  HardenedReceiver r(6);
  s.start(seq::Sequence{0, 1, 2});
  r.start();

  const auto eff = s.on_step();
  ASSERT_TRUE(eff.send.has_value());
  const sim::MsgId genuine = *eff.send;

  // A flipped bit fails the checksum: dropped, counted, nothing written.
  r.on_deliver(genuine ^ 21);
  EXPECT_EQ(r.rejected(), 1u);
  EXPECT_TRUE(r.on_step().writes.empty());

  // A forged small id (the stabilization plan's lie) is equally shed.
  r.on_deliver(4);
  EXPECT_EQ(r.rejected(), 2u);
  EXPECT_TRUE(r.on_step().writes.empty());

  // The genuine copy still lands.
  r.on_deliver(genuine);
  const auto w = r.on_step().writes;
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0], 0);
}

TEST(Hardened, SenderShedsForgedAcks) {
  HardenedSender s(6);
  s.start(seq::Sequence{0, 1, 2});
  (void)s.on_step();
  EXPECT_EQ(s.acked(), 0u);
  s.on_deliver(4);  // forged "ack" without the salt
  EXPECT_EQ(s.rejected(), 1u);
  EXPECT_EQ(s.acked(), 0u);  // the cursor did not move
}

TEST(Hardened, ScrambledCheckpointIsRejected) {
  HardenedSender s(6);
  s.start(seq::Sequence{0, 1, 2});
  HardenedReceiver r(6);
  r.start();

  // Token-level mutations of a sealed checkpoint (what scramble-state
  // produces) must be rejected with the live state untouched.
  const std::string sblob = s.save_state();
  EXPECT_FALSE(s.restore_state("191 9 " + sblob));
  EXPECT_FALSE(s.restore_state(sblob + " 7"));
  std::string mutated = sblob;
  mutated[0] = mutated[0] == '1' ? '2' : '1';
  EXPECT_FALSE(s.restore_state(mutated));
  EXPECT_EQ(s.save_state(), sblob);  // live state survived every attempt

  const std::string rblob = r.save_state();
  std::string rmut = rblob;
  rmut[rmut.size() / 2] = rmut[rmut.size() / 2] == '3' ? '4' : '3';
  EXPECT_FALSE(r.restore_state(rmut, seq::Sequence{}));
  EXPECT_EQ(r.epoch(), 0u);  // a failed restore does not announce a restart
}

TEST(Hardened, EpochResyncWalksTheSenderBack) {
  // Lockstep a short transfer, then restore the receiver from its own
  // checkpoint: the restore bumps the epoch, the next ack carries it, and
  // the sender adopts the receiver's frontier outright.
  HardenedSender s(6);
  HardenedReceiver r(6);
  const seq::Sequence x{0, 1, 2, 3};
  s.start(x);
  r.start();
  seq::Sequence tape;
  for (int i = 0; i < 12 && s.acked() < 2; ++i) {
    const auto se = s.on_step();
    if (se.send) r.on_deliver(*se.send);
    const auto re = r.on_step();
    for (seq::DataItem d : re.writes) tape.push_back(d);
    if (re.send) s.on_deliver(*re.send);
  }
  ASSERT_GE(s.acked(), 2u);
  ASSERT_EQ(s.epoch(), 0u);

  ASSERT_TRUE(r.restore_state(r.save_state(), tape));
  EXPECT_EQ(r.epoch(), 1u);  // a successful restore announces the restart

  const auto ack = r.on_step();
  ASSERT_TRUE(ack.send.has_value());
  s.on_deliver(*ack.send);
  EXPECT_EQ(s.epoch(), 1u);  // the sender resynced to the new epoch
}

// ------------------------------------- checkpoint round-trip (suite-wide) --

/// Factory + input for one suite protocol; `sync` marks the headerless
/// lockstep protocol whose delivery verdicts normally come from the channel.
struct SuiteEntry {
  std::string name;
  std::function<ProtocolPair()> make;
  seq::Sequence input;
  bool sync = false;
};

std::vector<SuiteEntry> suite_entries() {
  const seq::Sequence six{0, 1, 2, 3, 4, 5};
  std::vector<SuiteEntry> v;
  v.push_back({"stenning", [] { return make_stenning(6); }, six});
  v.push_back({"abp", [] { return make_abp(6); }, six});
  v.push_back({"modk-stenning", [] { return make_modk_stenning(6, 3); }, six});
  v.push_back({"repfree-dup", [] { return make_repfree_dup(6); }, six});
  v.push_back({"repfree-del", [] { return make_repfree_del(6); }, six});
  v.push_back({"go-back-n", [] { return make_go_back_n(6, 3); }, six});
  v.push_back(
      {"selective-repeat", [] { return make_selective_repeat(6, 3); }, six});
  v.push_back(
      {"block", [] { return make_block(4, 2, 12); }, {0, 1, 2, 3, 1, 2}});
  v.push_back({"hybrid", [] { return make_hybrid(6, 8); }, six});
  v.push_back(
      {"sync-stop-wait", [] { return make_sync_stop_wait(6); }, six, true});
  {
    seq::Family fam;
    fam.domain = seq::Domain{6};
    for (std::size_t len = 0; len <= six.size(); ++len) {
      fam.members.emplace_back(six.begin(),
                               six.begin() + static_cast<std::ptrdiff_t>(len));
    }
    auto enc = seq::try_build_encoding(fam, 6);
    STPX_EXPECT(enc.has_value(), "chain-family encoding must exist");
    auto table = std::make_shared<const seq::Encoding>(std::move(*enc));
    v.push_back({"encoded-knowledge",
                 [table] {
                   return ProtocolPair{
                       std::make_unique<EncodedSender>(table, false),
                       std::make_unique<KnowledgeReceiver>(table, false)};
                 },
                 six});
  }
  return v;
}

TEST(CheckpointRoundTrip, SaveRestoreSaveIsByteIdenticalSuiteWide) {
  // The scramble layer compares checkpoints textually, and the recovery
  // layer re-baselines from save_state() after every restore — both depend
  // on restore_state(save_state()) being a byte-identical fixed point, on a
  // fresh instance, for every protocol and both processes.  Exercised on a
  // mid-run state so non-trivial fields (windows, buffers, seen-sets) are
  // actually populated.
  for (const SuiteEntry& e : suite_entries()) {
    ProtocolPair live = e.make();
    live.sender->start(e.input);
    live.receiver->start();
    seq::Sequence tape;
    for (int i = 0; i < 10; ++i) {
      const auto se = live.sender->on_step();
      if (se.send) live.receiver->on_deliver(*se.send);
      const auto re = live.receiver->on_step();
      for (seq::DataItem d : re.writes) tape.push_back(d);
      if (re.send) live.sender->on_deliver(*re.send);
      if (e.sync && se.send) live.sender->on_deliver(channel::kSyncAck);
    }
    EXPECT_FALSE(tape.empty()) << e.name << ": pump made no progress";

    const std::string sblob = live.sender->save_state();
    const std::string rblob = live.receiver->save_state();

    ProtocolPair fresh = e.make();
    fresh.sender->start(e.input);
    fresh.receiver->start();
    ASSERT_TRUE(fresh.sender->restore_state(sblob)) << e.name;
    EXPECT_EQ(fresh.sender->save_state(), sblob) << e.name;
    ASSERT_TRUE(fresh.receiver->restore_state(rblob, tape)) << e.name;
    EXPECT_EQ(fresh.receiver->save_state(), rblob) << e.name;
  }
}

TEST(CheckpointRoundTrip, HardenedReceiverDiffersOnlyInEpoch) {
  // The hardened receiver deliberately breaks the fixed point: a successful
  // restore bumps the epoch (that IS the resync signal), so the post-restore
  // checkpoint differs from the restored one — but only in the epoch.
  ProtocolPair live = make_hardened(6);
  live.sender->start(seq::Sequence{0, 1, 2});
  live.receiver->start();

  const std::string sblob = live.sender->save_state();
  ASSERT_TRUE(live.sender->restore_state(sblob));
  EXPECT_EQ(live.sender->save_state(), sblob);  // the sender IS a fixed point

  auto* r = dynamic_cast<HardenedReceiver*>(live.receiver.get());
  ASSERT_NE(r, nullptr);
  const std::string before = r->save_state();
  ASSERT_TRUE(r->restore_state(before, seq::Sequence{}));
  EXPECT_EQ(r->epoch(), 1u);
  EXPECT_NE(r->save_state(), before);
  ASSERT_TRUE(r->restore_state(r->save_state(), seq::Sequence{}));
  EXPECT_EQ(r->epoch(), 2u);
}

}  // namespace
}  // namespace stpx::proto

// ---------------------------------------------- convergence + conformance --

namespace stpx::stp {
namespace {

SystemSpec repfree_dup_spec() {
  SystemSpec spec;
  spec.protocols = [] { return proto::make_repfree_dup(6); };
  spec.channel = [](std::uint64_t) {
    return std::make_unique<channel::DupChannel>();
  };
  spec.scheduler = [](std::uint64_t seed) {
    return std::make_unique<channel::FairRandomScheduler>(seed);
  };
  spec.engine.max_steps = 60000;
  spec.engine.stall_window = 6000;
  spec.engine.convergence_window = 2;
  return spec;
}

TEST(Convergence, CleanRunCompletesWithoutCorruptionBookkeeping) {
  // The chaos decorator with an empty plan is transparent: no corruptions,
  // no scrambles, plain completion (converged == completed for clean runs).
  const auto r = run_one(with_chaos(repfree_dup_spec(), fault::FaultPlan{}),
                         seq::Sequence{0, 1, 2, 3, 4, 5}, 2026);
  EXPECT_EQ(r.verdict, sim::RunVerdict::kCompleted);
  EXPECT_EQ(r.stats.corruptions, 0u);
  EXPECT_EQ(r.stats.scrambles_applied + r.stats.scrambles_rejected, 0u);
  EXPECT_TRUE(r.converged);
}

TEST(Convergence, ForgedMessageDivergesTheTrustingProtocol) {
  // The bench's exhibit 1, pinned as a test: one forged in-alphabet id
  // toward repfree-dup's receiver is believed (content IS the header),
  // written out of order, and the suffix-safety criterion rejects the run.
  const auto plan = stabilization_plan(fault::FaultKind::kForgeMessage,
                                       sim::Proc::kReceiver);
  const auto r = run_one(with_chaos(repfree_dup_spec(), plan),
                         seq::Sequence{0, 1, 2, 3, 4, 5}, 2026);
  EXPECT_EQ(r.verdict, sim::RunVerdict::kStabilizationViolation);
  EXPECT_FALSE(r.converged);
  EXPECT_GE(r.stats.corruptions, 1u);
}

TEST(Convergence, SameLieIsInvisibleToTheHardenedProtocol) {
  auto spec = repfree_dup_spec();
  spec.protocols = [] { return proto::make_hardened(6); };
  const auto plan = stabilization_plan(fault::FaultKind::kForgeMessage,
                                       sim::Proc::kReceiver);
  const auto r = run_one(with_chaos(spec, plan),
                         seq::Sequence{0, 1, 2, 3, 4, 5}, 2026);
  EXPECT_EQ(r.verdict, sim::RunVerdict::kCompleted);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(r.stats.corruptions, 1u);  // the fault fired; it was just shed
}

TEST(Convergence, LegacyWindowZeroHaltsAtTheViolation) {
  // convergence_window = 0 keeps the pre-stabilization contract: the first
  // bad write ends the run as a (post-corruption) stabilization violation
  // rather than opening a recovery window.
  auto spec = repfree_dup_spec();
  spec.engine.convergence_window = 0;
  const auto plan = stabilization_plan(fault::FaultKind::kForgeMessage,
                                       sim::Proc::kReceiver);
  const auto r = run_one(with_chaos(spec, plan),
                         seq::Sequence{0, 1, 2, 3, 4, 5}, 2026);
  EXPECT_EQ(r.verdict, sim::RunVerdict::kStabilizationViolation);
  EXPECT_FALSE(r.safety_ok);
}

/// Keeps every event a run reports, in order.
struct EventLog final : obs::IProbe {
  std::vector<obs::TraceEvent> events;
  void record(const obs::TraceEvent& ev) override { events.push_back(ev); }
};

TEST(StabilizationTrace, ScrambleRunJsonlReadsBackEventForEvent) {
  // The archive of a stabilization run shows the corruption strike and
  // the convergence verdict, and reads back to exactly the stream the
  // probes received.
  std::ostringstream jsonl;
  net::JsonlSink sink(jsonl);
  EventLog log;
  obs::MultiProbe both({&log, &sink});
  auto spec = repfree_dup_spec();
  spec.engine.probe = &both;
  const auto plan = fault::plan_from_text(
      "scramble-state @writes 2 proc receiver count 7\n");
  const auto r = run_one(with_chaos(spec, plan),
                         seq::Sequence{0, 1, 2, 3, 4, 5}, 2026);
  ASSERT_EQ(r.verdict, sim::RunVerdict::kCompleted);
  ASSERT_TRUE(r.converged);

  const std::string text = jsonl.str();
  EXPECT_NE(text.find("\"ev\":\"scramble\""), std::string::npos);
  EXPECT_NE(text.find("\"ev\":\"converge\""), std::string::npos);
  std::istringstream in(text);
  const auto back = net::read_trace_jsonl(in);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, log.events);
}

TEST(Conformance, StabilizationPlanShape) {
  const auto plan = stabilization_plan(fault::FaultKind::kScrambleState,
                                       sim::Proc::kSender);
  ASSERT_EQ(plan.actions.size(), 1u);
  EXPECT_EQ(plan.actions[0].kind, fault::FaultKind::kScrambleState);
  EXPECT_EQ(plan.actions[0].trigger.kind, fault::TriggerKind::kWrites);
  EXPECT_EQ(plan.actions[0].trigger.at, 2u);
  EXPECT_EQ(plan.actions[0].proc, sim::Proc::kSender);
  // Only corruption-fault kinds are accepted.
  EXPECT_THROW(
      stabilization_plan(fault::FaultKind::kDropBurst, sim::Proc::kSender),
      ContractError);
}

TEST(Conformance, MatrixLandsOnItsPins) {
  // The headline acceptance test: every protocol in the suite x all three
  // corruption kinds x both target processes, each cell's verdict matching
  // its documented pin (docs/STABILIZATION.md).
  const auto cases = default_stabilization_cases();
  ASSERT_GE(cases.size(), 12u);  // hardened + the 11-protocol suite
  const StabilizationReport report = stabilization_sweep(cases, 2026);
  EXPECT_EQ(report.trials.size(),
            cases.size() * kCorruptionKindCount * 2);
  for (const auto& t : report.trials)
    if (!t.detail.empty()) ADD_FAILURE() << t.detail;
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.matched, report.trials.size());
}

TEST(Conformance, HardenedCompletesEveryCellWithTheFaultActuallyFiring) {
  const auto cases = default_stabilization_cases();
  const StabilizationReport report = stabilization_sweep(cases, 2026);
  std::size_t hardened_cells = 0;
  for (const auto& t : report.trials) {
    if (t.protocol != "hardened") continue;
    ++hardened_cells;
    EXPECT_EQ(t.verdict, sim::RunVerdict::kCompleted)
        << fault::to_cstr(t.kind) << " proc " << sim::to_cstr(t.proc);
    // Re-converging past a fault that never fired proves nothing: every
    // cell must have seen its corruption (scramble cells via the sealed
    // checkpoint rejecting the blob).
    if (t.kind == fault::FaultKind::kScrambleState) {
      EXPECT_GE(t.scrambles_applied + t.scrambles_rejected, 1u);
      EXPECT_EQ(t.scrambles_applied, 0u);  // the seal held every time
    } else {
      EXPECT_GE(t.corruptions, 1u);
    }
  }
  EXPECT_EQ(hardened_cells, kCorruptionKindCount * 2);
}

TEST(Dedup, RepeatedForgeriesCollapseToOneCounterexample) {
  // Three failing trials, same lie under different seeds: minimization must
  // land on the same 1-minimal plan and dedup must report it once with its
  // multiplicity.
  const auto spec = repfree_dup_spec();
  const auto plan = stabilization_plan(fault::FaultKind::kForgeMessage,
                                       sim::Proc::kReceiver);
  const seq::Sequence x{0, 1, 2, 3, 4, 5};
  std::vector<SoakFailure> failures;
  for (std::uint64_t seed : {2026u, 2027u, 2028u}) {
    const auto r = run_one(with_chaos(spec, plan), x, seed);
    if (r.verdict != sim::RunVerdict::kStabilizationViolation) continue;
    SoakFailure f;
    f.protocol = "repfree-dup";
    f.input = x;
    f.seed = seed;
    f.plan = plan;
    f.verdict = r.verdict;
    failures.push_back(std::move(f));
  }
  ASSERT_GE(failures.size(), 2u);  // the lie is not schedule-luck
  const auto deduped = dedup_failures(spec, failures);
  ASSERT_EQ(deduped.size(), 1u);
  EXPECT_EQ(deduped[0].occurrences, failures.size());
  EXPECT_EQ(deduped[0].verdict, sim::RunVerdict::kStabilizationViolation);
  // 1-minimal: the single forge action cannot shrink further.
  EXPECT_EQ(deduped[0].minimized.actions.size(), 1u);
}

}  // namespace
}  // namespace stpx::stp

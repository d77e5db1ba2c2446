// Tests for the durable recovery layer: blob serialization, the stable
// stores (record framing, checksums, fault semantics, file persistence),
// engine rehydration on crash-restart, recovery observability, and the
// protocol x crash x storage-fault conformance sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "channel/del_channel.hpp"
#include "channel/fifo_channel.hpp"
#include "channel/schedulers.hpp"
#include "channel/sync_channel.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "proto/encoded.hpp"
#include "proto/suite.hpp"
#include "seq/encoding.hpp"
#include "seq/family.hpp"
#include "stp/recovery.hpp"
#include "stp/soak.hpp"
#include "stp/stabilization.hpp"
#include "store/stable_store.hpp"
#include "util/blob.hpp"
#include "util/expect.hpp"

// ------------------------------------------------------------------ blobs --

namespace stpx::util {
namespace {

TEST(Blob, RoundTrip) {
  BlobWriter w;
  w.i64(-7);
  w.u64(1234567890123ULL);
  w.boolean(true);
  w.vec({5, -1, 0});

  BlobReader r(w.str());
  std::int64_t a = 0;
  std::uint64_t b = 0;
  bool c = false;
  std::vector<std::int64_t> v;
  EXPECT_TRUE(r.i64(a));
  EXPECT_TRUE(r.u64(b));
  EXPECT_TRUE(r.boolean(c));
  EXPECT_TRUE(r.vec(v));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(a, -7);
  EXPECT_EQ(b, 1234567890123ULL);
  EXPECT_TRUE(c);
  EXPECT_EQ(v, (std::vector<std::int64_t>{5, -1, 0}));
}

TEST(Blob, ReaderIsDefensive) {
  // Exhaustion, negative-where-unsigned, and an absurd vec length must all
  // report failure without throwing (a failed restore, not UB).
  BlobReader empty("");
  std::int64_t x = 42;
  EXPECT_FALSE(empty.i64(x));
  EXPECT_EQ(x, 42);  // untouched on failure

  BlobReader neg("-3");
  std::uint64_t u = 0;
  EXPECT_FALSE(neg.u64(u));

  BlobReader garbage("12 banana");
  EXPECT_FALSE(garbage.ok());

  BlobReader long_vec("99 1 2");  // claims 99 elements, has 2
  std::vector<std::int64_t> v;
  EXPECT_FALSE(long_vec.vec(v));
  EXPECT_TRUE(v.empty());

  // Canonical text is the only spelling read: any other is malformed.
  for (const std::string text : {"+5", "007", "-0", "1  2", " 3", "3 "}) {
    EXPECT_FALSE(BlobReader(text).ok()) << "[" << text << "]";
  }
}

TEST(Blob, CanonicalScannerEdgeTokens) {
  // What counts as one canonical token: the int64 extremes and zero are,
  // any other spelling of a number, an out-of-range value and stray
  // spaces are not.  The scanner decides which records and chains are
  // read in place, so its edge is pinned token by token.
  const std::vector<std::pair<std::string, std::int64_t>> accepted = {
      {"0", 0},
      {"-1", -1},
      {"9223372036854775807", std::numeric_limits<std::int64_t>::max()},
      {"-9223372036854775808", std::numeric_limits<std::int64_t>::min()}};
  for (const auto& [text, value] : accepted) {
    CanonicalScanner scan(text);
    std::int64_t v = 42;
    ASSERT_TRUE(scan.next(v)) << "[" << text << "]";
    EXPECT_EQ(v, value) << "[" << text << "]";
    EXPECT_TRUE(scan.done()) << "[" << text << "]";
    EXPECT_FALSE(scan.next(v)) << "[" << text << "]";
    EXPECT_EQ(canonical_token_count(text), 1u) << "[" << text << "]";
  }
  const std::vector<std::string> rejected = {
      "-0", "007", "+1", "9223372036854775808", "-9223372036854775809",
      "12345678901234567890", "", "1 ", " 1", "1  2", "1a"};
  for (const std::string& text : rejected) {
    CanonicalScanner scan(text);
    std::int64_t v = 42;
    EXPECT_FALSE(scan.next(v) && scan.done()) << "[" << text << "]";
    if (!text.empty()) {
      EXPECT_EQ(canonical_token_count(text), std::nullopt)
          << "[" << text << "]";
    }
  }
  // The empty text is canonical, with no token to read.
  EXPECT_EQ(canonical_token_count(""), 0u);
  std::int64_t v = 42;
  // A failed read leaves the position where it was: the tokens before a
  // bad one still read, and tokens() takes all of its tokens or none.
  CanonicalScanner partial("5 1a");
  std::string_view run;
  EXPECT_FALSE(partial.tokens(2, run));
  ASSERT_TRUE(partial.next(v));
  EXPECT_EQ(v, 5);
  EXPECT_FALSE(partial.next(v));
  EXPECT_FALSE(partial.done());
  CanonicalScanner two("3 -4 5");
  ASSERT_TRUE(two.next(v));
  ASSERT_TRUE(two.tokens(2, run));
  EXPECT_EQ(run, "-4 5");
  EXPECT_TRUE(two.done());
}

}  // namespace
}  // namespace stpx::util

// ----------------------------------------------------------------- stores --

namespace stpx::store {
namespace {

TEST(RecordCodec, RoundTripAndResync) {
  const std::string a = encode_record("1 2 3");
  const std::string b = encode_record("4 5 6");

  auto units = parse_records(a + b);
  ASSERT_EQ(units.size(), 2u);
  EXPECT_TRUE(units[0].valid);
  EXPECT_EQ(units[0].payload, "1 2 3");
  EXPECT_TRUE(units[1].valid);
  EXPECT_EQ(units[1].payload, "4 5 6");

  // Damage the first record's payload: the checksum rejects it and the
  // parser re-syncs to the second record's magic.
  std::string damaged = a + b;
  damaged[a.size() - 2] ^= 0x1;
  units = parse_records(damaged);
  bool saw_valid_b = false;
  for (const auto& u : units)
    if (u.valid) {
      EXPECT_EQ(u.payload, "4 5 6");
      saw_valid_b = true;
    }
  EXPECT_TRUE(saw_valid_b);
}

TEST(MemStore, NewestValidRecordWins) {
  MemStore s;
  s.reset();
  EXPECT_FALSE(s.recover().found);  // empty store = cold start

  s.append("10");
  s.append("20");
  s.append("30");
  const auto rec = s.recover();
  EXPECT_TRUE(rec.found);
  EXPECT_EQ(rec.state, "30");
  EXPECT_EQ(rec.records_replayed, 3u);
  EXPECT_EQ(rec.records_skipped, 0u);
  EXPECT_EQ(s.appends(), 3u);
}

TEST(MemStore, TornWriteLosesOnlyTheTornAppend) {
  MemStore s;
  s.append("10");
  s.fault_torn_next_append();
  s.append("20");  // truncated mid-record
  auto rec = s.recover();
  EXPECT_TRUE(rec.found);
  EXPECT_EQ(rec.state, "10");
  EXPECT_GE(rec.records_skipped, 1u);

  // A later intact append supersedes the damage entirely.
  s.append("30");
  rec = s.recover();
  EXPECT_EQ(rec.state, "30");
}

TEST(MemStore, LoseTailRewindsToOlderRecord) {
  MemStore s;
  s.append("10");
  s.append("20");
  s.fault_lose_tail(1);
  const auto rec = s.recover();
  EXPECT_TRUE(rec.found);
  EXPECT_EQ(rec.state, "10");

  s.fault_lose_tail(5);  // more than remain: store goes empty, not UB
  EXPECT_FALSE(s.recover().found);
}

TEST(MemStore, CorruptRecordCaughtByChecksum) {
  MemStore s;
  s.append("10");
  s.append("20");
  s.fault_corrupt_record();
  const auto rec = s.recover();
  EXPECT_TRUE(rec.found);
  EXPECT_EQ(rec.state, "10");  // damaged newest record is skipped
  EXPECT_GE(rec.records_skipped, 1u);
}

TEST(MemStore, StaleSnapshotReplaysMoreButLandsOnSameState) {
  MemStore s;
  for (int i = 1; i <= 6; ++i) {
    s.append(std::to_string(i * 10));
    if (i == 4) s.compact();
  }
  const auto before = s.recover();
  ASSERT_TRUE(before.found);
  EXPECT_EQ(before.state, "60");

  // Roll compaction back: the old snapshot and the folded-in records
  // reappear.  Records are full states, so only the replay count grows.
  s.fault_stale_snapshot();
  const auto after = s.recover();
  EXPECT_TRUE(after.found);
  EXPECT_EQ(after.state, "60");
  EXPECT_GT(after.records_replayed, before.records_replayed);
}

TEST(MemStore, ResetWipesEverything) {
  MemStore s;
  s.append("10");
  s.compact();
  s.append("20");
  s.reset();
  EXPECT_FALSE(s.recover().found);
  EXPECT_EQ(s.appends(), 0u);
}

TEST(FileStore, PersistsAcrossInstances) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "stpx_filestore").string();
  {
    FileStore a(dir);
    a.reset();
    a.append("1 2");
    a.append("3 4");
    a.compact();
    a.append("5 6");
    // Every append writes through: a store opened while `a` is still
    // alive already recovers the newest record.
    const auto live = FileStore(dir).recover();
    EXPECT_TRUE(live.found);
    EXPECT_EQ(live.state, "5 6");
  }
  // A second store on the same directory sees the same bytes: the files,
  // not the object, are the source of truth.
  FileStore b(dir);
  const auto rec = b.recover();
  EXPECT_TRUE(rec.found);
  EXPECT_EQ(rec.state, "5 6");

  // Faults round-trip through the files too.
  b.fault_corrupt_record();
  FileStore c(dir);
  const auto after = c.recover();
  EXPECT_TRUE(after.found);
  EXPECT_EQ(after.state, "3 4");  // snapshot state, newest log record damaged
  EXPECT_GE(after.records_skipped, 1u);
  std::filesystem::remove_all(dir);
}

TEST(FileStore, TornWriteTruncatesOnDisk) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "stpx_filestore_torn")
          .string();
  FileStore s(dir);
  s.reset();
  s.append("11");
  s.fault_torn_next_append();
  s.append("22");
  const auto rec = s.recover();
  EXPECT_TRUE(rec.found);
  EXPECT_EQ(rec.state, "11");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace stpx::store

// ---------------------------------------------------- engine rehydration --

namespace stpx::stp {
namespace {

SystemSpec stenning_spec(int m) {
  SystemSpec spec;
  spec.protocols = [m] { return proto::make_stenning(m); };
  spec.channel = [](std::uint64_t seed) {
    return std::make_unique<channel::DelChannel>(0.0, seed);
  };
  spec.scheduler = [](std::uint64_t seed) {
    return std::make_unique<channel::FairRandomScheduler>(seed);
  };
  spec.engine.max_steps = 100000;
  spec.engine.stall_window = 4000;
  return spec;
}

SystemSpec repfree_del_spec(int m) {
  SystemSpec spec;
  spec.protocols = [m] { return proto::make_repfree_del(m); };
  spec.channel = [](std::uint64_t seed) {
    return std::make_unique<channel::DelChannel>(0.0, seed);
  };
  spec.scheduler = [](std::uint64_t) {
    return std::make_unique<channel::RoundRobinScheduler>();
  };
  spec.engine.max_steps = 100000;
  spec.engine.stall_window = 4000;
  return spec;
}

seq::Sequence iota(int n) {
  seq::Sequence x;
  for (int i = 0; i < n; ++i) x.push_back(i);
  return x;
}

TEST(Rehydration, StenningReceiverCrashCompletesWithStore) {
  // The durable counterpart of CrashRestart.StenningReceiverAmnesiaIsSafe-
  // ButStalls (test_fault.cpp): the same crash that permanently stalls an
  // amnesiac receiver is a non-event once its cursor lives in a store.
  auto spec = stenning_spec(6);
  store::MemStore sstore, rstore;
  spec.engine.sender_store = &sstore;
  spec.engine.receiver_store = &rstore;
  const auto plan = fault::plan_from_text("crash-receiver @writes 2\n");
  const auto r = run_one(with_chaos(spec, plan), iota(6), 11);
  EXPECT_EQ(r.verdict, sim::RunVerdict::kCompleted);
  EXPECT_EQ(r.stats.crashes[1], 1u);
  EXPECT_EQ(r.stats.recoveries, 1u);
  EXPECT_GE(r.stats.records_replayed, 1u);
}

TEST(Rehydration, RepFreeReceiverStoreDefusesTheAmnesiaHazard) {
  // The exact schedule of CrashRestart.RepFreeReceiverAmnesiaViolatesSafety
  // (dup a stale copy into flight, crash the receiver) — but with stable
  // stores attached, seen_ survives the crash and the stale copy is
  // correctly ignored instead of re-written.
  auto spec = repfree_del_spec(6);
  store::MemStore sstore, rstore;
  spec.engine.sender_store = &sstore;
  spec.engine.receiver_store = &rstore;
  const auto plan = fault::plan_from_text(
      "dup @step 1 dir SR count 6 match *\n"
      "crash-receiver @writes 2\n");
  const auto r = run_one(with_chaos(spec, plan), iota(6), 1);
  EXPECT_EQ(r.verdict, sim::RunVerdict::kCompleted);
  EXPECT_TRUE(r.safety_ok);
  EXPECT_EQ(r.stats.crashes[1], 1u);
  EXPECT_EQ(r.stats.recoveries, 1u);
}

TEST(Rehydration, RestoreRefusesAnItemOutsideDataItem) {
  // Blob tokens are int64 and items int32: a restored item outside
  // DataItem is damage, refused, never narrowed onto another item
  // (2^32 + 3 narrows to 3).  Stenning restores its pending writes
  // through read_items(); selective repeat also restores a reorder buffer
  // of (seqno, item) pairs.
  const std::string wide = std::to_string((std::int64_t{1} << 32) + 3);
  auto stenning = proto::make_stenning(4).receiver;
  ASSERT_TRUE(stenning->restore_state("102 0 1 3", {}));
  EXPECT_EQ(stenning->on_step().writes, seq::Sequence{3});
  EXPECT_FALSE(
      proto::make_stenning(4).receiver->restore_state("102 0 1 " + wide, {}));
  EXPECT_TRUE(proto::make_selective_repeat(4, 2).receiver->restore_state(
      "143 0 2 0 3 0 0", {}));
  EXPECT_FALSE(proto::make_selective_repeat(4, 2).receiver->restore_state(
      "143 0 2 0 " + wide + " 0 0", {}));
}

TEST(Rehydration, EveryCheckpointIsCanonicalText) {
  // Every reader accepts canonical blob text only, so every checkpoint a
  // protocol writes must be canonical: one clean run of each protocol in
  // the recovery matrix, and of the hardened one (its sealed blobs) from
  // the stabilization matrix.
  const auto check = [](const std::string& name, SystemSpec spec,
                        const seq::Sequence& input) {
    store::MemStore sstore, rstore;
    spec.engine.sender_store = &sstore;
    spec.engine.receiver_store = &rstore;
    EXPECT_EQ(run_one(spec, input, 1).verdict, sim::RunVerdict::kCompleted)
        << name;
    for (store::MemStore* st : {&sstore, &rstore}) {
      const auto replayed = st->replay();
      EXPECT_FALSE(replayed.payloads.empty()) << name;
      for (const std::string& p : replayed.payloads) {
        EXPECT_TRUE(util::canonical_token_count(p).has_value())
            << name << " [" << p << "]";
      }
    }
  };
  for (const RecoveryCase& c : default_recovery_cases()) {
    check(c.name, c.spec, c.input);
  }
  for (const StabilizationCase& c : default_stabilization_cases()) {
    if (c.name == "hardened") check(c.name, c.spec, c.input);
  }
}

/// The encoded-knowledge recovery case with the greedy receiver instead.
SystemSpec encoded_greedy_spec(const SystemSpec& knowledge,
                               const seq::Sequence& input) {
  seq::Family fam;
  fam.domain = seq::Domain{6};
  for (std::size_t len = 0; len <= input.size(); ++len) {
    fam.members.emplace_back(input.begin(),
                             input.begin() + static_cast<std::ptrdiff_t>(len));
  }
  auto table = std::make_shared<const seq::Encoding>(
      seq::try_build_encoding(fam, 6).value());
  SystemSpec spec = knowledge;
  spec.protocols = [table] {
    return proto::ProtocolPair{
        std::make_unique<proto::EncodedSender>(table, /*retransmit=*/false),
        std::make_unique<proto::GreedyReceiver>(table, /*reack=*/false)};
  };
  return spec;
}

TEST(Rehydration, RefusedRestoreLeavesStateUnchanged_Property) {
  // ISender/IReceiver::restore_state validate before they mutate, so a
  // refused blob leaves the process exactly as it was (the engine then
  // counts a cold restart from the state start() made).  Every checkpoint
  // of three seeded runs per process, with each token replaced in turn by
  // a hostile value: restore the good blob, then the mutated one, and
  // when that is refused, save_state() must read as before it.
  const std::vector<std::int64_t> hostile = {
      -7, -1, 2, 3, 5, 9, 100, (std::int64_t{1} << 32) + 3};
  const auto check = [&](const std::string& name, SystemSpec spec,
                         const seq::Sequence& input) {
    std::set<std::string> blobs[2];  // sender, receiver
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      store::MemStore sstore, rstore;
      spec.engine.sender_store = &sstore;
      spec.engine.receiver_store = &rstore;
      spec.engine.compact_every = 0;  // keep every checkpoint in the log
      run_one(spec, input, seed);
      for (const std::string& p : sstore.replay().payloads) blobs[0].insert(p);
      for (const std::string& p : rstore.replay().payloads) blobs[1].insert(p);
    }
    proto::ProtocolPair pair = spec.protocols();
    const auto restart = [&](bool sender) {
      if (sender) {
        pair.sender->start(input);
      } else {
        pair.receiver->start();
      }
    };
    const auto restore = [&](bool sender, const std::string& blob) {
      return sender ? pair.sender->restore_state(blob)
                    : pair.receiver->restore_state(blob, {});
    };
    const auto save = [&](bool sender) {
      return sender ? pair.sender->save_state() : pair.receiver->save_state();
    };
    for (const bool sender : {true, false}) {
      const char* who = sender ? " sender" : " receiver";
      EXPECT_FALSE(blobs[sender ? 0 : 1].empty()) << name << who;
      std::size_t refused = 0;
      for (const std::string& good : blobs[sender ? 0 : 1]) {
        const std::vector<std::int64_t> tokens =
            util::blob_tokens(good).value();
        for (std::size_t i = 0; i < tokens.size(); ++i) {
          for (const std::int64_t v : hostile) {
            if (tokens[i] == v) continue;
            std::vector<std::int64_t> mutated = tokens;
            mutated[i] = v;
            const std::string bad = util::blob_join(mutated);
            restart(sender);
            ASSERT_TRUE(restore(sender, good)) << name << who << " [" << good
                                               << "]";
            const std::string before = save(sender);
            if (restore(sender, bad)) continue;
            ++refused;
            ASSERT_EQ(save(sender), before)
                << name << who << " refused [" << bad << "] after [" << good
                << "]";
          }
        }
      }
      EXPECT_GT(refused, 0u) << name << who;
    }
  };
  const auto recovery = default_recovery_cases();
  for (const RecoveryCase& c : recovery) check(c.name, c.spec, c.input);
  for (const StabilizationCase& c : default_stabilization_cases()) {
    if (c.name == "hardened") check(c.name, c.spec, c.input);
  }
  const auto knowledge =
      std::find_if(recovery.begin(), recovery.end(), [](const auto& c) {
        return c.name == "encoded-knowledge";
      });
  ASSERT_NE(knowledge, recovery.end());
  check("encoded-greedy",
        encoded_greedy_spec(knowledge->spec, knowledge->input),
        knowledge->input);
}

// ---------------------------------------------------------- observability --

TEST(RecoveryObs, MetricsFlowOnRehydratedRestart) {
  auto spec = stenning_spec(6);
  store::MemStore sstore, rstore;
  spec.engine.sender_store = &sstore;
  spec.engine.receiver_store = &rstore;
  obs::MetricsRegistry reg;
  obs::MetricsProbe probe(&reg);
  spec.engine.probe = &probe;
  const auto plan = fault::plan_from_text("crash-receiver @writes 2\n");
  const auto r = run_one(with_chaos(spec, plan), iota(6), 11);
  ASSERT_EQ(r.verdict, sim::RunVerdict::kCompleted);

  EXPECT_EQ(reg.counter_value("crashes.receiver"), 1u);
  EXPECT_EQ(reg.counter_value("recoveries"), 1u);
  EXPECT_EQ(reg.counter_value("recoveries.cold"), 0u);
  EXPECT_GE(reg.counter_value("records_replayed"), 1u);
  // The restart->next-write latency histogram saw exactly that recovery.
  const auto& lat = reg.histograms().at("recovery.latency");
  EXPECT_EQ(lat.count(), 1u);
}

TEST(RecoveryObs, ColdRestartCountsAsCold) {
  auto spec = stenning_spec(6);  // no stores attached
  spec.engine.stall_window = 3000;
  obs::MetricsRegistry reg;
  obs::MetricsProbe probe(&reg);
  spec.engine.probe = &probe;
  const auto plan = fault::plan_from_text("crash-receiver @writes 2\n");
  const auto r = run_one(with_chaos(spec, plan), iota(6), 11);
  EXPECT_EQ(r.verdict, sim::RunVerdict::kStalled);  // amnesia stall, as ever

  EXPECT_EQ(reg.counter_value("recoveries"), 0u);
  EXPECT_EQ(reg.counter_value("recoveries.cold"), 1u);
  EXPECT_EQ(reg.counter_value("records_replayed"), 0u);
}

/// Records crash/restart event pairs for the probe-contract test.
struct RestartRecorder final : obs::IProbe {
  struct Crash {
    std::uint64_t step;
    sim::Proc who;
  };
  struct Restart {
    std::uint64_t step;
    sim::Proc who;
    bool rehydrated;
    std::uint64_t records_replayed;
  };
  std::vector<Crash> crashes;
  std::vector<Restart> restarts;

  void record(const obs::TraceEvent& ev) override {
    const auto who = static_cast<sim::Proc>(ev.detail);
    if (ev.kind == obs::TraceEventKind::kCrash) {
      crashes.push_back({ev.ts_us, who});
    } else if (ev.kind == obs::TraceEventKind::kRestart) {
      restarts.push_back({ev.ts_us, who, ev.aux != 0,
                          static_cast<std::uint64_t>(ev.msg)});
    }
  }
};

TEST(RecoveryObs, RestartEventPairsWithCrashAndFlagsRehydration) {
  const auto plan = fault::plan_from_text("crash-receiver @writes 2\n");

  // With a store: the restart is flagged as a rehydration.
  auto spec = stenning_spec(6);
  store::MemStore sstore, rstore;
  spec.engine.sender_store = &sstore;
  spec.engine.receiver_store = &rstore;
  RestartRecorder warm;
  spec.engine.probe = &warm;
  ASSERT_EQ(run_one(with_chaos(spec, plan), iota(6), 11).verdict,
            sim::RunVerdict::kCompleted);
  ASSERT_EQ(warm.crashes.size(), 1u);
  ASSERT_EQ(warm.restarts.size(), 1u);
  EXPECT_EQ(warm.restarts[0].step, warm.crashes[0].step);
  EXPECT_EQ(warm.restarts[0].who, sim::Proc::kReceiver);
  EXPECT_TRUE(warm.restarts[0].rehydrated);
  EXPECT_GE(warm.restarts[0].records_replayed, 1u);

  // Without one: same pairing, but the restart is a cold start.
  auto bare = stenning_spec(6);
  bare.engine.stall_window = 3000;
  RestartRecorder cold;
  bare.engine.probe = &cold;
  run_one(with_chaos(bare, plan), iota(6), 11);
  ASSERT_EQ(cold.restarts.size(), 1u);
  EXPECT_FALSE(cold.restarts[0].rehydrated);
  EXPECT_EQ(cold.restarts[0].records_replayed, 0u);
}

// ------------------------------------------------------------ conformance --

TEST(Conformance, RecoveryPlanShape) {
  const auto plan =
      recovery_plan(fault::FaultKind::kLoseTail, sim::Proc::kReceiver,
                    /*biting=*/true);
  ASSERT_EQ(plan.actions.size(), 2u);
  EXPECT_EQ(plan.actions[0].kind, fault::FaultKind::kLoseTail);
  EXPECT_EQ(plan.actions[0].proc, sim::Proc::kReceiver);
  EXPECT_EQ(plan.actions[1].kind, fault::FaultKind::kCrashReceiver);
  // Only storage-fault kinds are accepted.
  EXPECT_THROW(
      recovery_plan(fault::FaultKind::kDropBurst, sim::Proc::kSender, true),
      ContractError);
}

TEST(Conformance, EveryProtocolSurvivesEveryStorageFault) {
  // The headline acceptance test: the full matrix — every protocol in the
  // suite x all four storage-fault kinds x crash of either process — must
  // complete with at least one real crash and one rehydrated recovery.
  const auto cases = default_recovery_cases();
  const RecoveryReport report = recovery_sweep(cases, 2026);
  EXPECT_EQ(report.trials.size(), cases.size() * 4 * 2);
  for (const auto& t : report.trials)
    if (!t.detail.empty()) ADD_FAILURE() << t.detail;
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.completed, report.trials.size());
}

/// A deliberately broken recovery path: claims restore_state succeeded but
/// restores nothing.  The conformance machinery must catch the lie as a
/// recovery-specific verdict, not a plain safety violation.
class AmnesiacRestoreReceiver final : public sim::IReceiver {
 public:
  explicit AmnesiacRestoreReceiver(std::unique_ptr<sim::IReceiver> inner)
      : inner_(std::move(inner)) {}

  void start() override { inner_->start(); }
  sim::ReceiverEffect on_step() override { return inner_->on_step(); }
  void on_deliver(sim::MsgId msg) override { inner_->on_deliver(msg); }
  int alphabet_size() const override { return inner_->alphabet_size(); }
  std::string save_state() const override { return inner_->save_state(); }
  bool restore_state(const std::string&, const seq::Sequence&) override {
    return true;  // the lie: "restored" with the inner state still blank
  }
  std::unique_ptr<sim::IReceiver> clone() const override {
    return std::make_unique<AmnesiacRestoreReceiver>(inner_->clone());
  }
  std::string name() const override {
    return "amnesiac-restore(" + inner_->name() + ")";
  }

 private:
  std::unique_ptr<sim::IReceiver> inner_;
};

TEST(Conformance, BrokenRestoreIsCaughtAsRecoveryViolation) {
  auto spec = repfree_del_spec(6);
  spec.protocols = [] {
    proto::ProtocolPair pair = proto::make_repfree_del(6);
    pair.receiver =
        std::make_unique<AmnesiacRestoreReceiver>(std::move(pair.receiver));
    return pair;
  };
  store::MemStore sstore, rstore;
  spec.engine.sender_store = &sstore;
  spec.engine.receiver_store = &rstore;
  const auto plan = fault::plan_from_text(
      "dup @step 1 dir SR count 6 match *\n"
      "crash-receiver @writes 2\n");
  const auto r = run_one(with_chaos(spec, plan), iota(6), 1);
  EXPECT_EQ(r.verdict, sim::RunVerdict::kRecoveryViolation);
  EXPECT_FALSE(r.safety_ok);
  EXPECT_EQ(r.stats.recoveries, 1u);  // the engine believed the restore
}

// ----------------------------------------------------------------- hazard --
// The two (process, protocol) combinations declared rewind-unsafe in
// default_recovery_cases() get superseded fault placement there; these tests
// pin down what a *biting* rewind actually does to them, so the exclusions
// stay honest.

bool post_crash_failure(sim::RunVerdict v) {
  return v == sim::RunVerdict::kRecoveryViolation ||
         v == sim::RunVerdict::kStalled;
}

TEST(Hazard, RepFreeDelSenderCannotTolerateARewoundCheckpoint) {
  // A lose-tail that bites the sender's newest record rewinds next_ by one;
  // the re-sent item is one the receiver has already seen and (in del mode)
  // silently eats, so no ack ever names it: the W = a+1 stall.
  auto spec = repfree_del_spec(6);
  store::MemStore sstore, rstore;
  spec.engine.sender_store = &sstore;
  spec.engine.receiver_store = &rstore;
  const auto plan = recovery_plan(fault::FaultKind::kLoseTail,
                                  sim::Proc::kSender, /*biting=*/true);
  const auto r = run_one(with_chaos(spec, plan), iota(6), 1);
  EXPECT_TRUE(post_crash_failure(r.verdict))
      << sim::to_cstr(r.verdict) << " after " << r.stats.steps << " steps";
  EXPECT_GE(r.stats.recoveries, 1u);
}

TEST(Hazard, AbpSenderRewindAliasesHeaderBits) {
  // A rewound ABP sender re-sends an item whose alternating bit the
  // receiver has already cycled past; on a FIFO channel the re-sent copy
  // arrives *behind* newer traffic carrying the bit the receiver now
  // expects — and is accepted as the next item.  The same aliasing breaks
  // every bounded-header sender (modk, block, hybrid), which is why they
  // are declared sender-rewind-unsafe in default_recovery_cases().
  SystemSpec spec;
  spec.protocols = [] { return proto::make_abp(6); };
  spec.channel = [](std::uint64_t seed) {
    return std::make_unique<channel::FifoChannel>(0.2, 0.1, seed);
  };
  spec.scheduler = [](std::uint64_t seed) {
    return std::make_unique<channel::FairRandomScheduler>(seed);
  };
  spec.engine.max_steps = 300000;
  spec.engine.stall_window = 4000;
  store::MemStore sstore, rstore;
  spec.engine.sender_store = &sstore;
  spec.engine.receiver_store = &rstore;
  const auto plan = recovery_plan(fault::FaultKind::kLoseTail,
                                  sim::Proc::kSender, /*biting=*/true);
  const auto r = run_one(with_chaos(spec, plan), iota(6), 2026);
  EXPECT_TRUE(post_crash_failure(r.verdict))
      << sim::to_cstr(r.verdict) << " after " << r.stats.steps << " steps";
  EXPECT_GE(r.stats.recoveries, 1u);
}

TEST(Hazard, SyncStopWaitSenderCannotTolerateARewoundCheckpoint) {
  // No headers means no dedup anywhere: a sender whose checkpoint rewinds
  // re-sends an item the receiver has already written, and the receiver —
  // whose whole correctness argument is "every arrival is the next item" —
  // writes it again.  (The receiver side is mostly healed by tape
  // reconciliation; only buffered-but-unwritten items are at risk there.)
  SystemSpec spec;
  spec.protocols = [] { return proto::make_sync_stop_wait(6); };
  spec.channel = [](std::uint64_t seed) {
    return std::make_unique<channel::SyncLossChannel>(0.0, seed);
  };
  spec.scheduler = [](std::uint64_t seed) {
    return std::make_unique<channel::FairRandomScheduler>(seed);
  };
  spec.engine.max_steps = 100000;
  spec.engine.stall_window = 4000;
  store::MemStore sstore, rstore;
  spec.engine.sender_store = &sstore;
  spec.engine.receiver_store = &rstore;
  const auto plan = recovery_plan(fault::FaultKind::kLoseTail,
                                  sim::Proc::kSender, /*biting=*/true);
  const auto r = run_one(with_chaos(spec, plan), iota(6), 3);
  EXPECT_TRUE(post_crash_failure(r.verdict))
      << sim::to_cstr(r.verdict) << " after " << r.stats.steps << " steps";
  EXPECT_GE(r.stats.recoveries, 1u);
}

}  // namespace
}  // namespace stpx::stp

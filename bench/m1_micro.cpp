// M1 — microbenchmarks of the substrate itself (google-benchmark).
//
// Not a paper result; these keep the simulator honest as an artifact: step
// rate of the kernel (bare, and shaped like perfbench's sim_soak), channel
// op costs, protocol step costs, ranking, the throughput of the two
// analysis engines (exploration, mirror attack), the
// cost of building and reading one session checkpoint record, a
// restart's scan of a whole session log phase by phase (replay, fold,
// restore) and one group commit into a FileStore (full records against
// delta records), the transport layer
// (one send+poll, and one round trip through two wait+poll hops, sleeping
// against waking), and one flight-recorder record.
#include <benchmark/benchmark.h>

#include <stdlib.h>

#include <chrono>
#include <filesystem>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "channel/del_channel.hpp"
#include "channel/dup_channel.hpp"
#include "channel/schedulers.hpp"
#include "common.hpp"
#include "fabric/router.hpp"
#include "fault/chaos_channel.hpp"
#include "knowledge/explorer.hpp"
#include "net/flight_recorder.hpp"
#include "net/frame.hpp"
#include "net/loopback.hpp"
#include "net/udp.hpp"
#include "proto/session_adapter.hpp"
#include "proto/suite.hpp"
#include "seq/repetition_free.hpp"
#include "sim/engine.hpp"
#include "spec/temporal.hpp"
#include "stp/attack.hpp"
#include "stp/soak.hpp"
#include "store/session_log.hpp"
#include "store/stable_store.hpp"

namespace {

using namespace stpx;
using namespace stpx::bench;

void BM_EngineStepRoundRobin(benchmark::State& state) {
  const int m = 16;
  proto::ProtocolPair pair = proto::make_repfree_del(m);
  sim::EngineConfig cfg;
  cfg.max_steps = ~std::uint64_t{0};
  cfg.stop_when_complete = false;
  sim::Engine engine(std::move(pair.sender), std::move(pair.receiver),
                     std::make_unique<channel::DelChannel>(),
                     std::make_unique<channel::RoundRobinScheduler>(), cfg);
  engine.begin(iota_sequence(m));
  for (auto _ : state) {
    engine.step_once();
    if (engine.completed()) {
      state.PauseTiming();
      engine.begin(iota_sequence(m));
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineStepRoundRobin);

/// One engine step shaped like perfbench's sim_soak: a sampled channel-level
/// fault plan over the reorder+delete channel, the fair scheduler, and
/// Stenning (repfree:0) or repfree-del (repfree:1) carrying 8 items over 12
/// symbols.  The trial restarts when it completes, outside the timing.
void BM_EngineStepChaosSoak(benchmark::State& state) {
  const int m = 12;
  const std::uint64_t seed = 1;
  const seq::Sequence x{3, 7, 0, 11, 5, 1, 9, 4};
  proto::ProtocolPair pair = state.range(0) == 1 ? proto::make_repfree_del(m)
                                                 : proto::make_stenning(m);
  sim::EngineConfig cfg;
  cfg.max_steps = ~std::uint64_t{0};
  cfg.stop_when_complete = false;
  sim::Engine engine(
      std::move(pair.sender), std::move(pair.receiver),
      std::make_unique<fault::ChaosChannel>(
          std::make_unique<channel::DelChannel>(0.0, seed),
          stp::plan_for_trial(seed, fault::SamplerConfig{})),
      std::make_unique<channel::FairRandomScheduler>(seed), cfg);
  engine.begin(x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step_once());
    if (engine.completed()) {
      state.PauseTiming();
      engine.begin(x);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineStepChaosSoak)->ArgName("repfree")->Arg(0)->Arg(1);

void BM_FullRunRepFreeDel(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const seq::Sequence x = iota_sequence(m);
  const auto spec = repfree_del_spec(m, 0.2);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto r = stp::run_one(spec, x, seed++);
    benchmark::DoNotOptimize(r.stats.steps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * m);
}
BENCHMARK(BM_FullRunRepFreeDel)->Arg(8)->Arg(32)->Arg(128);

void BM_DupChannelSendDeliver(benchmark::State& state) {
  channel::DupChannel ch;
  sim::MsgId next = 0;
  for (auto _ : state) {
    ch.send(sim::Dir::kSenderToReceiver, next % 64);
    ch.deliver(sim::Dir::kSenderToReceiver, next % 64);
    ++next;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DupChannelSendDeliver);

void BM_DelChannelSendDeliver(benchmark::State& state) {
  channel::DelChannel ch;
  sim::MsgId next = 0;
  for (auto _ : state) {
    ch.send(sim::Dir::kSenderToReceiver, next % 64);
    ch.deliver(sim::Dir::kSenderToReceiver, next % 64);
    ++next;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DelChannelSendDeliver);

void BM_RankUnrankRoundTrip(benchmark::State& state) {
  const int m = 12;
  std::uint64_t rank = 0;
  const std::uint64_t total = *seq::alpha_u64(m);
  for (auto _ : state) {
    const seq::Sequence x = seq::unrank_repetition_free(rank % total, m);
    benchmark::DoNotOptimize(seq::rank_repetition_free(x, m));
    rank += 997;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RankUnrankRoundTrip);

void BM_KnowledgeExploration(benchmark::State& state) {
  const int m = 2;
  const auto spec = repfree_dup_spec(m);
  const auto family = seq::canonical_repetition_free(m);
  for (auto _ : state) {
    const auto ex = knowledge::explore(
        spec, family,
        {.max_depth = static_cast<std::uint64_t>(state.range(0)),
         .max_points = 1000000});
    benchmark::DoNotOptimize(ex.points.size());
    state.counters["points"] = static_cast<double>(ex.points.size());
  }
}
BENCHMARK(BM_KnowledgeExploration)->Arg(4)->Arg(6)->Arg(8);

void BM_TargetedLearnTimes(benchmark::State& state) {
  const int m = 2;
  auto spec = repfree_dup_spec(m);
  spec.engine.record_trace = true;
  spec.engine.record_histories = true;
  const seq::Sequence x{1, 0};
  const sim::RunResult run = stp::run_one(spec, x, 3);
  const auto family = seq::canonical_repetition_free(m);
  for (auto _ : state) {
    const auto times = knowledge::learn_times_targeted(
        spec, family, run, run.stats.steps * 3 + 50, 50000);
    benchmark::DoNotOptimize(times.size());
  }
}
BENCHMARK(BM_TargetedLearnTimes);

void BM_BlockProtocolRun(benchmark::State& state) {
  stp::SystemSpec spec;
  spec.protocols = [] { return proto::make_block(4, 4, 64); };
  spec.channel = [](std::uint64_t seed) {
    return std::make_unique<channel::FifoChannel>(0.1, 0.0, seed);
  };
  spec.scheduler = [](std::uint64_t seed) {
    return std::make_unique<channel::FairRandomScheduler>(seed);
  };
  spec.engine.max_steps = 200000;
  seq::Sequence x(64);
  for (int i = 0; i < 64; ++i) x[static_cast<std::size_t>(i)] = i % 4;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto r = stp::run_one(spec, x, seed++);
    benchmark::DoNotOptimize(r.completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_BlockProtocolRun);

void BM_TemporalSafetyCheck(benchmark::State& state) {
  auto spec = repfree_del_spec(8, 0.2);
  spec.engine.record_trace = true;
  const sim::RunResult run = stp::run_one(spec, iota_sequence(8), 5);
  const auto snaps = spec::snapshots_of(run);
  const auto formula = spec::prefix_safety();
  for (auto _ : state) {
    benchmark::DoNotOptimize(formula.check(snaps).holds);
  }
  state.counters["snapshots"] = static_cast<double>(snaps.size());
}
BENCHMARK(BM_TemporalSafetyCheck);

void BM_ExhaustiveDeadlockScan(benchmark::State& state) {
  const auto spec = repfree_dup_spec(2);
  const auto family = seq::canonical_repetition_free(2);
  for (auto _ : state) {
    const auto verdict = knowledge::exhaustive_deadlock(
        spec, family, {.max_depth = 5, .max_points = 50000});
    benchmark::DoNotOptimize(verdict.points_checked);
  }
}
BENCHMARK(BM_ExhaustiveDeadlockScan);

void BM_MirrorAttack(benchmark::State& state) {
  const int m = 2;
  const auto table = overfull_table(m);
  const auto spec = encoded_spec(table, /*knowledge=*/true, /*del=*/false);
  const seq::Family family{seq::Domain{m}, table->inputs};
  for (auto _ : state) {
    const auto r = stp::find_attack(spec, family,
                                    {.skeleton_steps = 50000,
                                     .mirror_rounds = 500,
                                     .stall_rounds = 16});
    benchmark::DoNotOptimize(r.kind);
  }
}
BENCHMARK(BM_MirrorAttack);

// Session checkpoints at tape lengths 0, 128 and 1024: a record's cost
// should grow only with the bytes it copies.

/// A Stenning receiver endpoint that has written `len` items.
std::unique_ptr<proto::ReceiverSessionEndpoint> receiver_at(std::size_t len) {
  const int domain = 8;
  seq::Sequence x(len);
  for (std::size_t i = 0; i < len; ++i) {
    x[i] = static_cast<seq::DataItem>(i % domain);
  }
  auto ep = std::make_unique<proto::ReceiverSessionEndpoint>(
      proto::make_stenning(domain).receiver, x);
  for (std::size_t i = 0; i < len; ++i) {
    ep->on_deliver(static_cast<sim::MsgId>(i) * domain + x[i]);
    (void)ep->step();
  }
  return ep;
}

store::SessionManifest manifest_at(std::size_t len) {
  const auto ep = receiver_at(len);
  store::SessionManifest m;
  m.session = 4242;
  m.epoch = 2;
  m.seq = 123456;
  m.proto_tag = store::proto_tag_of(ep->name());
  m.position = ep->items_done();
  m.endpoint_state = ep->save_state();
  return m;
}

void BM_ManifestToPayload(benchmark::State& state) {
  const auto m = manifest_at(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const std::string payload = m.to_payload();
    benchmark::DoNotOptimize(payload.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.to_payload().size()));
}
BENCHMARK(BM_ManifestToPayload)->Arg(0)->Arg(128)->Arg(1024);

void BM_ManifestFromPayload(benchmark::State& state) {
  const std::string payload =
      manifest_at(static_cast<std::size_t>(state.range(0))).to_payload();
  for (auto _ : state) {
    const auto m = store::SessionManifest::from_payload(payload);
    benchmark::DoNotOptimize(m->endpoint_state.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_ManifestFromPayload)->Arg(0)->Arg(128)->Arg(1024);

void BM_ReceiverSaveState(benchmark::State& state) {
  const auto ep = receiver_at(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const std::string blob = ep->save_state();
    benchmark::DoNotOptimize(blob.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ep->save_state().size()));
}
BENCHMARK(BM_ReceiverSaveState)->Arg(0)->Arg(128)->Arg(1024);

// A session log as a restart finds it: 64 Stenning receivers killed
// mid-stream with 128-227 records each (mux_restart's log at the kill),
// one record per item, appended round robin as group commits interleave
// them.  delta:0 writes every record full; delta:1 writes what a durable
// mux writes, full records up to position 1 and deltas after them.

constexpr std::uint32_t kLogSessions = 64;
constexpr int kLogDomain = 8;

seq::Sequence log_sequence(std::uint32_t id) {
  seq::Sequence x(256);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<seq::DataItem>((id + i) % kLogDomain);
  }
  return x;
}

/// Records session `id` wrote before the kill.
std::size_t log_records(std::uint32_t id) { return 128 + (id * 37) % 100; }

std::vector<std::string> session_log(bool delta) {
  std::vector<std::unique_ptr<proto::ReceiverSessionEndpoint>> eps;
  std::size_t rounds = 0;
  for (std::uint32_t id = 0; id < kLogSessions; ++id) {
    eps.push_back(std::make_unique<proto::ReceiverSessionEndpoint>(
        proto::make_stenning(kLogDomain).receiver, log_sequence(id)));
    rounds = std::max(rounds, log_records(id));
  }
  std::vector<std::uint64_t> last(kLogSessions, 0);  // previous record's end
  std::vector<std::string> log;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::uint32_t id = 0; id < kLogSessions; ++id) {
      if (r >= log_records(id)) continue;
      proto::ReceiverSessionEndpoint& ep = *eps[id];
      if (r > 0) {
        ep.on_deliver(static_cast<sim::MsgId>(r - 1) * kLogDomain +
                      ep.expected()[r - 1]);
        (void)ep.step();
      }
      store::SessionManifest m;
      m.session = id;
      m.epoch = 1;
      m.seq = log.size() + 1;
      m.proto_tag = store::proto_tag_of(ep.name());
      m.position = ep.items_done();
      m.base = delta ? last[id] : 0;
      m.endpoint_state = ep.save_state(m.base);
      last[id] = m.position;
      log.push_back(m.to_payload());
    }
  }
  return log;
}

double bytes_per_record(const std::vector<std::string>& payloads) {
  double bytes = 0;
  for (const std::string& p : payloads) bytes += static_cast<double>(p.size());
  return bytes / static_cast<double>(payloads.size());
}

/// Rehydrate's storage half, one phase at a time: `replay` is
/// MemStore::replay(), `scan` is scan_session_logs() (the replay and the
/// fold into chains), `restore` is restore_state() of every session's
/// chain into a fresh receiver.  Each phase's input (the store, the scan,
/// the fresh receivers) is built outside the timed region, so scan +
/// restore is what a restart spends before its first frame.
enum class ScanPhase { kReplay, kScan, kRestore };

void BM_SessionLogScan(benchmark::State& state, ScanPhase phase) {
  using Receivers =
      std::vector<std::unique_ptr<proto::ReceiverSessionEndpoint>>;
  const std::vector<std::string> log = session_log(state.range(0) == 1);
  store::MemStore st;
  st.reset();
  st.append_batch(log);
  const store::SessionLogScan scan = store::scan_session_logs({&st});
  const auto fresh_receivers = [&scan] {
    Receivers eps;
    eps.reserve(scan.newest.size());
    for (const auto& [id, m] : scan.newest) {
      eps.push_back(std::make_unique<proto::ReceiverSessionEndpoint>(
          proto::make_stenning(kLogDomain).receiver, log_sequence(id)));
    }
    return eps;
  };
  const auto restore_all = [&scan](const Receivers& eps) {
    std::size_t items = 0;
    auto ep = eps.begin();
    for (const auto& [id, m] : scan.newest) {
      if ((*ep)->restore_state(m.endpoint_state)) items += (*ep)->items_done();
      ++ep;
    }
    return items;
  };
  std::size_t want = 0;
  for (std::uint32_t id = 0; id < kLogSessions; ++id) {
    want += log_records(id) - 1;
  }
  if (restore_all(fresh_receivers()) != want) {
    state.SkipWithError("the log did not restore every tape");
    return;
  }
  double ns = 0;
  for (auto _ : state) {
    Receivers eps;
    if (phase == ScanPhase::kRestore) eps = fresh_receivers();
    const auto t0 = std::chrono::steady_clock::now();
    switch (phase) {
      case ScanPhase::kReplay:
        benchmark::DoNotOptimize(st.replay().payloads.size());
        break;
      case ScanPhase::kScan:
        benchmark::DoNotOptimize(store::scan_session_logs({&st}).newest.size());
        break;
      case ScanPhase::kRestore:
        benchmark::DoNotOptimize(restore_all(eps));
        break;
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    state.SetIterationTime(dt.count());
    ns += dt.count() * 1e9;
  }
  state.counters["ns_per_record"] =
      ns / static_cast<double>(state.iterations() * log.size());
  state.counters["bytes_per_record"] = bytes_per_record(log);
}
BENCHMARK_CAPTURE(BM_SessionLogScan, replay, ScanPhase::kReplay)
    ->ArgName("delta")
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SessionLogScan, scan, ScanPhase::kScan)
    ->ArgName("delta")
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SessionLogScan, restore, ScanPhase::kRestore)
    ->ArgName("delta")
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// One shard's group commit: 12 records (mux_restart averages 11.6 per
/// batch), taken from the middle of the log above, into a FileStore in a
/// fresh temp directory.  The log is reset every 4096 batches.
void BM_FileStoreAppendBatch(benchmark::State& state) {
  const std::vector<std::string> log = session_log(state.range(0) == 1);
  const std::vector<std::string> batch(log.begin() + log.size() / 2,
                                       log.begin() + log.size() / 2 + 12);
  char tmpl[] = "/tmp/m1_filestore_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  {
    store::FileStore fs(tmpl);
    fs.reset();
    std::size_t batches = 0;
    for (auto _ : state) {
      fs.append_batch(batch);
      if (++batches % 4096 == 0) {
        state.PauseTiming();
        fs.reset();
        state.ResumeTiming();
      }
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(tmpl, ec);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
  state.counters["bytes_per_record"] = bytes_per_record(batch);
}
BENCHMARK(BM_FileStoreAppendBatch)->ArgName("delta")->Arg(0)->Arg(1);

// Transports.  The wake round trips ping-pong one frame between the
// timed thread and an echo thread; each side polls and, finding nothing,
// waits the mux pump's bound.  Arg wake:0 sleeps that bound (what a
// decorator that does not forward wait() gets), wake:1 waits on the
// transport, so the pair prices the pump's wakeup per hop.

/// The mux pump's wait bound (kPollBackoff in net/mux.cpp).
constexpr std::chrono::microseconds kPumpWait{50};

std::vector<std::uint8_t> wire_frame() {
  net::Frame f;
  f.kind = net::FrameKind::kData;
  f.session = 1;
  f.msg = 1;
  return net::encode(f);
}

void BM_LoopbackSendPoll(benchmark::State& state) {
  auto pair = net::make_loopback();
  const auto frame = wire_frame();
  for (auto _ : state) {
    pair.a->send(frame);
    auto got = pair.b->poll();
    benchmark::DoNotOptimize(got);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LoopbackSendPoll);

/// Forwards send() and poll() but not wait(), which therefore sleeps.
class Sleeping final : public net::ITransport {
 public:
  explicit Sleeping(net::ITransport* inner) : inner_(inner) {}
  bool send(const std::vector<std::uint8_t>& bytes) override {
    return inner_->send(bytes);
  }
  std::optional<std::vector<std::uint8_t>> poll() override {
    return inner_->poll();
  }
  std::string name() const override { return "sleeping+" + inner_->name(); }

 private:
  net::ITransport* inner_;
};

void wake_round_trips(benchmark::State& state, net::ITransport* a,
                      net::ITransport* b) {
  Sleeping sleep_a(a);
  Sleeping sleep_b(b);
  if (state.range(0) == 0) {
    a = &sleep_a;
    b = &sleep_b;
  }
  std::jthread echo([b](std::stop_token st) {
    while (!st.stop_requested()) {
      if (auto f = b->poll()) {
        b->send(*f);
      } else {
        b->wait(kPumpWait);
      }
    }
  });
  const auto frame = wire_frame();
  for (auto _ : state) {
    a->send(frame);
    auto resend_at = std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (!a->poll()) {
      a->wait(kPumpWait);
      // A lost datagram would stall the run; resend it like a sender.
      if (std::chrono::steady_clock::now() > resend_at) {
        a->send(frame);
        resend_at += std::chrono::seconds(1);
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_LoopbackWakeRoundTrip(benchmark::State& state) {
  auto pair = net::make_loopback();
  wake_round_trips(state, pair.a.get(), pair.b.get());
}
BENCHMARK(BM_LoopbackWakeRoundTrip)->ArgName("wake")->Arg(0)->Arg(1)
    ->UseRealTime();

void BM_UdpWakeRoundTrip(benchmark::State& state) {
  auto pair = net::make_udp_pair();
  if (!pair) {
    state.SkipWithError("environment forbids UDP sockets");
    return;
  }
  wake_round_trips(state, pair->a.get(), pair->b.get());
}
BENCHMARK(BM_UdpWakeRoundTrip)->ArgName("wake")->Arg(0)->Arg(1)
    ->UseRealTime();

// One router forward: a client data frame crossing a FabricRouter's pump
// onto its owner's backend link (decode, membership lookup, send).  Each
// iteration sends a batch on the client loopback and polls it off the
// backend loopback, so the pump runs busy; ns_per_frame is the wall time
// per frame.  The backend's probes are paused: nothing answers them here,
// and a death verdict would turn every forward into a drop.  The table and
// the router live on the heap: on this frame's stack beside the driver's
// locals, ns_per_frame moved by about 5 % with sizeof(FabricRouter), a
// layout effect rather than a forwarding cost.
constexpr std::size_t kForwardBatch = 256;

void BM_RouterForward(benchmark::State& state) {
  auto client = net::make_loopback();
  auto backend = net::make_loopback();
  auto membership = std::make_unique<fabric::MembershipTable>();
  membership->add_backend(1);
  membership->assign(1, 1);
  auto router = std::make_unique<fabric::FabricRouter>(client.b.get(),
                                                       membership.get());
  router->add_backend(1, backend.a.get());
  router->set_probes_paused(1, true);
  router->start();
  const auto frame = wire_frame();
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    for (std::size_t i = 0; i < kForwardBatch; ++i) client.a->send(frame);
    for (std::size_t got = 0; got < kForwardBatch;) {
      if (backend.b->poll()) ++got;
    }
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  router->stop();
  const auto frames = static_cast<double>(state.iterations() * kForwardBatch);
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
  state.counters["ns_per_frame"] = dt.count() * 1e9 / frames;
}
BENCHMARK(BM_RouterForward)->UseRealTime();

// One flight-recorder record, the wire's per-event observability cost.
// Each iteration starts `producers` fresh threads (so each binds a ring
// afresh, round-robin) that record kRecordsPerProducer item events into a
// new recorder with `rings` rings, sized so nothing is dropped: a drop
// skips the copy and would flatter the figure.  ns_per_event is each
// producer's wall time per record; rings:2/producers:4 shares each ring
// between two threads through its producer mutex.
constexpr std::size_t kRecordsPerProducer = 1 << 16;

void BM_FlightRecorderRecord(benchmark::State& state) {
  const auto rings = static_cast<std::size_t>(state.range(0));
  const auto producers = static_cast<std::size_t>(state.range(1));
  double seconds = 0;
  for (auto _ : state) {
    net::FlightRecorderConfig cfg;
    cfg.shards = rings;
    cfg.ring_capacity = kRecordsPerProducer * producers / rings;
    net::FlightRecorder rec(cfg);
    std::latch go(static_cast<std::ptrdiff_t>(producers) + 1);
    std::vector<std::jthread> threads;
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&rec, &go, p] {
        const obs::TraceEvent ev{.msg = 1,
                                 .session = static_cast<std::uint32_t>(p),
                                 .kind = obs::TraceEventKind::kItem};
        go.arrive_and_wait();
        for (std::size_t i = 0; i < kRecordsPerProducer; ++i) rec.record(ev);
      });
    }
    go.arrive_and_wait();
    const auto t0 = std::chrono::steady_clock::now();
    threads.clear();  // joins
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    state.SetIterationTime(dt.count());
    seconds += dt.count();
    if (rec.stats().dropped != 0) state.SkipWithError("a ring overflowed");
  }
  state.counters["ns_per_event"] =
      seconds * 1e9 /
      (static_cast<double>(state.iterations()) * kRecordsPerProducer);
}
BENCHMARK(BM_FlightRecorderRecord)
    ->ArgNames({"rings", "producers"})
    ->Args({1, 1})
    ->Args({2, 4})
    ->UseManualTime();

}  // namespace

// Fabric lab: watch the service fabric lose a backend and heal.
//
//   $ ./fabric_lab
//
// 18 Stenning sessions are sharded round-robin across 3 backend cells
// behind one FabricRouter.  Each cell journals its sessions to its own
// store and stamps its FlightRecorder with its backend id.  Ten
// milliseconds into the run, backend 2 is killed outright — no FIN, no
// flush.  Nothing tells the router; the heartbeat does:
//
//   probe silence -> strikes (timeout doubling per strike) -> death
//   verdict -> supervisor fences the corpse, picks the least-loaded
//   survivor, pauses its health probes, rehydrates the dead cell's log
//   INTO the survivor (handoff sources are scanned, never written), and
//   rewrites the membership table.  The client's retransmissions land on
//   the new owner and every session still completes an exact copy.
//
// The lab then prints what the supervisor recorded (who died, who
// absorbed, how fast) and closes the loop offline: the per-backend
// traces — including the dead backend's — are rebased by recorder epoch,
// merged into one stream, and the prefix attestor re-derives the
// acceptance verdict across the crash boundary from the trace alone.
//
// See docs/FABRIC.md for the design; tests/test_fabric.cpp pins the
// semantics shown here.
#include <chrono>
#include <iostream>
#include <memory>
#include <thread>

#include "analysis/table.hpp"
#include "analysis/trace_pipeline.hpp"
#include "fabric/fabric.hpp"
#include "net/flight_recorder.hpp"
#include "net/service.hpp"
#include "proto/suite.hpp"
#include "store/session_log.hpp"
#include "store/stable_store.hpp"

using namespace stpx;
using namespace std::chrono_literals;
using net::MuxCounter;

namespace {

constexpr int kDomain = 8;
constexpr std::size_t kBackends = 3;
constexpr std::size_t kSessions = 18;
constexpr std::size_t kSeqLen = 12;

seq::Sequence seq_for(std::uint32_t id) {
  seq::Sequence x;
  for (std::size_t i = 0; i < kSeqLen; ++i) {
    x.push_back(static_cast<seq::DataItem>((id + i) % kDomain));
  }
  return x;
}

}  // namespace

int main() {
  // --- build: one store + one recorder per backend ------------------------
  std::vector<std::unique_ptr<store::MemStore>> stores;
  std::vector<std::unique_ptr<net::FlightRecorder>> recorders;
  for (std::size_t i = 0; i < kBackends; ++i) {
    stores.push_back(std::make_unique<store::MemStore>());
    stores.back()->reset();
    net::FlightRecorderConfig rc;
    rc.backend_id = static_cast<std::uint32_t>(i + 1);
    recorders.push_back(std::make_unique<net::FlightRecorder>(rc));
  }

  fabric::FabricConfig fc;
  fc.backends = kBackends;
  // Aggressive heartbeat so the demo heals in milliseconds, not seconds.
  fc.health.probe_interval = 1ms;
  fc.health.probe_timeout = 5ms;
  fc.mux.workers = 2;
  fc.make_receiver = [](std::uint32_t, std::uint64_t tag)
      -> std::unique_ptr<sim::IReceiver> {
    if (tag != 0 && tag != store::proto_tag_of("stenning-receiver")) {
      return nullptr;
    }
    return proto::make_stenning(kDomain).receiver;
  };
  fc.expected_for = [](std::uint32_t sid) { return seq_for(sid); };
  fc.stores_for = [&stores](std::uint32_t id) {
    return std::vector<store::IStableStore*>{stores[id - 1].get()};
  };
  fc.probe_for = [&recorders](std::uint32_t id) -> obs::IProbe* {
    return recorders[id - 1].get();
  };
  fabric::Fabric fab(fc);

  net::MuxConfig ccfg = fc.mux;
  ccfg.probe = nullptr;
  net::StpClient client(fab.client_endpoint(), ccfg);
  for (std::uint32_t sid = 1; sid <= kSessions; ++sid) {
    fab.add_session(sid);
    client.add_session(sid, proto::make_stenning(kDomain, true).sender,
                       seq_for(sid));
  }

  std::cout << analysis::heading("fabric lab: kill a backend, watch it heal");
  std::cout << "\n" << kSessions << " sessions over " << kBackends
            << " backends; backend 2 dies once it has written a quarter of "
               "its items, with "
            << fab.membership().sessions_of(2).size()
            << " sessions on board\n";

  // --- fly ----------------------------------------------------------------
  // The kill rides on observed progress (backend 2's recorder), not on the
  // clock: an unloaded run finishes in milliseconds.  The waits are
  // bounded: a backend the router falsely suspects is fenced early and
  // stops writing.
  fab.start();
  client.mux().start();
  const std::uint64_t kill_at =
      fab.membership().sessions_of(2).size() * kSeqLen / 4;
  const auto wait_deadline = std::chrono::steady_clock::now() + 10s;
  while (recorders[1]->items() < kill_at &&
         std::chrono::steady_clock::now() < wait_deadline) {
    std::this_thread::sleep_for(50us);
  }
  if (recorders[1]->items() < kill_at) {
    std::cout << "backend 2 wrote only " << recorders[1]->items() << " of "
              << kill_at << " items in 10s; killing it anyway\n";
  }
  const std::size_t active_at_kill = fab.kill_backend(2);
  std::cout << "killed backend 2 with " << active_at_kill
            << " sessions still active\n";

  // Death rides on heartbeat silence, not traffic — wait for the
  // supervisor's verdict, then let the client drain against the healed
  // fleet.
  const auto verdict_deadline = std::chrono::steady_clock::now() + 10s;
  while (fab.rehomes().empty() &&
         std::chrono::steady_clock::now() < verdict_deadline) {
    std::this_thread::sleep_for(1ms);
  }
  if (fab.rehomes().empty()) {
    std::cout << "no re-home verdict within 10s of the kill\n";
  }
  const bool drained = client.mux().drain(60s) && fab.drain(60s);
  client.mux().stop();
  fab.stop();

  // --- what the supervisor saw --------------------------------------------
  analysis::Table t({"dead", "survivor", "moved", "rehydrated", "cold-added",
                     "absorb us", "ok"});
  for (const fabric::RehomeRecord& r : fab.rehomes()) {
    t.add_row({std::to_string(r.dead), std::to_string(r.survivor),
               std::to_string(r.moved.size()),
               std::to_string(r.absorb.rehydrate.sessions),
               std::to_string(r.absorb.cold_added.size()),
               std::to_string(r.absorb.latency_us),
               r.ok ? "yes" : "NO"});
  }
  std::cout << "\nre-home ledger:\n" << t.to_ascii();
  std::cout << "\nmembership after healing:";
  for (const std::uint32_t b : fab.membership().backends()) {
    std::cout << "  b" << b << "=" << to_cstr(fab.membership().health(b))
              << " (" << fab.membership().sessions_of(b).size()
              << " sessions)";
  }
  const auto completed = client.mux().stats()[MuxCounter::kSessionsCompleted];
  std::cout << "\nclient: " << completed << "/" << kSessions
            << " sessions completed, drain "
            << (drained ? "clean" : "TIMED OUT") << "\n";

  // --- close the loop offline ---------------------------------------------
  // Merge all three recorders — the dead backend's events up to the kill
  // plus the survivor's across the re-home — and re-derive the verdict.
  std::vector<fabric::TracePart> parts;
  for (auto& rec : recorders) {
    parts.push_back({rec->epoch_offset_us(), rec->drain()});
  }
  analysis::TraceContext ctx;
  for (std::uint32_t sid = 1; sid <= kSessions; ++sid) {
    ctx.expected_items[sid] = kSeqLen;
  }
  analysis::TracePipeline pipe;
  pipe.add(analysis::make_prefix_attestor())
      .add(analysis::make_rehydration_analyzer());
  const auto report = pipe.run(fabric::merge_backend_traces(parts), ctx);
  std::cout << "\nmerged-trace attestation (offline, across the crash):\n"
            << "  prefix.sessions  = " << report.value("prefix.sessions")
            << "\n  prefix.completed = " << report.value("prefix.completed")
            << "\n  verdict          = " << (report.ok ? "ok" : "VIOLATED")
            << "\n";

  const bool ok = drained && completed == kSessions && report.ok &&
                  !fab.rehomes().empty();
  std::cout << "\n"
            << (ok ? "the fabric healed: exact copy everywhere, attested "
                     "live and offline"
                   : "something did not heal — see above")
            << "\n";
  return ok ? 0 : 1;
}

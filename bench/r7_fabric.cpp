// R7 (service fabric) — crash re-homing must preserve exact-copy
// delivery, the restore path must be fast and attestable offline, and
// (resilience v2) a dead backend must be able to COME BACK: rejoin under
// a new generation, pass probation, and reclaim its sessions.
//
// Four phases:
//
//   1. In-process acceptance: 256 sessions sharded over 3 backend cells,
//      one backend kill -9'd (mux killed mid-flight) by a scripted
//      fault plan, then rejoined after the strike ladder condemns it —
//      the full crash -> rejoin -> reclaim cycle across three
//      generations of ownership.  Every client session must complete,
//      the merged per-backend trace must re-derive per-session prefix
//      safety across the re-home AND the reclaim, and the trace verdict
//      must MATCH the live one.
//
//   2. Restore-latency distribution: seeded crash trials; each re-home's
//      fence -> rehydrate -> serving latency is collected and reported
//      as p50/p90/max.  A second, resilience sweep runs
//      sample_resilience_plan seeds (crash -> rejoin spines under
//      partition windows) and reports reclaim latency the same way; a
//      failing seed is shrunk to a 1-minimal plan and written — with the
//      merged trace — as replayable CI artifacts
//      (FABRIC_failure_plan.txt / FABRIC_failure_trace.jsonl).
//
//   3. Process harness: the same topology over real processes — this
//      binary fork/execs itself as 3 backend processes (--backend mode),
//      each handshaking with the parent's router over a UDP rendezvous
//      (the loss-hardened retry dialer), running one fabric::BackendCell
//      that starts through the same absorb() as the in-process cells,
//      journaling its sessions to a FileStore and its FlightRecorder
//      trace to JSONL (flushed every ~25 ms).  The parent SIGKILLs one
//      backend mid-run, waits for the heartbeat strike ladder to declare
//      it dead, re-execs the survivor with BOTH log directories
//      (--absorb-logs), swaps the router link, and re-homes the dead
//      sessions.  Then the cycle closes over real UDP: the victim
//      re-execs with --join, announces kJoin on the reserved fabric
//      session (fabric::announce_join), starts serving only after the
//      router's kJoinAck, and reclaims its share
//      from the survivor's flushed logs while the survivor re-execs
//      restricted to its own share (--restrict) — the release half of
//      the handoff.  Acceptance is the same: all sessions complete and
//      the traces merged across SIX process generations (rebased by each
//      recorder's CLOCK_MONOTONIC epoch) attest every session.  Where
//      the sandbox forbids sockets or fork, this phase degrades to
//      "skipped" without failing the bench — phases 1-2 already cover
//      the logic in-process.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/table.hpp"
#include "analysis/trace_pipeline.hpp"
#include "common.hpp"
#include "fabric/fabric.hpp"
#include "net/flight_recorder.hpp"
#include "net/loopback.hpp"
#include "net/service.hpp"
#include "net/udp.hpp"
#include "store/session_log.hpp"
#include "store/stable_store.hpp"
#include "stp/fabric_soak.hpp"
#include "util/sanitized.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define R7_HAVE_PROCESS 1
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace {

using namespace stpx;
using namespace stpx::bench;
using namespace std::chrono_literals;
using net::MuxCounter;

constexpr int kDomain = 8;
constexpr std::size_t kBackends = 3;

// The 256-session acceptance width is an uninstrumented-build claim;
// instrumented builds run the same crash/re-home shape at reduced width
// (reported via the acceptance_sessions param so the JSON says which
// claim was measured).
constexpr std::size_t kAcceptanceSessions = kSanitized ? 48 : 256;

seq::Sequence seq_for(std::uint32_t id, std::size_t len) {
  seq::Sequence x;
  x.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    x.push_back(static_cast<seq::DataItem>((id + i) % kDomain));
  }
  return x;
}

net::StpServer::ReceiverFactory stenning_factory() {
  return [](std::uint32_t, std::uint64_t tag)
             -> std::unique_ptr<sim::IReceiver> {
    if (tag != 0 && tag != store::proto_tag_of("stenning-receiver")) {
      return nullptr;
    }
    return proto::make_stenning(kDomain).receiver;
  };
}

/// Round-robin shard, identical in parent and children.
std::uint32_t owner_of(std::uint32_t sid, std::size_t backends) {
  return (sid - 1) % static_cast<std::uint32_t>(backends) + 1;
}

fabric::HealthConfig aggressive_health() {
  fabric::HealthConfig h;
  // Instrumented builds widen the ladder: a sanitizer scheduler can
  // starve a healthy backend past the fast ladder, and a false verdict
  // on ALL backends wedges the fleet (death is sticky; no survivor
  // means no re-home).
  h.probe_interval = kSanitized ? 5ms : 1ms;
  h.probe_timeout = kSanitized ? 100ms : 5ms;
  h.max_strikes = 3;
  h.backoff = 2.0;
  h.max_timeout = kSanitized ? 1s : 50ms;
  return h;
}

net::MuxConfig fabric_mux() {
  net::MuxConfig m;
  m.workers = 2;
  return m;
}

std::uint64_t percentile(std::vector<std::uint64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

std::string fmt1(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

/// A failing soak seed is a real finding: shrink the plan to 1-minimal
/// and write the replayable CI artifacts next to the bench JSON — the
/// plan text replays via fault::fabric_plan_from_text, the merged trace
/// re-derives the verdict offline through the prefix attestor.
void write_failure_artifacts(const stp::FabricSoakConfig& cfg,
                             std::uint64_t seed,
                             const stp::FabricSoakResult& r) {
  const auto min = stp::minimize_fabric_plan(cfg, cfg.plan);
  std::ofstream plan_out("FABRIC_failure_plan.txt", std::ios::trunc);
  plan_out << "# r7_fabric seed " << seed << ": " << r.failure << "\n"
           << fault::to_text(min.plan) << "\n";
  std::ofstream trace_out("FABRIC_failure_trace.jsonl", std::ios::trunc);
  for (const auto& ev : r.merged_trace) {
    trace_out << net::to_jsonl(ev) << '\n';
  }
  std::cout << "wrote FABRIC_failure_plan.txt (1-minimal after "
            << min.probe_runs
            << " probe runs) + FABRIC_failure_trace.jsonl\n";
}

// ==========================================================================
// Child mode: one backend process (--backend ...).
// ==========================================================================

#if defined(R7_HAVE_PROCESS)

volatile std::sig_atomic_t g_term = 0;
void on_term(int) { g_term = 1; }

struct ChildArgs {
  std::uint32_t id = 0;
  std::size_t backends = kBackends;
  std::size_t sessions = 0;
  std::size_t seq_len = 0;
  std::uint16_t port = 0;
  std::uint32_t gen = 1;
  std::string logs;
  std::string absorb_logs;  // empty = no foreign logs folded in
  std::uint32_t absorb_id = 0;
  /// Announce kJoin on the fabric session and wait for the router's
  /// kJoinAck before serving anything (the rejoin handshake).
  bool join = false;
  /// Host EXACTLY this backend's round-robin share: decline any
  /// manifested session outside it (absorb_id does not widen the share),
  /// and keep the existing log instead of resetting it.  This is both
  /// halves of the reclaim handoff — the survivor's release (own logs
  /// mention the released sessions; decline them) and the rejoiner's
  /// reclaim (the survivor's logs mention ITS sessions; decline those).
  bool restrict_share = false;
  std::string trace;
  std::string meta;
  std::uint64_t max_run_ms = 60'000;
};

std::optional<ChildArgs> parse_child_args(int argc, char** argv) {
  ChildArgs a;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--backend-id") a.id = static_cast<std::uint32_t>(std::stoul(v));
    else if (k == "--backends") a.backends = std::stoul(v);
    else if (k == "--sessions") a.sessions = std::stoul(v);
    else if (k == "--seq-len") a.seq_len = std::stoul(v);
    else if (k == "--router-port") a.port = static_cast<std::uint16_t>(std::stoul(v));
    else if (k == "--gen") a.gen = static_cast<std::uint32_t>(std::stoul(v));
    else if (k == "--logs") a.logs = v;
    else if (k == "--absorb-logs") a.absorb_logs = v;
    else if (k == "--absorb-id") a.absorb_id = static_cast<std::uint32_t>(std::stoul(v));
    else if (k == "--join") a.join = v == "1";
    else if (k == "--restrict") a.restrict_share = v == "1";
    else if (k == "--trace") a.trace = v;
    else if (k == "--meta") a.meta = v;
    else if (k == "--max-run-ms") a.max_run_ms = std::stoull(v);
    else return std::nullopt;
  }
  if (a.id == 0 || a.port == 0 || a.logs.empty() || a.trace.empty() ||
      a.meta.empty()) {
    return std::nullopt;
  }
  return a;
}

void flush_trace(net::FlightRecorder& rec, std::ofstream& out) {
  for (const auto& ev : rec.drain()) out << net::to_jsonl(ev) << '\n';
  out.flush();
}

int run_backend(const ChildArgs& a) {
  std::signal(SIGTERM, on_term);

  std::filesystem::create_directories(a.logs);
  store::FileStore own(a.logs);
  net::FlightRecorderConfig rc;
  rc.backend_id = a.id;
  net::FlightRecorder rec(rc);
  std::ofstream trace(a.trace, std::ios::trunc);
  std::ofstream meta(a.meta, std::ios::trunc);
  if (!trace || !meta) return 3;
  // The recorder epoch is the merge key: CLOCK_MONOTONIC is machine-wide,
  // so the parent rebases every process's events onto one axis.
  meta << "epoch_us " << rec.epoch_offset_us() << "\n";
  meta.flush();

  // Loss-hardened rendezvous: hellos resend under jittered backoff until
  // the parent's confirm arrives, so one dropped datagram costs a backoff
  // step instead of deadlocking the harness.
  net::RetryConfig dial_retry;
  dial_retry.jitter_seed = a.id * 0x9E37ull + a.gen;
  auto dialed = net::make_udp_connected_retry(a.port, dial_retry);
  if (!dialed) return 4;

  if (a.join) {
    // The cell's rejoin handshake, paced for a cross-process wire: no
    // serving before the router's kJoinAck opens probation.
    net::RetryConfig jr;
    jr.max_attempts = 40;
    jr.base_delay = 10ms;
    jr.backoff = 1.5;
    jr.max_delay = 200ms;
    jr.jitter_seed = a.id;
    if (!fabric::announce_join(**dialed, a.gen, jr)) return 5;
  }

  // Which sessions must live here: this backend's round-robin share,
  // widened by the dead backend's share when absorbing — unless
  // --restrict pins it to exactly the own share (the reclaim handoff:
  // foreign logs are scanned for state, foreign sessions declined).
  std::vector<std::uint32_t> hosted;
  for (std::uint32_t sid = 1; sid <= a.sessions; ++sid) {
    const auto o = owner_of(sid, a.backends);
    if (o == a.id ||
        (!a.restrict_share && !a.absorb_logs.empty() && o == a.absorb_id)) {
      hosted.push_back(sid);
    }
  }
  fabric::CellConfig cc;
  cc.id = a.id;
  cc.mux = fabric_mux();
  cc.mux.probe = &rec;
  cc.stores = {&own};
  cc.make_receiver = stenning_factory();
  cc.expected_for = [&a](std::uint32_t sid) {
    return seq_for(sid, a.seq_len);
  };
  fabric::BackendCell cell(dialed->get(), cc);

  // Every generation starts through the cell's absorb, as in-process
  // cells restart: the first over an emptied log (every session cold),
  // later ones over the own log plus any foreign handoff log, newest
  // chain per session winning, admitting exactly `hosted` — the
  // survivor's release of what it absorbed, the rejoiner's reclaim of
  // only its own.
  if (a.absorb_logs.empty() && !a.restrict_share) own.reset();
  std::optional<store::FileStore> foreign;
  std::vector<store::IStableStore*> handoff;
  if (!a.absorb_logs.empty()) {
    foreign.emplace(a.absorb_logs);
    handoff.push_back(&*foreign);
  }
  const fabric::AbsorbReport rep = cell.absorb(handoff, hosted).value();
  meta << "restore_us";
  for (const auto us : rep.rehydrate.restore_latency_us) meta << ' ' << us;
  meta << "\nrehydrated " << rep.rehydrate.sessions << "\n";
  meta.flush();

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(a.max_run_ms);
  while (g_term == 0 && std::chrono::steady_clock::now() < deadline) {
    flush_trace(rec, trace);
    std::this_thread::sleep_for(25ms);
  }
  cell.stop();
  flush_trace(rec, trace);
  meta << "completed "
       << cell.server().mux().stats()[MuxCounter::kSessionsCompleted] << "\n";
  meta.flush();
  return 0;
}

// ==========================================================================
// Parent side of the process harness.
// ==========================================================================

struct ProcResult {
  bool ran = false;     // false: environment lacks UDP/fork — skipped
  bool ok = false;
  std::string why;
  std::size_t sessions = 0;
  std::size_t completed = 0;
  std::int64_t trace_completed = 0;
  bool attested = false;
  std::uint64_t detect_us = 0;   // SIGKILL -> death verdict
  std::uint64_t restore_us = 0;  // death verdict -> survivor re-linked
  std::uint64_t rejoin_us = 0;   // victim re-linked -> probation passed
  std::size_t reclaimed = 0;     // sessions reassigned back to the rejoiner
  std::vector<std::uint64_t> session_restore_us;
  std::vector<std::uint64_t> session_reclaim_us;
};

pid_t spawn_backend(const std::string& exe,
                    const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  argv.push_back(const_cast<char*>("--backend"));
  for (const auto& s : args) argv.push_back(const_cast<char*>(s.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(exe.c_str(), argv.data());
    _exit(127);
  }
  return pid;
}

std::vector<std::string> backend_args(const std::filesystem::path& dir,
                                      std::uint32_t id, std::size_t sessions,
                                      std::size_t seq_len, std::uint16_t port,
                                      std::uint32_t gen,
                                      std::uint32_t absorb_id = 0,
                                      bool join = false,
                                      bool restrict_share = false) {
  std::vector<std::string> a = {
      "--backend-id",  std::to_string(id),
      "--backends",    std::to_string(kBackends),
      "--sessions",    std::to_string(sessions),
      "--seq-len",     std::to_string(seq_len),
      "--router-port", std::to_string(port),
      "--gen",         std::to_string(gen),
      "--logs",        (dir / ("logs_b" + std::to_string(id))).string(),
      "--trace",
      (dir / ("trace_b" + std::to_string(id) + "_g" + std::to_string(gen) +
              ".jsonl"))
          .string(),
      "--meta",
      (dir / ("meta_b" + std::to_string(id) + "_g" + std::to_string(gen) +
              ".txt"))
          .string(),
  };
  if (absorb_id != 0) {
    a.push_back("--absorb-logs");
    a.push_back((dir / ("logs_b" + std::to_string(absorb_id))).string());
    a.push_back("--absorb-id");
    a.push_back(std::to_string(absorb_id));
  }
  if (join) {
    a.push_back("--join");
    a.push_back("1");
  }
  if (restrict_share) {
    a.push_back("--restrict");
    a.push_back("1");
  }
  return a;
}

/// Parse one meta file: "epoch_us N", "restore_us a b c...", "completed N".
struct ChildMeta {
  std::uint64_t epoch_us = 0;
  std::vector<std::uint64_t> restore_us;
};

std::optional<ChildMeta> read_meta(const std::filesystem::path& p) {
  std::ifstream in(p);
  if (!in) return std::nullopt;
  ChildMeta m;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "epoch_us") ls >> m.epoch_us;
    if (key == "restore_us") {
      std::uint64_t us = 0;
      while (ls >> us) m.restore_us.push_back(us);
    }
  }
  return m;
}

std::vector<obs::TraceEvent> read_trace(const std::filesystem::path& p) {
  std::vector<obs::TraceEvent> evs;
  std::ifstream in(p);
  std::string line;
  while (std::getline(in, line)) {
    if (auto ev = net::parse_jsonl(line)) evs.push_back(*ev);
  }
  return evs;
}

void reap(std::vector<pid_t>& pids) {
  for (const pid_t pid : pids) {
    if (pid <= 0) continue;
    ::kill(pid, SIGTERM);
  }
  for (const pid_t pid : pids) {
    if (pid <= 0) continue;
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  pids.clear();
}

ProcResult run_process_harness(const std::string& exe, std::size_t sessions,
                               std::size_t seq_len) {
  ProcResult res;
  res.sessions = sessions;
  if (!net::udp_supported()) {
    res.why = "UDP not compiled in";
    return res;
  }

  char tmpl[] = "/tmp/r7_fabric_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    res.why = "mkdtemp failed";
    return res;
  }
  const std::filesystem::path dir(tmpl);
  std::vector<pid_t> pids(kBackends + 1, -1);  // [id]; [0] unused
  std::vector<std::unique_ptr<net::UdpTransport>> links(kBackends + 1);
  const auto cleanup = [&] {
    reap(pids);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  };

  // Spawn + handshake each backend over its own rendezvous socket.
  for (std::uint32_t id = 1; id <= kBackends; ++id) {
    auto rv = net::make_udp_rendezvous();
    if (!rv) {
      res.why = "environment forbids UDP sockets";
      cleanup();
      return res;
    }
    pids[id] = spawn_backend(
        exe, backend_args(dir, id, sessions, seq_len, (*rv)->port(), 1));
    if (pids[id] < 0) {
      res.why = "fork failed";
      cleanup();
      return res;
    }
    links[id] = (*rv)->accept_peer(5s);
    if (!links[id]) {
      res.why = "backend " + std::to_string(id) + " never dialed in";
      cleanup();
      return res;
    }
  }
  res.ran = true;

  // Router + membership + client, all in this process.
  fabric::MembershipTable membership;
  auto client_link = net::make_loopback({});
  fabric::RouterConfig rcfg;
  // Cross-process ack RTT is real scheduling latency (worse still under
  // sanitizers), so the heartbeat gets a far laxer ladder than the
  // in-process cells: ~1.4s of silence to a death verdict, never a false
  // strike on a merely slow peer.
  rcfg.health.probe_interval = std::chrono::milliseconds(20);
  rcfg.health.probe_timeout = std::chrono::milliseconds(200);
  rcfg.health.max_strikes = 3;
  rcfg.health.max_timeout = std::chrono::milliseconds(1000);
  fabric::FabricRouter router(client_link.b.get(), &membership, rcfg);
  for (std::uint32_t id = 1; id <= kBackends; ++id) {
    membership.add_backend(id);
    router.add_backend(id, links[id].get());
  }
  net::MuxConfig ccfg = fabric_mux();
  net::StpClient client(client_link.a.get(), ccfg);
  for (std::uint32_t sid = 1; sid <= sessions; ++sid) {
    membership.assign(sid, owner_of(sid, kBackends));
    client.add_session(sid, proto::make_stenning(kDomain, true).sender,
                       seq_for(sid, seq_len));
  }
  router.start();
  client.mux().start();

  const auto fail = [&](const std::string& why) {
    res.why = why;
    client.mux().stop();
    router.stop();
    cleanup();
    return res;
  };
  // Stop backend `id`'s process with `sig` and reap it.
  const auto retire = [&](std::uint32_t id, int sig) {
    ::kill(pids[id], sig);
    int status = 0;
    ::waitpid(pids[id], &status, 0);
    pids[id] = -1;
  };
  // Exec backend `id` as generation `gen` over a fresh rendezvous and
  // swap the router's link to it.  The old transport lives until
  // set_link returns — it blocks past the pump's in-flight pass, after
  // which the corpse is safe to free.
  const auto respawn = [&](std::uint32_t id, std::uint32_t gen,
                           std::uint32_t absorb_id, bool join,
                           bool restrict_share) {
    auto rv = net::make_udp_rendezvous();
    if (!rv) return false;
    pids[id] = spawn_backend(
        exe, backend_args(dir, id, sessions, seq_len, (*rv)->port(), gen,
                          absorb_id, join, restrict_share));
    auto link = (*rv)->accept_peer(10s);
    if (!link) return false;
    const auto old = std::exchange(links[id], std::move(link));
    router.set_link(id, links[id].get());
    return true;
  };

  // The crash: SIGKILL backend 1 mid-run — once the client has heard
  // about a quarter of the run's acks, so it lands mid-traffic however
  // fast the run is (bounded: a stalled fleet is killed anyway).  No
  // flush, no goodbye — its trace tail and any unsynced log batch die
  // with it.
  const auto kill_deadline = std::chrono::steady_clock::now() + 10s;
  while (client.mux().stats()[MuxCounter::kFramesReceived] <
             sessions * seq_len / 4 &&
         std::chrono::steady_clock::now() < kill_deadline) {
    std::this_thread::sleep_for(100us);
  }
  const std::uint32_t victim = 1;
  retire(victim, SIGKILL);
  const auto t_kill = std::chrono::steady_clock::now();

  // Heartbeat silence climbs the strike ladder to a death verdict.
  const auto dead = router.next_verdict(t_kill + 10s);
  const auto t_death = std::chrono::steady_clock::now();
  if (!dead || dead->kind != fabric::Verdict::Kind::kDead ||
      dead->backend != victim) {
    return fail("death verdict never arrived");
  }
  res.detect_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t_death - t_kill)
          .count());

  // Re-home: retire the survivor's first generation, re-exec it with BOTH
  // log directories, swap the link.  The health FSM is paused for the
  // survivor across the window so the maintenance restart cannot be
  // mistaken for a second crash.
  const auto survivor_opt = membership.pick_survivor(victim);
  if (!survivor_opt) return fail("no survivor");
  const std::uint32_t survivor = *survivor_opt;
  router.set_probes_paused(survivor, true);
  retire(survivor, SIGTERM);
  if (!respawn(survivor, 2, victim, /*join=*/false,
               /*restrict_share=*/false)) {
    return fail("survivor never dialed back in");
  }
  router.set_probes_paused(survivor, false);
  membership.rehome(victim, survivor);
  res.restore_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t_death)
          .count());

  // Let the healed fleet make real progress on the absorbed share before
  // closing the cycle — the reclaim below must hand back state the dead
  // generation never journaled.
  std::this_thread::sleep_for(80ms);

  // Release half of the handoff: retire the survivor's second generation
  // and re-exec it RESTRICTED to its own share, so the sessions it is
  // releasing are declined on rehydrate.  Probes stay paused across the
  // window so maintenance reads as maintenance.
  router.set_probes_paused(survivor, true);
  retire(survivor, SIGTERM);
  if (!respawn(survivor, 3, 0, /*join=*/false,
               /*restrict_share=*/true)) {
    return fail("survivor never dialed back for release");
  }
  router.set_probes_paused(survivor, false);

  // Reclaim half: the victim re-execs under a new generation, announces
  // kJoin over the fresh socket, and serves only after the router's
  // kJoinAck opens probation.  Its absorb folds the survivor's log over
  // its own stale one — newest chain wins — restricted to its original
  // share.
  if (!respawn(victim, 3, survivor, /*join=*/true,
               /*restrict_share=*/true)) {
    return fail("victim never dialed back to rejoin");
  }
  const auto t_rejoin = std::chrono::steady_clock::now();

  // kJoin -> probation -> joined verdict (exactly one expected: the
  // survivor's restarts ran under paused probes and were never condemned).
  const auto joined = router.next_verdict(t_rejoin + 30s);
  if (!joined || joined->kind != fabric::Verdict::Kind::kJoined ||
      joined->backend != victim) {
    return fail("rejoin probation never passed");
  }
  res.rejoin_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t_rejoin)
          .count());

  // Reclaim-reassign: revive bumps the victim's incarnation (anything
  // still stamped with the fenced generation turns stale) and the
  // reassignment restamps its original share fresh, bumping the epoch so
  // stale leases fence.
  membership.revive(victim);
  for (std::uint32_t sid = 1; sid <= sessions; ++sid) {
    if (owner_of(sid, kBackends) == victim) {
      membership.assign(sid, victim);
      ++res.reclaimed;
    }
  }

  // Drain: every client session must complete against the healed fleet.
  const bool drained = client.mux().drain(60s);
  client.mux().stop();
  router.stop();
  res.completed = client.mux().stats()[MuxCounter::kSessionsCompleted];

  // Retire the children gracefully (final trace flush + meta), then merge
  // the per-process traces by recorder epoch and attest offline.
  reap(pids);
  std::vector<fabric::TracePart> parts;
  const auto add_part = [&](std::uint32_t id, std::uint32_t gen) {
    const auto meta = read_meta(
        dir / ("meta_b" + std::to_string(id) + "_g" + std::to_string(gen) +
               ".txt"));
    if (!meta) return;
    parts.push_back(
        {meta->epoch_us,
         read_trace(dir / ("trace_b" + std::to_string(id) + "_g" +
                           std::to_string(gen) + ".jsonl"))});
    if (gen == 2) res.session_restore_us = meta->restore_us;
    if (gen == 3 && id == victim) res.session_reclaim_us = meta->restore_us;
  };
  for (std::uint32_t id = 1; id <= kBackends; ++id) add_part(id, 1);
  add_part(survivor, 2);
  add_part(survivor, 3);
  add_part(victim, 3);

  analysis::TraceContext ctx;
  for (std::uint32_t sid = 1; sid <= sessions; ++sid) {
    ctx.expected_items[sid] = seq_len;
  }
  analysis::TracePipeline pipe;
  pipe.add(analysis::make_prefix_attestor())
      .add(analysis::make_rehydration_analyzer());
  const auto report = pipe.run(fabric::merge_backend_traces(parts), ctx);
  res.attested = report.ok;
  res.trace_completed = report.value("prefix.completed");

  res.ok = drained && res.completed == sessions && res.attested &&
           res.trace_completed == static_cast<std::int64_t>(res.completed);
  if (!res.ok && res.why.empty()) {
    res.why = !drained ? "drain timeout"
                       : (!res.attested ? "merged trace failed attestation"
                                        : "live/trace verdicts disagree");
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return res;
}

#endif  // R7_HAVE_PROCESS

}  // namespace

int main(int argc, char** argv) {
#if defined(R7_HAVE_PROCESS)
  if (argc > 1 && std::strcmp(argv[1], "--backend") == 0) {
    const auto child = parse_child_args(argc, argv);
    if (!child) {
      std::cerr << "r7_fabric --backend: bad arguments\n";
      return 2;
    }
    return run_backend(*child);
  }
#endif

  BenchRun bench("r7_fabric", argc, argv);
  bench.param("backends", static_cast<std::int64_t>(kBackends));
  // Failure artifacts describe this run only: a passing run leaves none.
  std::filesystem::remove("FABRIC_failure_plan.txt");
  std::filesystem::remove("FABRIC_failure_trace.jsonl");
  std::cout << analysis::heading(
      "R7 (service fabric): crash re-homing, rejoin/reclaim, restore "
      "latency, process harness");

  bool shape = true;

  // --- Phase 1: in-process acceptance (crash -> rejoin -> reclaim) -------
  // Backend 1 dies a quarter of the way through its share (a third of the
  // sessions, 8 items each), so the kill lands mid-traffic.  The rejoin
  // fires well after the strike ladder's condemnation point (the full
  // silence ladder after the crash), so the cycle runs crash -> fence ->
  // re-home -> rejoin -> probation -> reclaim across three generations of
  // ownership.
  constexpr auto kRejoinAt = kSanitized ? 1800ms : 120ms;
  constexpr std::uint64_t kCrashItems = kAcceptanceSessions * 8 / 12;
  stp::FabricSoakConfig acc;
  acc.backends = kBackends;
  acc.sessions = kAcceptanceSessions;
  acc.seq_len = 8;
  acc.health = aggressive_health();
  acc.mux = fabric_mux();
  // Generous: a loaded CI core (sanitizer jobs, parallel ctest) can
  // stretch a run that takes milliseconds when idle by orders of magnitude.
  acc.drain_timeout = std::chrono::milliseconds(180'000);
  acc.plan.actions.push_back({stp::FabricFaultKind::kBackendCrash, 1, 0ms,
                              {}, {}, {}, 1, kCrashItems});
  acc.plan.actions.push_back({stp::FabricFaultKind::kRejoin, 1, kRejoinAt,
                              {}, {}, {}, 1, kCrashItems});
  const auto accepted = stp::run_fabric_soak(acc);
  const std::size_t active_at_kill =
      accepted.crash_active.empty() ? 0 : accepted.crash_active[0];
  for (std::size_t i = 0; i < acc.sessions; ++i) {
    bench.record_trial(acc.seq_len, acc.seq_len * 2, accepted.ok);
  }
  // Uninstrumented builds must demonstrate the full cycle; a sanitizer
  // scheduler may legitimately stretch condemnation past the scripted
  // rejoin point, in which case the rejoin no-ops and the run is judged
  // as a plain crash/re-home soak.
  shape = shape && accepted.ok && active_at_kill > 0 &&
          (kSanitized || (accepted.rejoins == 1 && accepted.reclaims == 1));
  bench.param("acceptance_sessions", static_cast<std::int64_t>(acc.sessions));
  bench.param("acceptance_active_at_kill",
              static_cast<std::int64_t>(active_at_kill));
  bench.param("acceptance_rejoins",
              static_cast<std::int64_t>(accepted.rejoins));
  bench.param("acceptance_reclaims",
              static_cast<std::int64_t>(accepted.reclaims));

  analysis::Table t1({"sessions", "active at kill", "completed", "rehomes",
                      "rejoins", "reclaims", "trace completed", "trace ok",
                      "verdict"});
  t1.add_row({std::to_string(acc.sessions), std::to_string(active_at_kill),
              std::to_string(accepted.completed),
              std::to_string(accepted.rehomes),
              std::to_string(accepted.rejoins),
              std::to_string(accepted.reclaims),
              std::to_string(accepted.trace.value("prefix.completed")),
              accepted.trace.ok ? "yes" : "NO",
              accepted.ok ? "ok" : accepted.failure});
  std::cout << "\nin-process acceptance (kill backend 1 once it has "
               "written "
            << kCrashItems << " items, rejoin it " << kRejoinAt.count()
            << "ms later):\n"
            << t1.to_ascii();

  // --- Phase 2: restore-latency distribution over seeded crash trials ----
  std::vector<std::uint64_t> restore;
  std::size_t crash_trials = 0;
  std::size_t crashes = 0;
  std::size_t crashes_mid_traffic = 0;  // the victim still had sessions
  for (std::uint64_t seed = 1; crash_trials < 6 && seed <= 64; ++seed) {
    stp::FabricSoakConfig cfg = acc;
    cfg.sessions = 24;
    cfg.seq_len = 10;
    cfg.plan = stp::sample_fabric_plan(seed, kBackends);
    const bool has_crash = std::any_of(
        cfg.plan.actions.begin(), cfg.plan.actions.end(),
        [](const stp::FabricFaultAction& a) {
          return a.kind == stp::FabricFaultKind::kBackendCrash;
        });
    if (!has_crash) continue;
    ++crash_trials;
    const auto r = stp::run_fabric_soak(cfg);
    shape = shape && r.ok;
    crashes += r.crash_active.size();
    crashes_mid_traffic += static_cast<std::size_t>(std::count_if(
        r.crash_active.begin(), r.crash_active.end(),
        [](std::size_t active) { return active > 0; }));
    restore.insert(restore.end(), r.restore_latency_us.begin(),
                   r.restore_latency_us.end());
    if (!r.ok) {
      std::cout << "\nseed " << seed << " plan [" << stp::to_string(cfg.plan)
                << "] FAILED: " << r.failure << "\n";
      write_failure_artifacts(cfg, seed, r);
    }
  }
  const auto p50 = percentile(restore, 0.50);
  const auto p90 = percentile(restore, 0.90);
  const auto pmax = restore.empty()
                        ? 0
                        : *std::max_element(restore.begin(), restore.end());
  bench.metric("crashes", static_cast<double>(crashes), "count");
  bench.metric("crashes_mid_traffic",
               static_cast<double>(crashes_mid_traffic), "count");
  bench.metric("restore_p50_us", static_cast<double>(p50), "us");
  bench.metric("restore_p90_us", static_cast<double>(p90), "us");
  bench.metric("restore_max_us", static_cast<double>(pmax), "us");
  analysis::Table t2({"crash trials", "crashes", "mid-traffic", "rehomes",
                      "p50 us", "p90 us", "max us"});
  t2.add_row({std::to_string(crash_trials), std::to_string(crashes),
              std::to_string(crashes_mid_traffic),
              std::to_string(restore.size()), std::to_string(p50),
              std::to_string(p90), std::to_string(pmax)});
  std::cout << "\nrestore latency (fence -> rehydrated -> serving):\n"
            << t2.to_ascii();

  // --- Phase 2b: resilience sweep (crash -> rejoin spines under
  // partition windows), reclaim-latency distribution -----------------------
  std::vector<std::uint64_t> reclaim_lat;
  std::size_t resil_trials = 0;
  std::size_t resil_reclaims = 0;
  const std::size_t want_resil = kSanitized ? 2 : 5;
  for (std::uint64_t seed = 101; resil_trials < want_resil; ++seed) {
    stp::FabricSoakConfig cfg = acc;
    cfg.sessions = 24;
    cfg.seq_len = 10;
    cfg.plan = stp::sample_resilience_plan(seed, kBackends);
    ++resil_trials;
    const auto r = stp::run_fabric_soak(cfg);
    shape = shape && r.ok;
    resil_reclaims += r.reclaims;
    reclaim_lat.insert(reclaim_lat.end(), r.reclaim_latency_us.begin(),
                       r.reclaim_latency_us.end());
    if (!r.ok) {
      std::cout << "\nresilience seed " << seed << " plan ["
                << stp::to_string(cfg.plan) << "] FAILED: " << r.failure
                << "\n";
      write_failure_artifacts(cfg, seed, r);
    }
  }
  const auto rp50 = percentile(reclaim_lat, 0.50);
  const auto rp90 = percentile(reclaim_lat, 0.90);
  const auto rpmax =
      reclaim_lat.empty()
          ? 0
          : *std::max_element(reclaim_lat.begin(), reclaim_lat.end());
  bench.param("resilience_trials", static_cast<std::int64_t>(resil_trials));
  bench.param("resilience_reclaims",
              static_cast<std::int64_t>(resil_reclaims));
  bench.metric("reclaim_p50_us", static_cast<double>(rp50), "us");
  bench.metric("reclaim_p90_us", static_cast<double>(rp90), "us");
  bench.metric("reclaim_max_us", static_cast<double>(rpmax), "us");
  analysis::Table t2b({"resilience trials", "reclaims", "p50 us", "p90 us",
                       "max us"});
  t2b.add_row({std::to_string(resil_trials), std::to_string(resil_reclaims),
               std::to_string(rp50), std::to_string(rp90),
               std::to_string(rpmax)});
  std::cout << "\nreclaim latency (rejoin acked -> reclaimed -> serving; a "
               "rejoin scheduled before condemnation legitimately no-ops):\n"
            << t2b.to_ascii();

  // --- Phase 3: the process harness ---------------------------------------
#if defined(R7_HAVE_PROCESS)
  const auto proc = run_process_harness(argv[0], 24, 10);
  if (!proc.ran) {
    std::cout << "\nprocess harness: skipped (" << proc.why
              << ") — in-process phases cover the logic\n";
    bench.param("process_harness", "skipped");
  } else {
    shape = shape && proc.ok;
    bench.param("process_harness", proc.ok ? "ok" : proc.why);
    bench.param("proc_reclaimed_sessions",
                static_cast<std::int64_t>(proc.reclaimed));
    bench.metric("proc_detect_us", static_cast<double>(proc.detect_us), "us");
    bench.metric("proc_restore_us", static_cast<double>(proc.restore_us),
                 "us");
    bench.metric("proc_rejoin_us", static_cast<double>(proc.rejoin_us), "us");
    bench.metric("proc_session_restore_p50_us",
                 static_cast<double>(percentile(proc.session_restore_us, 0.5)),
                 "us");
    bench.metric("proc_session_reclaim_p50_us",
                 static_cast<double>(percentile(proc.session_reclaim_us, 0.5)),
                 "us");
    analysis::Table t3({"sessions", "completed", "trace completed",
                        "attested", "detect ms", "restore ms", "rejoin ms",
                        "reclaimed", "verdict"});
    t3.add_row({std::to_string(proc.sessions),
                std::to_string(proc.completed),
                std::to_string(proc.trace_completed),
                proc.attested ? "yes" : "NO",
                fmt1(static_cast<double>(proc.detect_us) / 1000.0),
                fmt1(static_cast<double>(proc.restore_us) / 1000.0),
                fmt1(static_cast<double>(proc.rejoin_us) / 1000.0),
                std::to_string(proc.reclaimed),
                proc.ok ? "ok" : proc.why});
    std::cout << "\nprocess harness (3 backends fork/exec'd, SIGKILL b1, "
                 "survivor re-exec'd with both logs, victim rejoined under "
                 "a new generation and its share reclaimed):\n"
              << t3.to_ascii();
  }
#else
  std::cout << "\nprocess harness: unavailable on this platform\n";
  bench.param("process_harness", "unavailable");
#endif

  std::cout << "\nshape " << (shape ? "confirmed" : "VIOLATED")
            << ": every session survives crash, re-home, rejoin, and "
               "reclaim with an exact copy, attested offline from the "
               "merged cross-generation trace\n";
  return bench.finish(shape);
}

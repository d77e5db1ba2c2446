#include "fabric/fabric.hpp"

#include <algorithm>
#include <map>

#include "store/session_log.hpp"
#include "util/expect.hpp"

namespace stpx::fabric {

Fabric::Fabric(FabricConfig cfg) : cfg_(std::move(cfg)) {
  STPX_EXPECT(cfg_.backends >= 1, "Fabric: needs at least one backend");
  STPX_EXPECT(static_cast<bool>(cfg_.stores_for),
              "Fabric: stores_for is required");
  client_link_ = net::make_loopback();
  router_ = std::make_unique<FabricRouter>(client_link_.b.get(),
                                           &membership_, cfg_.health);
  backend_links_.reserve(cfg_.backends);
  cells_.reserve(cfg_.backends);
  for (std::size_t i = 0; i < cfg_.backends; ++i) {
    const std::uint32_t id = static_cast<std::uint32_t>(i + 1);
    backend_links_.push_back(net::make_loopback());
    membership_.add_backend(id);
    router_->add_backend(id, backend_links_[i].a.get());
    stores_.push_back(cfg_.stores_for(id));
    CellConfig cc;
    cc.id = id;
    cc.mux = cfg_.mux;
    if (cfg_.probe_for) cc.mux.probe = cfg_.probe_for(id);
    cc.stores = stores_[i];
    cc.make_receiver = cfg_.make_receiver;
    cc.expected_for = cfg_.expected_for;
    cells_.push_back(
        std::make_unique<BackendCell>(backend_links_[i].b.get(), cc));
  }
}

Fabric::~Fabric() { stop(); }

void Fabric::add_session(std::uint32_t sid) {
  STPX_EXPECT(!started_, "Fabric: add_session after start");
  const std::uint32_t id =
      static_cast<std::uint32_t>(next_assign_++ % cells_.size()) + 1;
  membership_.assign(sid, id);
  cells_[id - 1]->add_session(sid);
}

void Fabric::start() {
  STPX_EXPECT(!started_, "Fabric: started twice");
  started_ = true;
  for (auto& c : cells_) c->start();
  router_->start();
  supervisor_ = std::jthread([this](std::stop_token st) { supervise(st); });
}

void Fabric::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  supervisor_.request_stop();
  supervisor_.join();
  router_->stop();
  for (auto& c : cells_) c->stop();  // no-op on killed cells
}

bool Fabric::drain(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (std::all_of(cells_.begin(), cells_.end(),
                    [](const auto& c) { return c->drained(); })) {
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::size_t Fabric::kill_backend(std::uint32_t id) {
  return cell(id).kill();
}

void Fabric::set_probe_blackout(std::uint32_t id, bool on) {
  router_->set_drop_probes(id, on);
}

void Fabric::set_data_split(std::uint32_t id, bool on) {
  router_->set_drop_data(id, on);
}

void Fabric::set_partition(std::uint32_t id, PartitionMode mode) {
  router_->set_partition(id, mode);
}

bool Fabric::rejoin_backend(std::uint32_t id) {
  BackendCell& c = cell(id);
  if (!c.killed()) return false;
  return c.rejoin();
}

BackendCell& Fabric::cell(std::uint32_t id) {
  STPX_EXPECT(id >= 1 && id <= cells_.size(), "Fabric: unknown backend id");
  return *cells_[id - 1];
}

std::vector<RehomeRecord> Fabric::rehomes() const {
  std::lock_guard<std::mutex> hold(rehome_mu_);
  return rehomes_;
}

std::vector<ReclaimRecord> Fabric::reclaims() const {
  std::lock_guard<std::mutex> hold(rehome_mu_);
  return reclaims_;
}

void Fabric::publish_metrics(obs::MetricsRegistry& reg) const {
  router_->publish_metrics(reg);
}

void Fabric::supervise(std::stop_token st) {
  while (const auto v = router_->next_verdict(
             std::chrono::steady_clock::time_point::max(), st)) {
    if (v->kind == Verdict::Kind::kDead) {
      handle_death(v->backend);
    } else {
      handle_join(v->backend);
    }
  }
}

std::optional<AbsorbReport> Fabric::absorb_paused(
    std::uint32_t id, const std::vector<store::IStableStore*>& handoff,
    const std::vector<std::uint32_t>& hosted) {
  router_->set_probes_paused(id, true);
  auto rep = cells_[id - 1]->absorb(handoff, hosted);
  router_->set_probes_paused(id, false);
  if (!rep) membership_.set_health(id, BackendHealth::kDead);
  return rep;
}

void Fabric::handle_death(std::uint32_t dead) {
  RehomeRecord rec;
  rec.dead = dead;
  // Fence FIRST: a suspect that is actually alive (probe blackout) must
  // stop serving before anyone re-reads its logs, or two generations of
  // the same session could both write.  kill() is idempotent, so fencing
  // an already-crashed cell costs nothing.
  cells_[dead - 1]->kill();
  // A cell killed but not yet condemned still reads alive here; its
  // absorb reports it dead, which marks it so, and the next is tried.
  while (const auto survivor = membership_.pick_survivor(dead)) {
    // The survivor hosts exactly its own sessions plus the incoming ones:
    // after a reclaim its logs can manifest sessions it released, and the
    // handed-off logs can manifest sessions the dead cell released — none
    // of which may be resurrected here.
    auto hosted = membership_.sessions_of(*survivor);
    for (const std::uint32_t sid : membership_.sessions_of(dead)) {
      hosted.push_back(sid);
    }
    auto absorbed = absorb_paused(*survivor, stores_[dead - 1], hosted);
    if (!absorbed) continue;
    rec.survivor = *survivor;
    rec.absorb = std::move(*absorbed);
    // Only now flip the routing truth: frames for the moved sessions were
    // dropped (counted dead_owner) during the absorb, which retransmission
    // heals; after this line they flow to the survivor.
    rec.moved = membership_.rehome(dead, *survivor);
    rec.ok = true;
    break;
  }
  std::lock_guard<std::mutex> hold(rehome_mu_);
  rehomes_.push_back(std::move(rec));
}

void Fabric::handle_join(std::uint32_t id) {
  ReclaimRecord rec;
  rec.backend = id;
  rec.generation = cells_[id - 1]->generation();
  // The reclaim set is decided by DURABLE evidence: whatever this
  // backend's own logs still manifest, judged against the current
  // membership truth.  Sessions created after its death live elsewhere
  // and are not touched.
  const auto manifested = store::manifested_sessions(stores_[id - 1]);
  std::map<std::uint32_t, std::vector<std::uint32_t>> by_owner;
  for (const std::uint32_t sid : manifested) {
    const auto entry = membership_.resolve(sid);
    if (!entry) continue;  // never registered with this fabric
    if (entry->backend == id) {
      // Still nominally ours — typically fenced behind a soon-to-be-stale
      // entry because nobody survived to re-home it.  No release needed.
      rec.reclaimed.push_back(sid);
      continue;
    }
    if (membership_.health(entry->backend) == BackendHealth::kDead) {
      continue;  // that backend's own death flow owns these; don't race it
    }
    by_owner[entry->backend].push_back(sid);
  }
  // Each current owner hands its victims back by restarting without them;
  // their durable records stay in its logs, read-only, as the handoff
  // source for the rejoiner.  An owner that died first keeps its victims:
  // its own death flow re-homes them.
  std::vector<store::IStableStore*> handoff;
  for (const auto& [owner, victims] : by_owner) {
    std::vector<std::uint32_t> remaining;
    for (const std::uint32_t sid : membership_.sessions_of(owner)) {
      if (std::find(victims.begin(), victims.end(), sid) == victims.end()) {
        remaining.push_back(sid);
      }
    }
    if (!absorb_paused(owner, {}, remaining)) continue;
    handoff.insert(handoff.end(), stores_[owner - 1].begin(),
                   stores_[owner - 1].end());
    rec.released_from.push_back(owner);
    rec.reclaimed.insert(rec.reclaimed.end(), victims.begin(), victims.end());
  }
  // The rejoiner folds its own logs plus the released owners' (read-only)
  // and admits EXACTLY the reclaim set: the (epoch, seq) newest-fold
  // resumes each session at the releasing owner's durable position, so
  // the ack-gating write-ahead rule holds across the handback.
  auto absorbed = absorb_paused(id, handoff, rec.reclaimed);
  if (!absorbed) {
    // The rejoiner died before it took them back: each owner that
    // released its victims hosts them again (membership never moved).
    for (const std::uint32_t owner : rec.released_from) {
      absorb_paused(owner, {}, membership_.sessions_of(owner));
    }
    std::lock_guard<std::mutex> hold(rehome_mu_);
    reclaims_.push_back(std::move(rec));
    return;
  }
  rec.absorb = std::move(*absorbed);
  // Only now flip the routing truth: revive bumps the incarnation (owner
  // entries still stamped with the old one turn stale) and the epoch;
  // each reclaimed session is then restamped fresh, and the router
  // forwards its frames here.
  membership_.revive(id);
  for (const std::uint32_t sid : rec.reclaimed) membership_.assign(sid, id);
  rec.epoch = membership_.epoch();
  rec.ok = true;
  std::lock_guard<std::mutex> hold(rehome_mu_);
  reclaims_.push_back(std::move(rec));
}

std::vector<obs::TraceEvent> merge_backend_traces(
    const std::vector<TracePart>& parts) {
  std::uint64_t min_epoch = 0;
  bool any = false;
  for (const TracePart& p : parts) {
    if (!any || p.epoch_us < min_epoch) min_epoch = p.epoch_us;
    any = true;
  }
  std::vector<obs::TraceEvent> merged;
  for (const TracePart& p : parts) {
    const std::uint64_t base = p.epoch_us - min_epoch;
    for (obs::TraceEvent ev : p.events) {
      ev.ts_us += base;
      merged.push_back(std::move(ev));
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return merged;
}

}  // namespace stpx::fabric

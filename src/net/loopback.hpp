// LoopbackTransport — an in-process, thread-safe transport pair whose
// unreliability is scripted by the fault::FaultPlan grammar.
//
// make_loopback() returns two connected ITransport endpoints, `a` and `b`,
// backed by one shared core with a mutex-guarded frame queue per link.
// Plan actions aimed at `dir SR` shape the a->b link, `dir RS` the b->a
// link — the same convention the chaos layer uses for the simulated
// channel (the client/sender mux conventionally holds endpoint `a`).
//
// Plan-grammar mapping in the transport context (see docs/NETWORK.md):
//
//   trigger  @sends N  — fires when the link has seen N send() calls
//            @step N   — fires when the link has seen N poll() calls;
//                        window durations (`len`) are measured in the
//                        same poll ticks (see "Tick pace" below)
//            @writes   — no output tape here; such actions never fire
//
//   drop     burst: discard the next `count` sends (0 = flush everything
//            queued right now)
//   dup      burst: enqueue the next `count` sends twice (0 = duplicate
//            everything queued right now); a copy that would pass the
//            cap or max_queue bound is shed like any other send
//   blackout window: sends vanish for `len` poll ticks
//   freeze   window: nothing is deliverable for `len` poll ticks (frames
//            are retained, not dropped)
//   cap      from the trigger on, sends that would exceed `count` queued
//            frames are shed
//
// Crash / storage / corruption kinds are process- and state-level faults
// with no transport meaning; the interpreter ignores them.  Transports are
// content-blind, so the `match` predicate is ignored too — frames are
// opaque byte blobs here (byte-level corruption is deliberately *not*
// simulated: the codec's corruption handling is exercised directly by the
// byte-mangling tests in tests/test_net.cpp).
//
// Reordering needs no plan action: `reorder_window` W > 1 makes poll()
// return a uniformly chosen frame among the W oldest queued (seeded Rng,
// guarded by the link mutex — util::Rng itself is not thread-safe).
//
// wait() blocks on a per-link condition variable until the next poll()
// tick would deliver: a frame is queued and that tick is outside every
// freeze window.  send() signals it only when a waiter is registered and
// the send made the link deliverable.
//
// Tick pace: the mux pump polls in bursts and, when a burst finds
// nothing, waits at most its backoff bound.  A frame ends the wait at
// once; an idle, frozen or blacked-out link sleeps the whole bound, so
// `@step` triggers and `len` windows keep advancing at about one tick per
// bound instead of spinning through.
#pragma once

#include <cstdint>
#include <memory>

#include "fault/plan.hpp"
#include "net/transport.hpp"
#include "sim/types.hpp"

namespace stpx::net {

struct LoopbackConfig {
  /// Scripted unreliability; an empty plan is a perfect FIFO link.
  fault::FaultPlan plan;
  /// Poll picks among the `reorder_window` oldest queued frames (<= 1 =
  /// strict FIFO).
  std::size_t reorder_window = 0;
  /// Seeds the per-link reorder Rng (links split the seed, so the two
  /// directions reorder independently but reproducibly).
  std::uint64_t seed = 0x10095EEDULL;
  /// Hard queue bound per link; sends past it are shed (0 = unbounded).
  std::size_t max_queue = 0;
};

/// Per-link observability counters (snapshot).
struct LoopbackStats {
  std::uint64_t attempted = 0;    // send() calls
  std::uint64_t queued = 0;       // sends that reached the queue
  std::uint64_t delivered = 0;    // successful polls
  std::uint64_t dropped = 0;      // discarded by drop bursts
  std::uint64_t duplicated = 0;   // extra copies queued by dup bursts
  std::uint64_t blacked_out = 0;  // swallowed by blackout windows
  std::uint64_t shed = 0;         // sends and copies past cap/max_queue
  std::uint64_t frozen_polls = 0;  // polls answered empty by a freeze
};

class LoopbackCore;

struct LoopbackPair {
  std::unique_ptr<ITransport> a;  // sends onto the S->R link
  std::unique_ptr<ITransport> b;  // sends onto the R->S link
  std::shared_ptr<LoopbackCore> core;

  /// Counters of one link (kSenderToReceiver = the a->b link).
  LoopbackStats stats(sim::Dir link) const;

  /// Wall-clock intervals during which a blackout or freeze window was
  /// active on either link, named "blackout S->R" etc.  Windows still open
  /// when called are reported as ending now.  Feed through
  /// to_trace_spans() to overlay them on a FlightRecorder stream.
  std::vector<WireWindow> fault_windows() const;
};

LoopbackPair make_loopback(LoopbackConfig cfg = {});

}  // namespace stpx::net

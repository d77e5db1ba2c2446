// Durable-session conformance suite for the wire layer
// (ctest -L durable_mux_smoke):
//
//   * session manifest records — golden full and delta payloads, codec
//     round-trip, malformed rejection (non-canonical spellings included),
//     byte identity against a strict reference codec (random and
//     non-canonical input, adapters through writes, restores and cold
//     starts), protocol fingerprints, folding by (epoch, seq) regardless of
//     byte order, the delta-chain fold (gaps, epochs, repeats, lost full
//     records), and drain-path compaction;
//   * store replay + FileStore group commit — replay() against
//     parse_records() on damaged buffers, one append_batch lands every
//     record, and torn-write recovery after a torn tail;
//   * endpoint save/restore — sender and receiver adapters, delta chains
//     (random chains restore exactly; broken or non-canonical ones, and
//     items outside DataItem, cold-start), the non-prefix-tape canary,
//     unusable-blob cold starts;
//   * SessionMux rehydration — graceful drain (flush + compaction) vs the
//     crash-shaped kill(), restart racing a FIN, the storage-fault matrix
//     biting the session log (detected and healed by bounded
//     retransmission, never silent corruption), kRecoveryViolation kept
//     distinct end-to-end (poisoned manifest; completion record destroyed
//     by a tail fault while the peer is gone), record bytes flat as the
//     tape grows, every logged record and adapter blob canonical, one
//     save_state() per checkpoint record; and the
//     acceptance run:
//     kill + restart a server holding >= 1000 active sessions mid-traffic
//     under loss + reorder, every manifested session rehydrated with
//     per-session prefix attestation across both server generations.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fault/plan.hpp"
#include "net/loopback.hpp"
#include "net/mux.hpp"
#include "net/service.hpp"
#include "obs/metrics.hpp"
#include "proto/session_adapter.hpp"
#include "proto/suite.hpp"
#include "store/session_log.hpp"
#include "store/stable_store.hpp"
#include "stp/last_item_gate.hpp"
#include "util/blob.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace stpx {
namespace {

using namespace std::chrono_literals;
using net::MuxCounter;

constexpr int kDomain = 8;

seq::Sequence seq_for(std::uint32_t id, std::size_t len) {
  seq::Sequence x;
  x.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    x.push_back(static_cast<seq::DataItem>((id + i) % kDomain));
  }
  return x;
}

/// Stenning data frame id for (index, item).
sim::MsgId data_id(std::size_t index, seq::DataItem item) {
  return static_cast<sim::MsgId>(index) * kDomain + item;
}

// --------------------------------------------------------------------------
// Manifest codec
// --------------------------------------------------------------------------

store::SessionManifest sample_manifest() {
  store::SessionManifest m;
  m.session = 0xCAFE;
  m.is_sender = false;
  m.epoch = 3;
  m.seq = 41;
  m.proto_tag = store::proto_tag_of("stenning-receiver");
  m.position = 7;
  m.completed = true;
  m.endpoint_state = "202 1 3 0 1 2 4 102 3";
  return m;
}

TEST(SessionManifest, PayloadMatchesGolden) {
  // The on-disk format: these bytes must never drift.
  EXPECT_EQ(sample_manifest().to_payload(),
            "7001 51966 0 3 41 3698354264939363239 7 1 0 "
            "9 202 1 3 0 1 2 4 102 3");
}

/// A delta of the same session: the two items written since position 5.
store::SessionManifest sample_delta() {
  store::SessionManifest m = sample_manifest();
  m.base = 5;
  m.endpoint_state = "203 1 5 2 5 6 2 102 7";
  return m;
}

TEST(SessionManifest, DeltaPayloadMatchesGolden) {
  // The delta record's on-disk format: `base` right after `owner`.
  const store::SessionManifest m = sample_delta();
  const std::string payload = m.to_payload();
  EXPECT_EQ(payload,
            "7002 51966 0 3 41 3698354264939363239 7 1 0 5 "
            "9 203 1 5 2 5 6 2 102 7");
  const auto back = store::SessionManifest::from_payload(payload);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->session, m.session);
  EXPECT_EQ(back->is_sender, m.is_sender);
  EXPECT_EQ(back->epoch, m.epoch);
  EXPECT_EQ(back->seq, m.seq);
  EXPECT_EQ(back->proto_tag, m.proto_tag);
  EXPECT_EQ(back->position, m.position);
  EXPECT_EQ(back->completed, m.completed);
  EXPECT_EQ(back->owner, m.owner);
  EXPECT_EQ(back->base, m.base);
  EXPECT_EQ(back->endpoint_state, m.endpoint_state);
  EXPECT_EQ(back->to_payload(), payload);
  // A full record reads back as one (base 0).
  EXPECT_EQ(store::SessionManifest::from_payload(
                sample_manifest().to_payload())->base,
            0u);
}

TEST(SessionManifest, PayloadRoundTrip) {
  const auto m = sample_manifest();
  const auto back = store::SessionManifest::from_payload(m.to_payload());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->session, m.session);
  EXPECT_EQ(back->is_sender, m.is_sender);
  EXPECT_EQ(back->epoch, m.epoch);
  EXPECT_EQ(back->seq, m.seq);
  EXPECT_EQ(back->proto_tag, m.proto_tag);
  EXPECT_EQ(back->position, m.position);
  EXPECT_EQ(back->completed, m.completed);
  EXPECT_EQ(back->endpoint_state, m.endpoint_state);
}

TEST(SessionManifest, EmptyEndpointStateRoundTrips) {
  store::SessionManifest m;
  m.session = 1;
  const auto back = store::SessionManifest::from_payload(m.to_payload());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->endpoint_state.empty());
}

TEST(SessionManifest, RejectsMalformedPayloads) {
  EXPECT_FALSE(store::SessionManifest::from_payload("").has_value());
  EXPECT_FALSE(store::SessionManifest::from_payload("junk").has_value());
  // A raw engine checkpoint / protocol blob is not a manifest (wrong tag).
  EXPECT_FALSE(store::SessionManifest::from_payload("101 3 0 1 2").has_value());
  const std::string good = sample_manifest().to_payload();
  // Truncations never parse.
  for (std::size_t cut = 0; cut < good.size(); cut += 3) {
    EXPECT_FALSE(
        store::SessionManifest::from_payload(good.substr(0, cut)).has_value())
        << "cut=" << cut;
  }
  // Trailing garbage never parses (r.done() is part of the contract).
  EXPECT_FALSE(store::SessionManifest::from_payload(good + " 9").has_value());

  // An out-of-range token, junk inside the endpoint state, a blob length
  // past the end or below zero, a negative unsigned field.
  const auto replaced = [&](const std::string& from, const std::string& to) {
    std::string p = good;
    p.replace(p.find(from), from.size(), to);
    return p;
  };
  for (const std::string& bad :
       {replaced(" 51966 ", " 99999999999999999999 "),
        replaced(" 4 102 ", " 4x 102 "), replaced(" 9 202 ", " 12 202 "),
        replaced(" 9 202 ", " -1 202 "), replaced(" 41 ", " -41 ")}) {
    EXPECT_FALSE(store::SessionManifest::from_payload(bad).has_value()) << bad;
  }
  // Non-canonical spellings of the same record are malformed too.
  for (const std::string& rough :
       {" " + good, good + " ", replaced(" 3 41 ", "  3 +41 "),
        replaced(" 7 1 0 ", " 007 1 -0 "), replaced(" 102 3", " 102  +3")}) {
    EXPECT_FALSE(store::SessionManifest::from_payload(rough).has_value())
        << rough;
  }

  // Delta records: base 0 is spelled as a full record, and a base past
  // the position extends nothing, in any spelling.  Truncations never
  // parse.
  const std::string delta = sample_delta().to_payload();
  ASSERT_TRUE(store::SessionManifest::from_payload(delta).has_value());
  const auto rebased = [&](const std::string& base) {
    std::string p = delta;
    p.replace(p.find(" 0 5 9 203 "), 11, " 0 " + base + " 9 203 ");
    return p;
  };
  for (const std::string& bad :
       {rebased("0"), rebased("+0"), rebased("8"), rebased("08"),
        rebased("-5")}) {
    EXPECT_FALSE(store::SessionManifest::from_payload(bad).has_value()) << bad;
  }
  EXPECT_TRUE(store::SessionManifest::from_payload(rebased("7")).has_value());
  for (std::size_t cut = 0; cut < delta.size(); cut += 3) {
    EXPECT_FALSE(
        store::SessionManifest::from_payload(delta.substr(0, cut)).has_value())
        << "cut=" << cut;
  }
  EXPECT_FALSE(store::SessionManifest::from_payload(delta + " 9").has_value());
}

// Reference codec: the blob format as plain strtoll / to_string code,
// independent of util/blob, so the cached-text paths are held byte for
// byte against what records have always been.  It is strict, as every
// reader is: a token counts only if it is exactly std::to_string of its
// value, tokens are separated by single spaces, and there is no leading
// or trailing space.

std::optional<std::vector<std::int64_t>> ref_tokens(const std::string& text) {
  std::vector<std::int64_t> out;
  if (text.empty()) return out;
  std::size_t start = 0;
  while (true) {
    const std::size_t stop = std::min(text.find(' ', start), text.size());
    const std::string tok = text.substr(start, stop - start);
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(tok.c_str(), &end, 10);
    if (errno != 0 || end == tok.c_str() || *end != '\0' ||
        std::to_string(v) != tok) {
      return std::nullopt;
    }
    out.push_back(v);
    if (stop == text.size()) return out;
    start = stop + 1;
  }
}

std::string ref_join(const std::vector<std::int64_t>& values) {
  std::string out;
  for (const std::int64_t v : values) {
    if (!out.empty()) out += ' ';
    out += std::to_string(v);
  }
  return out;
}

/// `head` followed by `blob` nested as a length-prefixed vec.
std::string ref_nest(std::vector<std::int64_t> head, const std::string& blob) {
  const auto inner = ref_tokens(blob).value_or(std::vector<std::int64_t>{});
  head.push_back(static_cast<std::int64_t>(inner.size()));
  head.insert(head.end(), inner.begin(), inner.end());
  return ref_join(head);
}

std::string ref_payload(const store::SessionManifest& m) {
  return ref_nest({7001, m.session, m.is_sender,
                   static_cast<std::int64_t>(m.epoch),
                   static_cast<std::int64_t>(m.seq),
                   static_cast<std::int64_t>(m.proto_tag),
                   static_cast<std::int64_t>(m.position), m.completed,
                   m.owner},
                  m.endpoint_state);
}

std::optional<store::SessionManifest> ref_from_payload(const std::string& p) {
  const auto toks = ref_tokens(p);
  if (!toks || toks->size() < 10) return std::nullopt;
  const std::vector<std::int64_t>& v = *toks;
  const auto flag = [](std::int64_t b) { return b == 0 || b == 1; };
  const auto u32 = [](std::int64_t u) { return u >= 0 && u <= 0xFFFFFFFF; };
  if (v[0] != 7001 || !u32(v[1]) || !flag(v[2]) || v[3] < 0 || v[4] < 0 ||
      v[5] < 0 || v[6] < 0 || !flag(v[7]) || !u32(v[8]) || v[9] < 0 ||
      static_cast<std::size_t>(v[9]) != v.size() - 10) {
    return std::nullopt;
  }
  store::SessionManifest m;
  m.session = static_cast<std::uint32_t>(v[1]);
  m.is_sender = v[2] == 1;
  m.epoch = static_cast<std::uint64_t>(v[3]);
  m.seq = static_cast<std::uint64_t>(v[4]);
  m.proto_tag = static_cast<std::uint64_t>(v[5]);
  m.position = static_cast<std::uint64_t>(v[6]);
  m.completed = v[7] == 1;
  m.owner = static_cast<std::uint32_t>(v[8]);
  m.endpoint_state = ref_join({v.begin() + 10, v.end()});
  return m;
}

std::string show(const std::optional<store::SessionManifest>& m) {
  if (!m) return "none";
  return ref_join({m->session, m->is_sender,
                   static_cast<std::int64_t>(m->epoch),
                   static_cast<std::int64_t>(m->seq),
                   static_cast<std::int64_t>(m->proto_tag),
                   static_cast<std::int64_t>(m->position), m->completed,
                   m->owner}) +
         " | " + m->endpoint_state;
}

std::vector<std::int64_t> random_tokens(Rng& rng) {
  std::vector<std::int64_t> out(rng.below(40));
  for (auto& v : out) {
    switch (rng.below(4)) {
      case 0: v = rng.range(-9, 9); break;
      case 1: v = rng.range(-100000, 100000); break;
      case 2: v = static_cast<std::int64_t>(rng()); break;
      default:
        v = rng.chance(0.5) ? std::numeric_limits<std::int64_t>::max()
                            : std::numeric_limits<std::int64_t>::min();
    }
  }
  return out;
}

/// One non-canonical edit of blob text: a doubled, leading or trailing
/// space, or a '+' or a leading zero on a token.  Some edits keep the
/// text parseable, some do not ("0-5").
std::string roughen(Rng& rng, std::string text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == ' ') starts.push_back(i + 1);
  }
  const std::size_t at = starts[rng.index_into(starts)];
  switch (rng.below(5)) {
    case 0: text.insert(at, " "); break;
    case 1: text.insert(0, " "); break;
    case 2: text.push_back(' '); break;
    case 3: text.insert(at, "+"); break;
    default: text.insert(at, "0"); break;
  }
  return text;
}

const std::vector<std::string>& non_canonical_blobs() {
  static const std::vector<std::string> blobs = {
      "+5", "007", "-0", "1  2", "1 2 ", " 3", "", "12345678901234567890",
      "00000000000000000001", "9223372036854775808", "-9223372036854775809",
      "9223372036854775807 -9223372036854775808", "\t5", "5\t", "1 x 2"};
  return blobs;
}

store::SessionManifest random_manifest(Rng& rng, std::string endpoint_state) {
  store::SessionManifest m;
  m.session = static_cast<std::uint32_t>(rng());
  m.is_sender = rng.chance(0.5);
  m.epoch = 1 + rng.below(1000);
  m.seq = rng() >> 1;
  // Now and then past INT64_MAX: printed negative, refused on the way in.
  m.proto_tag = rng.chance(0.9) ? rng() >> 1 : rng();
  m.position = rng.below(1 << 20);
  m.completed = rng.chance(0.5);
  m.owner = static_cast<std::uint32_t>(rng());
  m.endpoint_state = std::move(endpoint_state);
  return m;
}

TEST(SessionManifest, CodecMatchesReference_Property) {
  Rng rng(0x5E55);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string state;
    switch (rng.below(3)) {
      case 0: state = ref_join(random_tokens(rng)); break;
      case 1: state = rng.pick(non_canonical_blobs()); break;
      default: state = roughen(rng, ref_join(random_tokens(rng))); break;
    }
    const auto m = random_manifest(rng, state);
    const std::string payload = m.to_payload();
    ASSERT_EQ(payload, ref_payload(m)) << "endpoint state [" << state << "]";
    EXPECT_EQ(show(store::SessionManifest::from_payload(payload)),
              show(ref_from_payload(payload)))
        << payload;
    const std::string rough = roughen(rng, payload);
    EXPECT_EQ(show(store::SessionManifest::from_payload(rough)),
              show(ref_from_payload(rough)))
        << "[" << rough << "]";
  }
}

/// The adapter blob by the reference codec: tag, safety flag, the tape as
/// a vec, the wrapped receiver's own blob nested.
std::string ref_receiver_blob(const proto::ReceiverSessionEndpoint& ep,
                              const sim::IReceiver& inner) {
  std::vector<std::int64_t> head{202, ep.safety_ok(),
                                 static_cast<std::int64_t>(ep.output().size())};
  head.insert(head.end(), ep.output().begin(), ep.output().end());
  return ref_nest(std::move(head), inner.save_state());
}

TEST(SessionManifest, EndpointBlobsMatchReference_Property) {
  Rng rng(0xB10B);
  const auto check = [](const proto::ReceiverSessionEndpoint& ep,
                        const sim::IReceiver& inner) {
    const std::string blob = ep.save_state();
    ASSERT_EQ(blob, ref_receiver_blob(ep, inner));
    store::SessionManifest m;
    m.position = ep.items_done();
    m.endpoint_state = blob;
    const std::string payload = m.to_payload();
    ASSERT_EQ(payload, ref_payload(m));
    const auto back = store::SessionManifest::from_payload(payload);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->endpoint_state, blob);
  };
  const auto write_next = [](proto::ReceiverSessionEndpoint& ep) {
    const std::size_t i = ep.items_done();
    ep.on_deliver(data_id(i, ep.expected()[i]));
    (void)ep.step();
  };
  for (std::uint32_t trial = 0; trial < 40; ++trial) {
    const auto x = seq_for(trial, 2 + rng.below(300));
    // Writes: the cached tape text grows with every item.
    auto pair = proto::make_stenning(kDomain);
    const sim::IReceiver& inner = *pair.receiver;
    proto::ReceiverSessionEndpoint ep(std::move(pair.receiver), x);
    const std::size_t progress = 1 + rng.below(x.size() - 1);
    check(ep, inner);
    while (ep.items_done() < progress) {
      write_next(ep);
      check(ep, inner);
    }
    // Restore: the text is rebuilt from the restored tape, or, when a
    // roughened blob is refused, stays the cold endpoint's.
    std::string blob = ep.save_state();
    if (rng.chance(0.5)) blob = roughen(rng, blob);
    auto fresh = proto::make_stenning(kDomain);
    const sim::IReceiver& inner2 = *fresh.receiver;
    proto::ReceiverSessionEndpoint back(std::move(fresh.receiver), x);
    (void)back.restore_state(blob);
    check(back, inner2);
    write_next(back);
    check(back, inner2);
    // Cold-start fallback: an unusable protocol state drops the tape, and
    // its text with it.
    std::vector<std::int64_t> cold{202, 1,
                                   static_cast<std::int64_t>(back.items_done())};
    cold.insert(cold.end(), back.output().begin(), back.output().end());
    cold.push_back(0);
    EXPECT_FALSE(back.restore_state(ref_join(cold)));
    EXPECT_EQ(back.items_done(), 0u);
    check(back, inner2);
    write_next(back);
    check(back, inner2);
    // The sender adapter nests its protocol's blob the same way.
    auto sp = proto::make_stenning(kDomain);
    const sim::ISender& sender = *sp.sender;
    proto::SenderSessionEndpoint sep(std::move(sp.sender), x);
    if (rng.chance(0.5)) sep.finish();
    EXPECT_EQ(sep.save_state(),
              ref_nest({201, sep.done()}, sender.save_state()));
  }
}

TEST(SessionManifest, NewerThanOrdersByEpochThenSeq) {
  store::SessionManifest a, b;
  a.epoch = 1;
  a.seq = 50;
  b.epoch = 2;
  b.seq = 1;
  EXPECT_TRUE(b.newer_than(a));   // epoch dominates seq
  EXPECT_FALSE(a.newer_than(b));
  b.epoch = 1;
  EXPECT_TRUE(a.newer_than(b));   // same epoch: seq decides
  EXPECT_FALSE(a.newer_than(a));  // irreflexive
}

TEST(SessionManifest, ProtoTagFingerprintsTheName) {
  const auto t1 = store::proto_tag_of("stenning-receiver");
  EXPECT_EQ(t1, store::proto_tag_of("stenning-receiver"));
  EXPECT_NE(t1, store::proto_tag_of("stenning-sender"));
  EXPECT_NE(t1, store::proto_tag_of("abp-receiver"));
}

// --------------------------------------------------------------------------
// Session log scan + compaction
// --------------------------------------------------------------------------

store::SessionManifest tiny_manifest(std::uint32_t session, std::uint64_t epoch,
                                     std::uint64_t seq, std::uint64_t position,
                                     bool completed = false) {
  store::SessionManifest m;
  m.session = session;
  m.epoch = epoch;
  m.seq = seq;
  m.proto_tag = store::proto_tag_of("stenning-receiver");
  m.position = position;
  m.completed = completed;
  return m;
}

TEST(SessionLogScan, FoldsNewestPerSessionNotByteOrder) {
  store::MemStore st;
  st.reset();
  // Byte order deliberately disagrees with (epoch, seq) order — the
  // stale-snapshot hazard: old records can reappear behind newer ones.
  st.append(tiny_manifest(1, 1, 5, 3).to_payload());
  st.append(tiny_manifest(2, 2, 1, 4).to_payload());
  st.append(tiny_manifest(1, 1, 2, 1).to_payload());  // stale: seq 2 < 5
  st.append(tiny_manifest(2, 1, 9, 2).to_payload());  // stale: epoch 1 < 2
  st.append("42 7");                                  // foreign payload
  const auto scan = store::scan_session_logs({&st});
  EXPECT_EQ(scan.records_scanned, 4u);
  EXPECT_EQ(scan.records_skipped, 1u);  // the foreign payload
  EXPECT_EQ(scan.max_epoch, 2u);
  ASSERT_EQ(scan.newest.size(), 2u);
  EXPECT_EQ(scan.newest.at(1).position, 3u);
  EXPECT_EQ(scan.newest.at(2).position, 4u);
}

TEST(SessionLogScan, MergesAcrossStoresAndCountsDamage) {
  store::MemStore a, b;
  a.reset();
  b.reset();
  a.append(tiny_manifest(1, 1, 1, 1).to_payload());
  b.append(tiny_manifest(1, 1, 2, 2).to_payload());  // newer, other store
  b.append(tiny_manifest(3, 1, 3, 5).to_payload());
  b.fault_corrupt_record();  // newest record of b damaged
  const auto scan = store::scan_session_logs({&a, &b});
  EXPECT_GE(scan.records_skipped, 1u);
  ASSERT_EQ(scan.newest.size(), 1u);
  EXPECT_EQ(scan.newest.at(1).position, 2u);
}

TEST(SessionLogScan, StaleSnapshotResurrectionIsBenign) {
  // StoreImage::compact keeps the newest record, so exercise the fault on
  // a single-session log: after the rollback the pre-compaction records
  // reappear, and the (epoch, seq) fold still lands on the newest state.
  store::MemStore st;
  st.reset();
  st.append(tiny_manifest(9, 1, 1, 1).to_payload());
  st.append(tiny_manifest(9, 1, 2, 2).to_payload());
  st.compact();
  st.append(tiny_manifest(9, 1, 3, 3).to_payload());
  st.fault_stale_snapshot();
  const auto scan = store::scan_session_logs({&st});
  ASSERT_EQ(scan.newest.size(), 1u);
  EXPECT_EQ(scan.newest.at(9).position, 3u);
  EXPECT_GE(scan.records_scanned, 2u);
}

TEST(SessionLogCompact, KeepsExactlyNewestPerSession) {
  store::MemStore st;
  st.reset();
  for (std::uint64_t s = 1; s <= 6; ++s) {
    st.append(tiny_manifest(1, 1, s, s).to_payload());
    st.append(tiny_manifest(2, 1, s + 10, s).to_payload());
  }
  const std::uint64_t dropped = store::compact_session_log(st);
  EXPECT_EQ(dropped, 10u);
  const auto replayed = st.replay();
  EXPECT_EQ(replayed.payloads.size(), 2u);
  const auto scan = store::scan_session_logs({&st});
  ASSERT_EQ(scan.newest.size(), 2u);
  EXPECT_EQ(scan.newest.at(1).position, 6u);
  EXPECT_EQ(scan.newest.at(2).position, 6u);
}

// --------------------------------------------------------------------------
// Store replay + FileStore group commit
// --------------------------------------------------------------------------

TEST(StoreReplay, OldestFirstAndDamageCounted) {
  store::MemStore st;
  st.reset();
  st.append("10");
  st.append("20");
  st.append("30");
  auto rep = st.replay();
  ASSERT_EQ(rep.payloads.size(), 3u);
  EXPECT_EQ(rep.payloads[0], "10");
  EXPECT_EQ(rep.payloads[2], "30");
  st.fault_corrupt_record();
  rep = st.replay();
  EXPECT_EQ(rep.payloads.size(), 2u);
  EXPECT_GE(rep.records_skipped, 1u);
}

/// The record framing as a plain sequential walk, independent of the
/// store: [SPXR][u32 length][u64 FNV-1a][payload], little-endian; a
/// region that does not frame or checksum runs to the next magic.
std::vector<store::RecordUnit> ref_records(const std::string& buf) {
  const auto fnv = [](const std::string& bytes) {
    std::uint64_t h = 14695981039346656037ULL;
    for (const unsigned char c : bytes) h = (h ^ c) * 1099511628211ULL;
    return h;
  };
  const auto le = [&buf](std::size_t at, int n) {
    std::uint64_t v = 0;
    for (int i = n - 1; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(buf[at + i]);
    }
    return v;
  };
  std::vector<store::RecordUnit> out;
  std::size_t pos = 0;
  while (pos < buf.size()) {
    if (buf.compare(pos, 4, "SPXR") == 0 && pos + 16 <= buf.size()) {
      const std::uint64_t len = le(pos + 4, 4);
      if (pos + 16 + len <= buf.size()) {
        std::string payload = buf.substr(pos + 16, len);
        if (fnv(payload) == le(pos + 8, 8)) {
          out.push_back({pos, 16 + len, std::move(payload), true});
          pos += 16 + len;
          continue;
        }
      }
    }
    const std::size_t next = buf.find("SPXR", pos + 1);
    const std::size_t end = next == std::string::npos ? buf.size() : next;
    out.push_back({pos, end - pos, std::string{}, false});
    pos = end;
  }
  return out;
}

std::string show(const std::vector<store::RecordUnit>& units) {
  std::string out;
  for (const store::RecordUnit& u : units) {
    out += std::to_string(u.offset) + "+" + std::to_string(u.size) +
           (u.valid ? " [" + u.payload + "]\n" : " damaged\n");
  }
  return out;
}

/// What replay() must return for `img`: parse_records() over the snapshot
/// and then the log, the valid payloads in order and the damaged regions
/// counted.
store::ReplayResult replay_by_units(const store::StoreImage& img) {
  store::ReplayResult out;
  for (const std::string* buf : {&img.snapshot, &img.log}) {
    for (const store::RecordUnit& u : store::parse_records(*buf)) {
      if (u.valid) {
        out.payloads.push_back(u.payload);
      } else {
        ++out.records_skipped;
      }
    }
  }
  return out;
}

TEST(StoreReplay, MatchesParseRecordsOnDamagedBuffers) {
  // replay() checksums and copies each payload where it lies;
  // parse_records() keeps every unit.  Both run on one walker, so on
  // torn, corrupted, stale-snapshot and resynced buffers they agree, and
  // the walker, which checksums records four at a time, splits every
  // buffer as a plain one-record-at-a-time walk does.
  const auto check = [](const store::StoreImage& img, const std::string& what) {
    for (const std::string* buf : {&img.snapshot, &img.log}) {
      ASSERT_EQ(show(store::parse_records(*buf)), show(ref_records(*buf)))
          << what;
    }
    const store::ReplayResult want = replay_by_units(img);
    const store::ReplayResult got = img.replay();
    EXPECT_EQ(got.payloads, want.payloads) << what;
    EXPECT_EQ(got.records_skipped, want.records_skipped) << what;
  };
  store::StoreImage img;
  for (int i = 1; i <= 5; ++i) img.append(std::to_string(i) + " 7");
  check(img, "clean");
  img.torn_next = true;
  img.append("6 7");
  img.append("8 7");
  check(img, "torn");
  EXPECT_EQ(img.replay().records_skipped, 1u);
  img.corrupt_record();
  check(img, "corrupted");
  img.compact();
  img.append("9 7");
  img.stale_snapshot();
  check(img, "stale snapshot");
  // The five intact records the compaction folded in come back, and "9 7".
  EXPECT_EQ(img.replay().payloads.size(), 5u + 1u);

  // Resynced: junk between records, a stray magic, an empty payload, a
  // header whose length runs past the end, and a header cut short.
  store::StoreImage junk;
  junk.log = store::encode_record("1") + "xx" + store::encode_record("2") +
             "SPXR" + store::encode_record("") + "SPXRxxxxxxxxxxxxxxxx" +
             store::encode_record("3") + "SPXR\xff\xff\xff\x7f" +
             store::encode_record("4") +
             store::encode_record("5").substr(0, 10);
  check(junk, "resynced");
  EXPECT_EQ(junk.replay().payloads,
            (std::vector<std::string>{"1", "2", "", "3", "4"}));

  // Random damage: flipped bytes, cut records and inserted junk.
  Rng rng(0xD1CE);
  for (int trial = 0; trial < 500; ++trial) {
    store::StoreImage r;
    const std::size_t n = rng.below(12);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.chance(0.1)) {
        r.snapshot += store::encode_record(std::to_string(i));
      }
      r.append(ref_join(random_tokens(rng)));
    }
    for (std::string* buf : {&r.snapshot, &r.log}) {
      for (std::size_t k = rng.below(4); k > 0 && !buf->empty(); --k) {
        const std::size_t at = rng.below(buf->size());
        switch (rng.below(3)) {
          case 0:
            (*buf)[at] = static_cast<char>((*buf)[at] ^ (1 << rng.below(8)));
            break;
          case 1: buf->erase(at, 1 + rng.below(20)); break;
          default: buf->insert(at, rng.chance(0.5) ? "SPXR" : "x"); break;
        }
      }
    }
    check(r, "trial " + std::to_string(trial));
  }
}

TEST(StoreReplay, DefaultAppendBatchMatchesLoopedAppends) {
  store::MemStore st;
  st.reset();
  st.append_batch({"1", "2", "3"});
  EXPECT_EQ(st.appends(), 3u);
  const auto rep = st.replay();
  ASSERT_EQ(rep.payloads.size(), 3u);
  EXPECT_EQ(rep.payloads[1], "2");
}

TEST(FileStore, AppendBatchIsOneSync) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "stpx_fs_group").string();
  store::FileStore s(dir);
  s.reset();
  s.append_batch({"1", "2", "3", "4", "5"});
  EXPECT_EQ(store::FileStore(dir).replay().payloads.size(), 5u);
  std::filesystem::remove_all(dir);
}

// Torn-write recovery resyncs after a torn tail.  The dying process's
// last append was torn mid-write; recovery must land on the newest
// intact record, count the damage, and the reopened log must keep
// working past the torn bytes.
TEST(FileStore, TornWriteRecoveryAfterBatchedTailLoss) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "stpx_fs_torn").string();
  {
    store::FileStore s(dir);
    s.reset();
    s.append("1");
    s.append("2");
    s.append("3");
    s.fault_torn_next_append();
    s.append("4");  // torn mid-write: half the record reaches the log
  }
  store::FileStore b(dir);
  auto rec = b.recover();
  EXPECT_TRUE(rec.found);
  EXPECT_EQ(rec.state, "3");  // newest intact record before the torn tail
  EXPECT_GE(rec.records_skipped, 1u);
  // The log is still appendable: a new record past the damaged region is
  // found by the re-sync scan.
  b.append("7");
  store::FileStore c(dir);
  rec = c.recover();
  EXPECT_TRUE(rec.found);
  EXPECT_EQ(rec.state, "7");
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------------------------
// Endpoint save/restore
// --------------------------------------------------------------------------

/// Drive a fresh Stenning receiver endpoint `progress` items into `x`.
std::unique_ptr<proto::ReceiverSessionEndpoint> driven_receiver(
    const seq::Sequence& x, std::size_t progress) {
  auto pair = proto::make_stenning(kDomain);
  auto ep = std::make_unique<proto::ReceiverSessionEndpoint>(
      std::move(pair.receiver), x);
  for (std::size_t i = 0; i < progress; ++i) {
    ep->on_deliver(data_id(i, x[i]));
    (void)ep->step();
  }
  STPX_EXPECT(ep->items_done() == progress, "driven_receiver: bad progress");
  return ep;
}

TEST(EndpointDurability, ReceiverSaveRestoreResumesMidTransfer) {
  const auto x = seq_for(3, 6);
  auto ep = driven_receiver(x, 4);
  const std::string blob = ep->save_state();

  auto fresh = proto::make_stenning(kDomain);
  proto::ReceiverSessionEndpoint back(std::move(fresh.receiver), x);
  ASSERT_TRUE(back.restore_state(blob));
  EXPECT_TRUE(back.safety_ok());
  EXPECT_EQ(back.items_done(), 4u);
  // Retransmits below the frontier are ignored; the next item lands.
  back.on_deliver(data_id(2, x[2]));
  (void)back.step();
  EXPECT_EQ(back.items_done(), 4u);
  back.on_deliver(data_id(4, x[4]));
  (void)back.step();
  EXPECT_EQ(back.items_done(), 5u);
  back.on_deliver(data_id(5, x[5]));
  (void)back.step();
  EXPECT_TRUE(back.done());
}

TEST(EndpointDurability, SenderSaveRestoreKeepsFinState) {
  const auto x = seq_for(1, 4);
  auto pair = proto::make_stenning(kDomain);
  proto::SenderSessionEndpoint ep(std::move(pair.sender), x);
  ep.finish();
  const std::string blob = ep.save_state();

  auto fresh = proto::make_stenning(kDomain);
  proto::SenderSessionEndpoint back(std::move(fresh.sender), x);
  ASSERT_TRUE(back.restore_state(blob));
  EXPECT_TRUE(back.done());
  EXPECT_EQ(back.items_done(), x.size());
}

TEST(EndpointDurability, NonPrefixTapeIsARecoveryCanary) {
  const auto x = seq_for(3, 6);
  const std::string blob = driven_receiver(x, 3)->save_state();
  // Restore against a DIFFERENT expected sequence: the durable tape is no
  // longer a prefix — restored, and provably broken.
  seq::Sequence other(6, static_cast<seq::DataItem>(7));
  auto fresh = proto::make_stenning(kDomain);
  proto::ReceiverSessionEndpoint back(std::move(fresh.receiver), other);
  ASSERT_TRUE(back.restore_state(blob));
  EXPECT_FALSE(back.safety_ok());
  // Broken endpoints go silent, they never write.
  back.on_deliver(data_id(0, other[0]));
  EXPECT_FALSE(back.step().has_value());
  EXPECT_EQ(back.items_done(), 3u);  // the tape is evidence, kept as-is
}

TEST(EndpointDurability, UnusableBlobColdStartsWithEmptyTape) {
  const auto x = seq_for(2, 4);
  auto fresh = proto::make_stenning(kDomain);
  proto::ReceiverSessionEndpoint back(std::move(fresh.receiver), x);
  EXPECT_FALSE(back.restore_state("999 junk"));
  EXPECT_TRUE(back.safety_ok());
  EXPECT_EQ(back.items_done(), 0u);
  // Cold means genuinely cold: delivery restarts from the front.
  back.on_deliver(data_id(0, x[0]));
  (void)back.step();
  EXPECT_EQ(back.items_done(), 1u);
}

TEST(EndpointDurability, ReceiverDeltaChainRestoresTheTape) {
  const auto x = seq_for(5, 12);
  auto pair = proto::make_stenning(kDomain);
  const sim::IReceiver& inner = *pair.receiver;
  proto::ReceiverSessionEndpoint live(std::move(pair.receiver), x);
  const auto write_next = [&x](proto::ReceiverSessionEndpoint& ep) {
    const std::size_t i = ep.items_done();
    ep.on_deliver(data_id(i, x[i]));
    (void)ep.step();
  };
  for (int i = 0; i < 3; ++i) write_next(live);
  // A full blob, then one delta per step, the way a durable mux logs them.
  std::string chain = live.save_state();
  for (std::size_t at = live.items_done(); at < 9; at = live.items_done()) {
    write_next(live);
    const std::string delta = live.save_state(at);
    EXPECT_EQ(delta, ref_nest({203, 1, static_cast<std::int64_t>(at), 1, x[at]},
                              inner.save_state()));
    chain += " " + delta;
  }
  auto fresh = proto::make_stenning(kDomain);
  proto::ReceiverSessionEndpoint back(std::move(fresh.receiver), x);
  ASSERT_TRUE(back.restore_state(chain));
  EXPECT_TRUE(back.safety_ok());
  EXPECT_EQ(back.output(), live.output());
  EXPECT_EQ(back.items_done(), live.items_done());
  EXPECT_EQ(back.save_state(), live.save_state());
  EXPECT_EQ(back.save_state(4), live.save_state(4));
  // The restored endpoint resumes where the live one stands.
  write_next(back);
  write_next(live);
  EXPECT_EQ(back.save_state(), live.save_state());

  // A delta that does not start where the tape ends does not chain: the
  // whole blob is unusable and the endpoint cold-starts.
  auto ep = driven_receiver(x, 2);
  std::string broken = ep->save_state();
  write_next(*ep);
  write_next(*ep);
  broken += " " + ep->save_state(3);  // starts at 3; the tape ends at 2
  auto cold = proto::make_stenning(kDomain);
  proto::ReceiverSessionEndpoint gap(std::move(cold.receiver), x);
  EXPECT_FALSE(gap.restore_state(broken));
  EXPECT_EQ(gap.items_done(), 0u);
  EXPECT_TRUE(gap.safety_ok());
  // So does a chain that starts with a delta.
  EXPECT_FALSE(gap.restore_state(live.save_state(2)));
  EXPECT_EQ(gap.items_done(), 0u);
}

/// The tokens of blob text split at single spaces, and back.
std::vector<std::string> words(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == ' ') {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string unwords(const std::vector<std::string>& ws) {
  std::string out;
  for (const std::string& w : ws) {
    if (!out.empty()) out += ' ';
    out += w;
  }
  return out;
}

/// What a fresh receiver expecting `x` makes of `blob`.
std::string restore_outcome(const seq::Sequence& x, const std::string& blob) {
  auto fresh = proto::make_stenning(kDomain);
  proto::ReceiverSessionEndpoint ep(std::move(fresh.receiver), x);
  const bool ok = ep.restore_state(blob);
  return (ok ? "restored " : "cold ") +
         std::string(ep.safety_ok() ? "safe" : "unsafe") + " | " +
         ep.save_state();
}

/// A cold start: nothing restored, nothing broken.
std::string cold_outcome(const seq::Sequence& x) {
  return restore_outcome(x, "");
}

TEST(EndpointDurability, ChainRestore_Property) {
  // A chain is read in one pass over canonical text and lands on the tape,
  // safety flag and state it was written from; any other spelling of it
  // is refused like damage, and the endpoint cold-starts.  Random chains:
  // one full blob and 0-40 deltas at random tape lengths, each with a
  // random safety flag, restored against the sequence they were written
  // from or, now and then, another one.
  Rng rng(0xC4A1);
  for (std::uint32_t trial = 0; trial < 400; ++trial) {
    const auto x = seq_for(trial, 1 + rng.below(120));
    auto pair = proto::make_stenning(kDomain);
    proto::ReceiverSessionEndpoint live(std::move(pair.receiver), x);
    const auto advance = [&](std::size_t k) {
      for (; k > 0 && live.items_done() < x.size(); --k) {
        const std::size_t i = live.items_done();
        live.on_deliver(data_id(i, x[i]));
        (void)live.step();
      }
    };
    const std::size_t deltas = rng.below(41);
    // A delta starts past 0 (from 0 is a full blob), so a chain with
    // deltas opens at position 1 or later.
    advance(std::max<std::size_t>(deltas > 0, rng.below(x.size() + 1)));
    std::vector<std::vector<std::string>> blobs{words(live.save_state())};
    for (std::size_t d = deltas; d > 0; --d) {
      const std::size_t from = live.items_done();
      advance(rng.below(4));
      blobs.push_back(words(live.save_state(from)));
    }
    for (auto& b : blobs) {
      if (rng.chance(0.15)) b[1] = "0";  // the safety flag
    }
    std::string chain;
    for (const auto& b : blobs) {
      chain += (chain.empty() ? "" : " ") + unwords(b);
    }
    const seq::Sequence target =
        rng.chance(0.1) ? seq_for(trial + 1, x.size()) : x;

    auto fresh = proto::make_stenning(kDomain);
    proto::ReceiverSessionEndpoint back(std::move(fresh.receiver), target);
    ASSERT_TRUE(back.restore_state(chain)) << chain;
    EXPECT_EQ(back.output(), live.output()) << chain;
    const bool safe =
        blobs.back()[1] == "1" && seq::is_prefix(live.output(), target);
    EXPECT_EQ(back.safety_ok(), safe) << chain;
    if (safe && target == x) {
      EXPECT_EQ(back.save_state(), live.save_state());
    }

    const std::string rough = roughen(rng, chain);
    EXPECT_EQ(restore_outcome(target, rough), cold_outcome(target))
        << "[" << rough << "]";

    // Broken chains cold-start, in either spelling.  Token positions: a
    // full blob is [202 flag n items.. m protocol..], a delta [203 flag
    // from n items.. m protocol..].
    const auto count_at = [&](std::size_t b) { return b == 0 ? 2u : 3u; };
    const auto nested_at = [&](std::size_t b) {
      return count_at(b) + 1 + std::stoul(blobs[b][count_at(b)]);
    };
    const auto join_with = [&](std::size_t b, std::vector<std::string> w) {
      std::string out;
      for (std::size_t i = 0; i < blobs.size(); ++i) {
        out += (out.empty() ? "" : " ") + unwords(i == b ? w : blobs[i]);
      }
      return out;
    };
    std::vector<std::pair<std::string, std::string>> broken;
    const std::size_t last = blobs.size() - 1;
    if (last > 0) {
      const std::size_t d = 1 + rng.below(last);
      auto w = blobs[d];
      const std::uint64_t from = std::stoull(w[2]);
      w[2] = std::to_string(from == 0 || rng.chance(0.5) ? from + 1 : from - 1);
      broken.emplace_back("a delta that does not start at the tape's end",
                          join_with(d, w));
      std::string leading;
      for (std::size_t i = 1; i < blobs.size(); ++i) {
        leading += (leading.empty() ? "" : " ") + unwords(blobs[i]);
      }
      broken.emplace_back("a leading delta", leading);
    }
    {
      auto w = blobs[last];
      w.resize(w.size() - 1 - rng.below(w.size() - 1));
      broken.emplace_back("a truncated last blob", join_with(last, w));
    }
    {
      const std::size_t b = rng.below(blobs.size());
      auto w = blobs[b];
      w[count_at(b)] = "-1";
      broken.emplace_back("a negative item count", join_with(b, w));
    }
    {
      auto w = blobs[last];
      w[nested_at(last)] = std::to_string(w.size() - nested_at(last));
      broken.emplace_back("a nested length past the end", join_with(last, w));
    }
    // The last item of the chain, moved by 2^32: an int64 token that
    // narrows back onto the very same DataItem.
    for (std::size_t b = blobs.size(); b-- > 0;) {
      const std::size_t n = std::stoul(blobs[b][count_at(b)]);
      if (n == 0) continue;
      auto w = blobs[b];
      std::string& item = w[count_at(b) + n];
      item = std::to_string(std::stoll(item) + (std::int64_t{1} << 32));
      broken.emplace_back("an item outside DataItem", join_with(b, w));
      break;
    }
    for (const auto& [what, text] : broken) {
      EXPECT_EQ(restore_outcome(target, text), cold_outcome(target))
          << what << " [" << text << "]";
      const std::string rough_text = roughen(rng, text);
      EXPECT_EQ(restore_outcome(target, rough_text), cold_outcome(target))
          << what << " [" << rough_text << "]";
    }
  }
}

// --------------------------------------------------------------------------
// Delta chains in the session log: the fold and compaction
// --------------------------------------------------------------------------

constexpr std::size_t kChainLen = 16;

/// One receiver's records as a durable mux writes them in one epoch: a
/// full record at position `head`, then a one-item delta per item up to
/// position `end`, with seq numbers from `seq0` on.
std::vector<store::SessionManifest> receiver_chain(std::uint32_t id,
                                                   std::uint64_t epoch,
                                                   std::uint64_t seq0,
                                                   std::size_t head,
                                                   std::size_t end) {
  const auto x = seq_for(id, kChainLen);
  auto ep = driven_receiver(x, head);
  std::vector<store::SessionManifest> out;
  std::size_t from = 0;
  while (true) {
    store::SessionManifest m;
    m.session = id;
    m.epoch = epoch;
    m.seq = seq0 + out.size();
    m.proto_tag = store::proto_tag_of(ep->name());
    m.position = ep->items_done();
    m.base = from;
    m.endpoint_state = ep->save_state(from);
    out.push_back(std::move(m));
    if (ep->items_done() == end) return out;
    from = ep->items_done();
    ep->on_deliver(data_id(from, x[from]));
    (void)ep->step();
  }
}

void append_all(store::MemStore& st,
                const std::vector<store::SessionManifest>& records) {
  for (const auto& m : records) st.append(m.to_payload());
}

/// The tape a fresh receiver restores from the scan's manifest of `id`.
seq::Sequence restored_tape(const store::SessionLogScan& scan,
                            std::uint32_t id) {
  auto fresh = proto::make_stenning(kDomain);
  proto::ReceiverSessionEndpoint ep(std::move(fresh.receiver),
                                    seq_for(id, kChainLen));
  EXPECT_TRUE(ep.restore_state(scan.newest.at(id).endpoint_state));
  EXPECT_TRUE(ep.safety_ok());
  return ep.output();
}

seq::Sequence prefix(std::uint32_t id, std::size_t n) {
  auto x = seq_for(id, kChainLen);
  x.resize(n);
  return x;
}

TEST(SessionLogScan, FoldsAFullRecordAndItsDeltasIntoOneChain) {
  store::MemStore st;
  st.reset();
  const auto recs = receiver_chain(1, 1, 1, 2, 9);
  append_all(st, recs);
  const auto scan = store::scan_session_logs({&st});
  EXPECT_EQ(scan.records_scanned, recs.size());
  const store::SessionManifest& m = scan.newest.at(1);
  EXPECT_EQ(m.position, 9u);
  EXPECT_EQ(m.seq, recs.back().seq);
  EXPECT_EQ(m.base, 0u);
  EXPECT_EQ(restored_tape(scan, 1), prefix(1, 9));
  // The folded manifest is a full record: re-appended, it stands alone.
  store::MemStore alone;
  alone.reset();
  alone.append(m.to_payload());
  EXPECT_EQ(restored_tape(store::scan_session_logs({&alone}), 1),
            prefix(1, 9));
}

TEST(SessionLogScan, AGapTruncatesTheTapeToItsContiguousPrefix) {
  store::MemStore st;
  st.reset();
  auto recs = receiver_chain(1, 1, 1, 2, 9);
  // recs[3] is the delta from 4 to 5: without it the chain ends at 4,
  // even though the deltas after it survived.
  ASSERT_EQ(recs[3].base, 4u);
  recs.erase(recs.begin() + 3);
  append_all(st, recs);
  const auto scan = store::scan_session_logs({&st});
  EXPECT_EQ(scan.records_scanned, recs.size());
  EXPECT_EQ(scan.newest.at(1).position, 4u);
  EXPECT_EQ(restored_tape(scan, 1), prefix(1, 4));
}

TEST(SessionLogScan, ADeltaNeverExtendsAnotherEpochsChain) {
  store::MemStore st;
  st.reset();
  append_all(st, receiver_chain(1, 2, 1, 3, 5));
  // Epoch 3 lost its full record; its delta from 5 would fit the epoch-2
  // chain's end, but a chain never crosses an epoch.
  auto later = receiver_chain(1, 3, 1, 5, 6);
  append_all(st, {later.back()});
  ASSERT_EQ(later.back().base, 5u);
  const auto scan = store::scan_session_logs({&st});
  EXPECT_EQ(scan.max_epoch, 3u);
  EXPECT_EQ(scan.newest.at(1).epoch, 2u);
  EXPECT_EQ(scan.newest.at(1).position, 5u);
  EXPECT_EQ(restored_tape(scan, 1), prefix(1, 5));
}

TEST(SessionLogScan, ADuplicatedRecordCountsOnce) {
  store::MemStore st;
  st.reset();
  const auto recs = receiver_chain(1, 1, 1, 2, 6);
  append_all(st, recs);
  // A resurrected copy of the delta from 3 to 4, behind newer records.
  ASSERT_EQ(recs[2].base, 3u);
  st.append(recs[2].to_payload());
  const auto scan = store::scan_session_logs({&st});
  EXPECT_EQ(scan.records_scanned, recs.size() + 1);
  EXPECT_EQ(scan.newest.at(1).position, 6u);
  EXPECT_EQ(restored_tape(scan, 1), prefix(1, 6));
}

TEST(SessionLogScan, ALostFullHeadFallsBackToTheOlderEpochsChain) {
  store::MemStore st;
  st.reset();
  append_all(st, receiver_chain(1, 1, 1, 2, 7));
  auto newer = receiver_chain(1, 2, 1, 7, 10);
  newer.erase(newer.begin());  // epoch 2's full record at position 7
  append_all(st, newer);
  const auto scan = store::scan_session_logs({&st});
  EXPECT_EQ(scan.max_epoch, 2u);  // the new generation still outranks it
  EXPECT_EQ(scan.newest.at(1).epoch, 1u);
  EXPECT_EQ(scan.newest.at(1).position, 7u);
  EXPECT_EQ(restored_tape(scan, 1), prefix(1, 7));
  // A session with no full record at all is not manifested.
  store::MemStore deltas_only;
  deltas_only.reset();
  append_all(deltas_only, newer);
  EXPECT_TRUE(store::scan_session_logs({&deltas_only}).newest.empty());
}

TEST(SessionLogCompact, KeepsEveryRecordALiveChainNeeds) {
  store::MemStore st;
  st.reset();
  // Session 1: an older epoch's chain, then the live one (full head and
  // deltas), then a delta after a gap.  Session 2: one chain.
  const auto old1 = receiver_chain(1, 1, 1, 2, 4);
  const auto live1 = receiver_chain(1, 2, 1, 4, 8);
  const auto live2 = receiver_chain(2, 2, 20, 1, 5);
  auto stray = receiver_chain(1, 2, 40, 9, 10).back();
  append_all(st, old1);
  append_all(st, live1);
  append_all(st, live2);
  append_all(st, {stray});
  const auto before = store::scan_session_logs({&st});

  const std::uint64_t dropped = store::compact_session_log(st);
  EXPECT_EQ(dropped, old1.size() + 1);
  // The live chains survive verbatim, in (epoch, seq) order.
  std::vector<std::string> want;
  for (const auto& m : live1) want.push_back(m.to_payload());
  for (const auto& m : live2) want.push_back(m.to_payload());
  EXPECT_EQ(st.replay().payloads, want);
  const auto after = store::scan_session_logs({&st});
  ASSERT_EQ(after.newest.size(), 2u);
  for (const std::uint32_t id : {1u, 2u}) {
    EXPECT_EQ(after.newest.at(id).position, before.newest.at(id).position);
    EXPECT_EQ(after.newest.at(id).endpoint_state,
              before.newest.at(id).endpoint_state);
  }
  EXPECT_EQ(restored_tape(after, 1), prefix(1, 8));
  EXPECT_EQ(restored_tape(after, 2), prefix(2, 5));
}

// --------------------------------------------------------------------------
// Rehydration harness
// --------------------------------------------------------------------------

/// Prefix attestation + kill-window tracking + rehydrate seeding: item
/// events must arrive exactly in ascending per-session order, where a
/// rehydrated session's order resumes from its restored position (the
/// rehydrate event seeds the expectation) — superseded checkpoints re-earn
/// items, they never skip or repeat one within a server generation.
class DurableProbe final : public obs::IProbe {
 public:
  explicit DurableProbe(std::size_t max_sessions)
      : next_(max_sessions), restored_(max_sessions) {
    for (auto& a : next_) a.store(0, std::memory_order_relaxed);
    for (auto& a : restored_) a.store(0, std::memory_order_relaxed);
  }

  void record(const obs::TraceEvent& ev) override {
    const auto s = static_cast<net::SessionState>(ev.detail);
    const auto index_or_position = static_cast<std::size_t>(ev.msg);
    switch (ev.kind) {
      case obs::TraceEventKind::kItem: {
        ++items_;
        const std::size_t want =
            next_[ev.session].fetch_add(1, std::memory_order_relaxed);
        if (index_or_position != want) out_of_order_ = true;
        break;
      }
      case obs::TraceEventKind::kSessionState:
        if (s == net::SessionState::kCompleted) ++completed_;
        if (s == net::SessionState::kSafetyViolation) ++violations_;
        if (s == net::SessionState::kRecoveryViolation) {
          ++recovery_violations_;
        }
        break;
      case obs::TraceEventKind::kRehydrate:
        ++rehydrated_;
        next_[ev.session].store(index_or_position,
                                std::memory_order_relaxed);
        restored_[ev.session].store(index_or_position,
                                    std::memory_order_relaxed);
        break;
      default:
        break;
    }
  }

  /// Smallest per-session progress across the first `n` sessions.
  std::size_t min_progress(std::size_t n) const {
    std::size_t lo = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < n; ++i) {
      lo = std::min(lo, next_[i].load(std::memory_order_relaxed));
    }
    return lo;
  }
  std::size_t progress(std::size_t i) const {
    return next_[i].load(std::memory_order_relaxed);
  }
  std::size_t restored(std::size_t i) const {
    return restored_[i].load(std::memory_order_relaxed);
  }

  std::uint64_t items() const { return items_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t violations() const { return violations_; }
  std::uint64_t recovery_violations() const { return recovery_violations_; }
  std::uint64_t rehydrated() const { return rehydrated_; }
  bool out_of_order() const { return out_of_order_; }

 private:
  std::vector<std::atomic<std::size_t>> next_;
  std::vector<std::atomic<std::size_t>> restored_;
  std::atomic<std::uint64_t> items_{0}, completed_{0}, violations_{0},
      recovery_violations_{0}, rehydrated_{0};
  std::atomic<bool> out_of_order_{false};
};

net::StpServer::ReceiverFactory stenning_receiver_factory() {
  return [](std::uint32_t,
            std::uint64_t tag) -> std::unique_ptr<sim::IReceiver> {
    if (tag != store::proto_tag_of("stenning-receiver")) return nullptr;
    return proto::make_stenning(kDomain).receiver;
  };
}

/// Build a receiver manifest by actually driving an endpoint — the blob
/// is the real save_state(), not a synthetic one.
store::SessionManifest receiver_manifest(std::uint32_t id,
                                         const seq::Sequence& x,
                                         std::size_t progress,
                                         std::uint64_t seq_no) {
  auto ep = driven_receiver(x, progress);
  store::SessionManifest m;
  m.session = id;
  m.epoch = 1;
  m.seq = seq_no;
  m.proto_tag = store::proto_tag_of(ep->name());
  m.position = ep->items_done();
  m.completed = ep->done();
  m.endpoint_state = ep->save_state();
  return m;
}

/// One client + durable server over a scripted loopback wire, with the
/// plumbing a kill/restart drill needs.  Client senders arm the dup-ack
/// go-back so a durably-rewound receiver (storage-fault tail loss) heals
/// by bounded retransmission instead of wedging the stop-and-wait pair.
/// Items per session in a run killed at the kill window.  A session
/// finishes an item per round trip, while the window waits for the
/// unluckiest session's first item, which may take several backed-off
/// retransmit timeouts.  The client holds back every session's last item
/// until the kill (LastItemGate), so no session completes before it.
constexpr std::size_t kKillWindowLen = 64;

struct RestartRig {
  std::size_t n = 0;
  std::size_t len = 0;
  net::LoopbackPair wire;
  store::MemStore st0, st1;
  std::unique_ptr<DurableProbe> probe1, probe2;
  std::unique_ptr<stp::LastItemGate> last_items;  // opens at the kill
  std::unique_ptr<net::StpClient> client;
  std::unique_ptr<net::StpServer> server;   // generation 1
  std::unique_ptr<net::StpServer> server2;  // generation 2

  net::MuxConfig base_cfg() const {
    net::MuxConfig cfg;
    cfg.workers = 2;
    return cfg;
  }

  void start(std::size_t sessions, std::size_t seq_len,
             net::LoopbackConfig wire_cfg) {
    n = sessions;
    len = seq_len;
    wire = net::make_loopback(wire_cfg);
    st0.reset();
    st1.reset();
    probe1 = std::make_unique<DurableProbe>(n);
    probe2 = std::make_unique<DurableProbe>(n);
    last_items = std::make_unique<stp::LastItemGate>();

    client = std::make_unique<net::StpClient>(wire.a.get(), base_cfg());
    net::MuxConfig scfg = base_cfg();
    scfg.probe = probe1.get();
    scfg.session_stores = {&st0, &st1};
    server = std::make_unique<net::StpServer>(wire.b.get(), scfg);
    for (std::uint32_t id = 0; id < n; ++id) {
      auto pair = proto::make_stenning(kDomain, /*sender_ack_rewind=*/true);
      const auto x = seq_for(id, len);
      client->add_session(
          id,
          last_items->wrap(std::move(pair.sender),
                           data_id(len - 1, x[len - 1])),
          x);
      server->add_session(id, std::move(pair.receiver), x);
    }
    client->mux().start();
    server->mux().start();
  }

  /// Wait for the kill window: every session made progress (>= 1 item, so
  /// every session is manifested).  No session can complete before
  /// kill_server(): its last item is still held back.
  bool wait_kill_window(std::chrono::seconds timeout) const {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      if (probe1->min_progress(n) >= 1) return true;
      std::this_thread::sleep_for(50us);
    }
    return false;
  }

  /// Crash-shaped kill of generation 1; the client keeps running against
  /// a dead endpoint (frames pile into the bounded wire queue == loss),
  /// and from now on sends the last items too.
  void kill_server() {
    server->mux().kill();
    last_items->open();
  }

  /// Construct generation 2 on the same transport endpoint and stores and
  /// re-admit every manifested session.
  net::RehydrateReport restart() {
    net::MuxConfig scfg = base_cfg();
    scfg.probe = probe2.get();
    scfg.session_stores = {&st0, &st1};
    server2 = std::make_unique<net::StpServer>(wire.b.get(), scfg);
    return server2->rehydrate(stenning_receiver_factory(),
                              [this](std::uint32_t id) {
                                return seq_for(id, len);
                              });
  }

  /// Storage amnesia fallback: a session whose EVERY manifest record was
  /// destroyed is no longer manifested — rehydrate() cannot conjure it.
  /// The operator knows the expected session set and re-adds the missing
  /// ones cold; the wire heals by full retransmission from the front.
  /// Returns how many sessions needed the cold re-add.
  std::size_t cold_add_missing() {
    std::vector<bool> present(n, false);
    for (const auto& r : server2->mux().reports()) present[r.id] = true;
    std::size_t added = 0;
    for (std::uint32_t id = 0; id < n; ++id) {
      if (present[id]) continue;
      auto pair = proto::make_stenning(kDomain);
      server2->add_session(id, std::move(pair.receiver), seq_for(id, len));
      ++added;
    }
    return added;
  }

  /// Start generation 2 and drain both ends to terminal.
  bool finish(std::chrono::seconds timeout) {
    server2->mux().start();
    const bool c = client->mux().drain(timeout);
    const bool s = server2->mux().drain(timeout);
    server2->mux().stop();
    client->mux().stop();
    return c && s;
  }
};

void expect_all_completed(const net::SessionMux& mux, std::size_t n,
                          std::size_t seq_len, bool expect_rehydrated) {
  const auto reports = mux.reports();
  ASSERT_EQ(reports.size(), n);
  for (const auto& r : reports) {
    EXPECT_EQ(r.state, net::SessionState::kCompleted) << "session " << r.id;
    EXPECT_EQ(r.items, seq_len) << "session " << r.id;
    if (expect_rehydrated) {
      EXPECT_TRUE(r.rehydrated) << "session " << r.id;
    }
  }
}

// --------------------------------------------------------------------------
// Drain vs crash-shaped shutdown (satellite)
// --------------------------------------------------------------------------

TEST(DurableMux, DrainFlushesCompactsAndRehydratesCompleted) {
  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kLen = 4;
  store::MemStore st;
  st.reset();
  auto wire = net::make_loopback();

  net::MuxConfig cfg;
  net::StpClient client(wire.a.get(), cfg);
  net::MuxConfig scfg = cfg;
  scfg.session_stores = {&st};
  net::StpServer server(wire.b.get(), scfg);
  for (std::uint32_t id = 0; id < kSessions; ++id) {
    auto pair = proto::make_stenning(kDomain, true);
    const auto x = seq_for(id, kLen);
    client.add_session(id, std::move(pair.sender), x);
    server.add_session(id, std::move(pair.receiver), x);
  }
  // run_service_pair drains (arming the final flush) then stops: the
  // graceful path must leave a fully-flushed, compacted log.
  ASSERT_TRUE(net::run_service_pair(client, server, 20s));

  const auto replayed = st.replay();
  EXPECT_EQ(replayed.payloads.size(), kSessions);  // compacted: one each
  EXPECT_EQ(replayed.records_skipped, 0u);
  for (const auto& p : replayed.payloads) {
    const auto m = store::SessionManifest::from_payload(p);
    ASSERT_TRUE(m.has_value());
    EXPECT_TRUE(m->completed);
    EXPECT_EQ(m->position, kLen);
  }

  const auto ss = server.mux().stats();
  EXPECT_GT(ss[MuxCounter::kCheckpointFlushes], 0u);
  EXPECT_GT(ss[MuxCounter::kCheckpointRecords], 0u);
  EXPECT_GT(ss[MuxCounter::kCheckpointBytes], 0u);
  obs::MetricsRegistry reg;
  server.mux().publish_metrics(reg);
  EXPECT_GT(reg.counter_value("net.checkpoint_flushes"), 0u);
  EXPECT_GT(reg.counter_value("net.checkpoint_bytes"), 0u);
  EXPECT_EQ(reg.counter_value("net.rehydrated_sessions"), 0u);

  // A new generation rehydrates every session straight into kCompleted.
  DurableProbe probe(kSessions);
  net::MuxConfig s2cfg = scfg;
  s2cfg.probe = &probe;
  net::StpServer gen2(wire.b.get(), s2cfg);
  const auto rep = gen2.rehydrate(
      stenning_receiver_factory(),
      [](std::uint32_t id) { return seq_for(id, kLen); });
  EXPECT_EQ(rep.sessions, kSessions);
  EXPECT_EQ(rep.completed, kSessions);
  EXPECT_EQ(rep.violations, 0u);
  EXPECT_EQ(rep.cold_restores, 0u);
  EXPECT_EQ(rep.restore_latency_us.size(), kSessions);
  EXPECT_EQ(probe.rehydrated(), kSessions);
  EXPECT_EQ(gen2.mux().stats()[MuxCounter::kRehydratedSessions], kSessions);
  expect_all_completed(gen2.mux(), kSessions, kLen, /*expect_rehydrated=*/true);

  obs::MetricsRegistry reg2;
  gen2.mux().publish_metrics(reg2);
  EXPECT_EQ(reg2.counter_value("net.rehydrated_sessions"), kSessions);
  EXPECT_EQ(reg2.counter_value("net.verdict.recovery-violation"), 0u);
}

TEST(DurableMux, BareStopWithoutDrainLeavesACleanlyRehydratableLog) {
  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kLen = 4;
  store::MemStore st;
  st.reset();
  auto wire = net::make_loopback();

  net::MuxConfig cfg;
  net::StpClient client(wire.a.get(), cfg);
  net::MuxConfig scfg = cfg;
  scfg.session_stores = {&st};
  net::StpServer server(wire.b.get(), scfg);
  for (std::uint32_t id = 0; id < kSessions; ++id) {
    auto pair = proto::make_stenning(kDomain, true);
    const auto x = seq_for(id, kLen);
    client.add_session(id, std::move(pair.sender), x);
    server.add_session(id, std::move(pair.receiver), x);
  }
  client.mux().start();
  server.mux().start();
  const auto deadline = std::chrono::steady_clock::now() + 20s;
  while (!(client.mux().all_terminal() && server.mux().all_terminal()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(server.mux().all_terminal());
  // Bare stop: no drain() first, so no forced flush and no compaction.
  server.mux().stop();
  client.mux().stop();

  // The log kept every incremental record (nothing folded it)…
  EXPECT_GT(st.replay().payloads.size(), kSessions);
  // …and still rehydrates cleanly: cadence flushes already covered every
  // state movement, including the completions.
  net::StpServer gen2(wire.b.get(), scfg);
  const auto rep = gen2.rehydrate(
      stenning_receiver_factory(),
      [](std::uint32_t id) { return seq_for(id, kLen); });
  EXPECT_EQ(rep.sessions, kSessions);
  EXPECT_EQ(rep.completed, kSessions);
  EXPECT_EQ(rep.violations, 0u);
  EXPECT_EQ(rep.records_skipped, 0u);
}

/// The tag of a logged record's endpoint blob, once the record and the
/// blob are checked to be canonical text: the only spelling any reader
/// accepts, so the only one a writer may produce.
std::int64_t canonical_blob_tag(const std::string& payload,
                                const store::SessionManifest& m) {
  EXPECT_TRUE(util::canonical_token_count(payload).has_value()) << payload;
  EXPECT_TRUE(util::canonical_token_count(m.endpoint_state).has_value())
      << payload;
  std::int64_t tag = 0;
  util::CanonicalScanner(m.endpoint_state).next(tag);
  return tag;
}

TEST(DurableMux, RecordBytesStayFlatAsTheTapeGrows) {
  // After its first record, each receiver record carries only the items
  // since the one before: its size does not grow with the tape.
  constexpr std::uint32_t kId = 0;
  constexpr std::size_t kLen = 1024;
  store::MemStore st;
  st.reset();
  auto wire = net::make_loopback();
  net::StpClient client(wire.a.get(), net::MuxConfig{});
  net::MuxConfig scfg;
  scfg.session_stores = {&st};
  net::StpServer server(wire.b.get(), scfg);
  auto pair = proto::make_stenning(kDomain, true);
  const auto x = seq_for(kId, kLen);
  client.add_session(kId, std::move(pair.sender), x);
  server.add_session(kId, std::move(pair.receiver), x);
  client.mux().start();
  server.mux().start();
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (!server.mux().all_terminal() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(server.mux().all_terminal());
  server.mux().kill();  // crash-shaped: no compaction, every record stays
  client.mux().stop();

  std::map<std::uint64_t, std::size_t> bytes_at;  // position -> first size
  std::set<std::int64_t> tags;  // of the receiver adapter's blobs
  for (const std::string& p : st.replay().payloads) {
    const auto m = store::SessionManifest::from_payload(p);
    ASSERT_TRUE(m.has_value());
    bytes_at.emplace(m->position, p.size());
    tags.insert(canonical_blob_tag(p, *m));
  }
  EXPECT_EQ(tags, (std::set<std::int64_t>{202, 203}));  // full and delta
  const auto record_at = [&bytes_at](std::uint64_t position) {
    const auto it = bytes_at.lower_bound(position);
    return it == bytes_at.end() ? std::size_t{0} : it->second;
  };
  const std::size_t early = record_at(10);
  const std::size_t late = record_at(1000);
  ASSERT_GT(early, 0u);
  ASSERT_GT(late, 0u);
  EXPECT_LE(late, early + 16) << early << " B at item 10, " << late
                              << " B at item 1000";
  EXPECT_LE(early, late + 16);
  // And the log still restores the whole tape.
  const auto scan = store::scan_session_logs({&st});
  ASSERT_EQ(scan.newest.size(), 1u);
  EXPECT_EQ(scan.newest.at(kId).position, kLen);
  EXPECT_TRUE(scan.newest.at(kId).completed);
  auto fresh = proto::make_stenning(kDomain);
  proto::ReceiverSessionEndpoint back(std::move(fresh.receiver), x);
  ASSERT_TRUE(back.restore_state(scan.newest.at(kId).endpoint_state));
  EXPECT_TRUE(back.done());
}

// --------------------------------------------------------------------------
// Kill + restart mid-traffic
// --------------------------------------------------------------------------

net::LoopbackConfig lossy_wire(std::uint64_t seed) {
  net::LoopbackConfig wire;
  fault::FaultPlan plan = fault::periodic_plan(
      fault::FaultKind::kDropBurst, sim::Dir::kSenderToReceiver, 7, 1,
      300'000);
  const auto rs = fault::periodic_plan(fault::FaultKind::kDropBurst,
                                       sim::Dir::kReceiverToSender, 9, 1,
                                       300'000);
  plan.actions.insert(plan.actions.end(), rs.actions.begin(),
                      rs.actions.end());
  wire.plan = plan;
  wire.reorder_window = 3;
  wire.seed = seed;
  wire.max_queue = 8192;
  return wire;
}

TEST(DurableMux, KillRestartMidTrafficRehydratesAndCompletes) {
  constexpr std::size_t kSessions = 32;
  constexpr std::size_t kLen = kKillWindowLen;
  RestartRig rig;
  rig.start(kSessions, kLen, lossy_wire(0xD0D0));
  ASSERT_TRUE(rig.wait_kill_window(60s));
  rig.kill_server();
  ASSERT_EQ(rig.server->mux().stats()[MuxCounter::kSessionsCompleted], 0u);

  const auto rep = rig.restart();
  EXPECT_EQ(rep.sessions, kSessions);  // every session was manifested
  EXPECT_EQ(rep.completed, 0u);
  EXPECT_EQ(rep.violations, 0u);
  EXPECT_EQ(rep.cold_restores, 0u);
  EXPECT_EQ(rep.declined, 0u);
  // Ack gating: no released ack can outrun the durable position, so every
  // restored position covers at least the progress the probe witnessed
  // being checkpointed — and the peer only ever saw covered acks, making
  // the rewind invisible.  Weak but universal check: positions restored.
  std::size_t restored_total = 0;
  for (std::size_t i = 0; i < kSessions; ++i) {
    restored_total += rig.probe2->restored(i);
  }
  EXPECT_GE(restored_total, kSessions);  // >= 1 item durable per session

  ASSERT_TRUE(rig.finish(90s));
  expect_all_completed(rig.server2->mux(), kSessions, kLen, true);
  expect_all_completed(rig.client->mux(), kSessions, kLen, false);
  EXPECT_FALSE(rig.probe2->out_of_order());
  EXPECT_EQ(rig.probe2->violations(), 0u);
  EXPECT_EQ(rig.probe2->recovery_violations(), 0u);
  EXPECT_EQ(rig.probe2->rehydrated(), kSessions);
  const auto ss = rig.server2->mux().stats();
  EXPECT_EQ(ss[MuxCounter::kRehydratedSessions], kSessions);
  EXPECT_EQ(ss[MuxCounter::kSessionsCompleted], kSessions);
  EXPECT_EQ(ss[MuxCounter::kSessionsViolated], 0u);
  EXPECT_EQ(ss[MuxCounter::kSessionsRecoveryViolated], 0u);
  EXPECT_GT(ss[MuxCounter::kCheckpointFlushes], 0u);
  EXPECT_GT(ss[MuxCounter::kCheckpointBytes], 0u);
}

// Satellite: restart racing a FIN.  The receiver completed and its FIN
// was sent but never acknowledged — the kill happens with the client
// still waiting.  The completed manifest must rehydrate into a session
// that answers the client's retransmits with re-FINs, not a stuck pair.
TEST(DurableMux, RestartRacingFinHealsViaReFin) {
  const std::uint32_t kId = 3;
  const auto x = seq_for(kId, 4);
  store::MemStore st;
  st.reset();
  auto m = receiver_manifest(kId, x, x.size(), /*seq_no=*/1);
  ASSERT_TRUE(m.completed);
  st.append(m.to_payload());

  auto wire = net::make_loopback();
  net::MuxConfig cfg;
  net::StpClient client(wire.a.get(), cfg);
  auto pair = proto::make_stenning(kDomain, true);
  client.add_session(kId, std::move(pair.sender), x);  // FIN never arrived

  net::MuxConfig scfg = cfg;
  scfg.session_stores = {&st};
  net::StpServer server(wire.b.get(), scfg);
  const auto rep = server.rehydrate(stenning_receiver_factory(),
                                    [&](std::uint32_t) { return x; });
  EXPECT_EQ(rep.sessions, 1u);
  EXPECT_EQ(rep.completed, 1u);

  ASSERT_TRUE(net::run_service_pair(client, server, 20s));
  const auto creports = client.mux().reports();
  ASSERT_EQ(creports.size(), 1u);
  EXPECT_EQ(creports[0].state, net::SessionState::kCompleted);
  // The healing re-FIN.
  EXPECT_GE(server.mux().stats()[MuxCounter::kFinsSent], 1u);
  // No items moved this generation — the tape was already complete.
  EXPECT_EQ(server.mux().stats()[MuxCounter::kItemsDone], 0u);
}

// --------------------------------------------------------------------------
// Storage faults biting the session log
// --------------------------------------------------------------------------

// Each fault is injected into the session logs between the kill and the
// restart.  The damage must be DETECTED (skipped records, or a durable
// rewind the peer heals) and the run must still complete exactly — never
// silent corruption, and any rewind costs only bounded retransmission
// (the client's dup-ack go-back adopts the receiver's rewound frontier).
void run_fault_matrix_case(
    const std::function<void(RestartRig&)>& inject,
    std::uint64_t min_records_skipped) {
  constexpr std::size_t kSessions = 16;
  constexpr std::size_t kLen = kKillWindowLen;
  RestartRig rig;
  rig.start(kSessions, kLen, lossy_wire(0xFA017));
  ASSERT_TRUE(rig.wait_kill_window(60s));
  rig.kill_server();
  ASSERT_EQ(rig.server->mux().stats()[MuxCounter::kSessionsCompleted], 0u);

  inject(rig);

  const auto rep = rig.restart();
  EXPECT_EQ(rep.violations, 0u);
  EXPECT_GE(rep.records_skipped, min_records_skipped);
  // Tail damage can destroy a young session's ONLY record — that session
  // is simply not manifested any more (bounded amnesia, not corruption);
  // the operator re-adds it cold and it re-earns everything.
  const std::size_t cold = rig.cold_add_missing();
  EXPECT_EQ(rep.sessions + cold, kSessions);
  EXPECT_LE(cold, 4u);  // damage was bounded to the tail

  ASSERT_TRUE(rig.finish(90s));
  expect_all_completed(rig.server2->mux(), kSessions, kLen, false);
  expect_all_completed(rig.client->mux(), kSessions, kLen, false);
  // Every surviving manifest was re-admitted (not cold-started).
  std::size_t rehydrated = 0;
  for (const auto& r : rig.server2->mux().reports()) {
    rehydrated += r.rehydrated ? 1 : 0;
  }
  EXPECT_EQ(rehydrated, rep.sessions);
  EXPECT_FALSE(rig.probe2->out_of_order());
  EXPECT_EQ(rig.probe2->violations(), 0u);
  EXPECT_EQ(rig.probe2->recovery_violations(), 0u);
  EXPECT_EQ(rig.server2->mux().stats()[MuxCounter::kSessionsViolated], 0u);
}

TEST(DurableMuxFaults, TornWriteInSessionLogIsSkippedAndHealed) {
  // The crash tore the very record being appended: re-append the newest
  // manifest with the torn fault armed, leaving a half-written record at
  // the tail of the log.
  run_fault_matrix_case(
      [](RestartRig& rig) {
        const auto scan = store::scan_session_logs({&rig.st0});
        ASSERT_FALSE(scan.newest.empty());
        rig.st0.fault_torn_next_append();
        rig.st0.append(scan.newest.begin()->second.to_payload());
      },
      /*min_records_skipped=*/1);
}

TEST(DurableMuxFaults, CorruptRecordIsSkippedAndHealed) {
  run_fault_matrix_case(
      [](RestartRig& rig) {
        rig.st0.fault_corrupt_record();
        rig.st1.fault_corrupt_record();
      },
      /*min_records_skipped=*/2);
}

TEST(DurableMuxFaults, LoseTailRewindsDurablyAndGoBackHeals) {
  // Losing synced records rewinds sessions to an older checkpoint — a
  // rewind the peer can SEE (acks below its cursor).  The dup-ack
  // go-back adopts the rewound frontier; completion proves the heal.
  run_fault_matrix_case(
      [](RestartRig& rig) {
        rig.st0.fault_lose_tail(2);
        rig.st1.fault_lose_tail(2);
      },
      /*min_records_skipped=*/0);  // clean deletion leaves no skip marker
}

TEST(DurableMuxFaults, StaleRecordResurrectionIsSuperseded) {
  // The stale-snapshot hazard at session-log granularity: an old record
  // reappears AFTER newer ones in byte order.  The (epoch, seq) fold must
  // ignore it — no cold restore, no position regression to stale state.
  run_fault_matrix_case(
      [](RestartRig& rig) {
        const auto scan = store::scan_session_logs({&rig.st0});
        ASSERT_FALSE(scan.newest.empty());
        auto stale = scan.newest.begin()->second;
        stale.seq = 0;  // older than every live record
        stale.position = 0;
        stale.endpoint_state.clear();
        rig.st0.append(stale.to_payload());
      },
      /*min_records_skipped=*/0);
}

// --------------------------------------------------------------------------
// kRecoveryViolation end-to-end
// --------------------------------------------------------------------------

TEST(DurableMuxViolation, PoisonedManifestSurfacesAtRestore) {
  // The manifest's tape is not a prefix of what this session is expected
  // to deliver: the log attests to deliveries that never should have
  // happened.  That is a recovery violation at restore time — loud,
  // terminal, and distinct from a live safety violation.
  const std::uint32_t kId = 5;
  store::MemStore st;
  st.reset();
  st.append(receiver_manifest(kId, seq_for(kId, 4), 3, 1).to_payload());

  auto wire = net::make_loopback();
  DurableProbe probe(kId + 1);
  net::MuxConfig scfg;
  scfg.probe = &probe;
  scfg.session_stores = {&st};
  net::StpServer server(wire.b.get(), scfg);
  const auto rep = server.rehydrate(
      stenning_receiver_factory(),
      [](std::uint32_t) {
        return seq::Sequence(4, static_cast<seq::DataItem>(7));  // not ours
      });
  EXPECT_EQ(rep.sessions, 1u);
  EXPECT_EQ(rep.violations, 1u);
  EXPECT_EQ(probe.recovery_violations(), 1u);
  EXPECT_EQ(probe.rehydrated(), 1u);

  const auto reports = server.mux().reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].state, net::SessionState::kRecoveryViolation);
  const auto ss = server.mux().stats();
  EXPECT_EQ(ss[MuxCounter::kSessionsRecoveryViolated], 1u);
  // Distinct from kSafetyViolation.
  EXPECT_EQ(ss[MuxCounter::kSessionsViolated], 0u);
  obs::MetricsRegistry reg;
  server.mux().publish_metrics(reg);
  EXPECT_EQ(reg.counter_value("net.verdict.recovery-violation"), 1u);
  EXPECT_EQ(reg.counter_value("net.verdict.safety-violation"), 0u);
}

TEST(DurableMuxViolation, LostCompletionWithSilentPeerIsFlaggedNotWedged) {
  // A lose-tail fault destroyed the completion record; the surviving
  // manifest attests to an unfinished exchange, but the client is long
  // gone.  Without the idle tripwire the session would wait forever —
  // with it, the wedge surfaces as kRecoveryViolation.
  const std::uint32_t kId = 2;
  const auto x = seq_for(kId, 4);
  store::MemStore st;
  st.reset();
  st.append(receiver_manifest(kId, x, 2, /*seq_no=*/1).to_payload());
  st.append(receiver_manifest(kId, x, 4, /*seq_no=*/2).to_payload());
  st.fault_lose_tail(1);  // the completion record dies

  auto wire = net::make_loopback();  // and no client ever speaks
  DurableProbe probe(kId + 1);
  net::MuxConfig scfg;
  scfg.probe = &probe;
  scfg.session_stores = {&st};
  scfg.rehydrate_idle_violation = 6ms;
  net::StpServer server(wire.b.get(), scfg);
  const auto rep = server.rehydrate(stenning_receiver_factory(),
                                    [&](std::uint32_t) { return x; });
  EXPECT_EQ(rep.sessions, 1u);
  EXPECT_EQ(rep.completed, 0u);  // the completion really was lost

  server.mux().start();
  EXPECT_TRUE(server.mux().drain(20s));
  server.mux().stop();
  const auto reports = server.mux().reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].state, net::SessionState::kRecoveryViolation);
  EXPECT_EQ(probe.recovery_violations(), 1u);
  EXPECT_EQ(server.mux().stats()[MuxCounter::kSessionsRecoveryViolated], 1u);
}

// --------------------------------------------------------------------------
// Client-side rehydration (sender manifests)
// --------------------------------------------------------------------------

TEST(DurableMux, ClientRehydratesSenderManifestsAndServerDeclinesThem) {
  const std::uint32_t kId = 4;
  const auto x = seq_for(kId, 4);
  store::MemStore st;
  st.reset();
  {
    auto pair = proto::make_stenning(kDomain);
    proto::SenderSessionEndpoint ep(std::move(pair.sender), x);
    ep.finish();  // FIN had arrived before the crash
    store::SessionManifest m;
    m.session = kId;
    m.is_sender = true;
    m.epoch = 1;
    m.seq = 1;
    m.proto_tag = store::proto_tag_of(ep.name());
    m.position = ep.items_done();
    m.completed = ep.done();
    m.endpoint_state = ep.save_state();
    st.append(m.to_payload());
  }

  auto wire = net::make_loopback();
  net::MuxConfig cfg;
  cfg.session_stores = {&st};

  net::StpClient client(wire.a.get(), cfg);
  const auto rep = client.rehydrate(
      [](std::uint32_t, std::uint64_t tag) -> std::unique_ptr<sim::ISender> {
        if (tag != store::proto_tag_of("stenning-sender")) return nullptr;
        return proto::make_stenning(kDomain, true).sender;
      },
      [&](std::uint32_t) { return x; });
  EXPECT_EQ(rep.sessions, 1u);
  EXPECT_EQ(rep.completed, 1u);
  const auto reports = client.mux().reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].is_sender);
  EXPECT_EQ(reports[0].state, net::SessionState::kCompleted);

  // A server scanning the same log refuses to host a sender session.
  net::StpServer server(wire.b.get(), cfg);
  const auto srep = server.rehydrate(stenning_receiver_factory(),
                                     [&](std::uint32_t) { return x; });
  EXPECT_EQ(srep.sessions, 0u);
  EXPECT_EQ(srep.declined, 1u);
}

TEST(DurableMux, SenderRecordsFollowItsStateWhilePositionStandsStill) {
  // A sender's position stays 0 until the FIN while its protocol state
  // moves with every ack, so the flush must dedupe on the endpoint state
  // too; deduping on position alone would log only the first record.
  const std::uint32_t kId = 3;
  const auto x = seq_for(kId, 8);
  store::MemStore st;
  st.reset();
  auto wire = net::make_loopback();
  net::MuxConfig ccfg;
  ccfg.session_stores = {&st};
  net::StpClient client(wire.a.get(), ccfg);
  net::StpServer server(wire.b.get(), net::MuxConfig{});
  auto pair = proto::make_stenning(kDomain);
  client.add_session(kId, std::move(pair.sender), x);
  server.add_session(kId, std::move(pair.receiver), x);
  client.mux().start();
  server.mux().start();
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!client.mux().all_terminal() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(client.mux().all_terminal());
  client.mux().kill();  // crash-shaped: no compaction, every record stays
  server.mux().stop();

  std::set<std::string> states;
  for (const std::string& p : st.replay().payloads) {
    const auto m = store::SessionManifest::from_payload(p);
    EXPECT_EQ(m ? canonical_blob_tag(p, *m) : 0, 201) << p;  // the sender's
    if (m && m->is_sender && !m->completed) {
      EXPECT_EQ(m->position, 0u);
      states.insert(m->endpoint_state);
    }
  }
  EXPECT_GT(states.size(), 2u);
}

/// Forwards every call to an endpoint and counts its save_state() calls:
/// all of them, the full blobs among them (from == 0), and the runs of
/// them with no other endpoint call in between.
class CountingEndpoint final : public proto::ISessionEndpoint {
 public:
  struct Counts {
    std::uint64_t calls = 0;
    std::uint64_t full = 0;
    std::uint64_t runs = 0;
  };

  CountingEndpoint(std::unique_ptr<proto::ISessionEndpoint> inner,
                   Counts* counts)
      : inner_(std::move(inner)), counts_(counts) {}

  void on_deliver(sim::MsgId msg) override {
    other();
    inner_->on_deliver(msg);
  }
  void on_fin() override {
    other();
    inner_->on_fin();
  }
  std::optional<sim::MsgId> step() override {
    other();
    return inner_->step();
  }
  bool done() const override {
    other();
    return inner_->done();
  }
  bool safety_ok() const override {
    other();
    return inner_->safety_ok();
  }
  std::size_t items_done() const override {
    other();
    return inner_->items_done();
  }
  std::string name() const override {
    other();
    return inner_->name();
  }
  std::string save_state(std::size_t from = 0) const override {
    if (!in_run_) ++counts_->runs;
    in_run_ = true;
    ++counts_->calls;
    if (from == 0) ++counts_->full;
    return inner_->save_state(from);
  }
  bool restore_state(const std::string& blob) override {
    other();
    return inner_->restore_state(blob);
  }

 private:
  void other() const { in_run_ = false; }

  std::unique_ptr<proto::ISessionEndpoint> inner_;
  Counts* counts_;
  mutable bool in_run_ = false;
};

TEST(DurableMux, OneSaveStatePerCheckpointRecord) {
  // The flush renders each record's blob once and keys the record on it,
  // so a flushed dirty session costs one save_state(), and a receiver's
  // full record one more (its key is the tapeless save_state(position)).
  // The flush reads items_done() before it renders a session's record,
  // so each flushed session is one run of save_state() calls.
  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kLen = 48;
  store::MemStore st;
  st.reset();
  auto wire = net::make_loopback();
  net::StpClient client(wire.a.get(), net::MuxConfig{});
  net::MuxConfig scfg;
  scfg.session_stores = {&st};
  net::StpServer server(wire.b.get(), scfg);
  std::vector<CountingEndpoint::Counts> counts(kSessions);
  for (std::uint32_t id = 0; id < kSessions; ++id) {
    auto pair = proto::make_stenning(kDomain, true);
    const auto x = seq_for(id, kLen);
    client.add_session(id, std::move(pair.sender), x);
    server.mux().add_session(
        id,
        std::make_unique<CountingEndpoint>(
            std::make_unique<proto::ReceiverSessionEndpoint>(
                std::move(pair.receiver), x),
            &counts[id]),
        /*is_sender=*/false);
  }
  // Drained, so the final pass also writes a full record per session.
  ASSERT_TRUE(net::run_service_pair(client, server, 20s));
  expect_all_completed(server.mux(), kSessions, kLen, false);
  for (std::uint32_t id = 0; id < kSessions; ++id) {
    const CountingEndpoint::Counts& c = counts[id];
    EXPECT_GT(c.calls - c.full, kLen / 2) << "session " << id;  // deltas
    EXPECT_LE(c.calls, c.runs + c.full)
        << "session " << id << ": " << c.calls << " save_state calls in "
        << c.runs << " flushes with " << c.full << " full blobs";
  }
}

// --------------------------------------------------------------------------
// rehydrate() edge cases: empty log, completed-only log, id collisions,
// and the read-only extra-sources handoff (the fabric's re-home path)
// --------------------------------------------------------------------------

TEST(DurableMuxRehydrate, EmptyLogAdmitsNothing) {
  store::MemStore st;
  st.reset();
  auto wire = net::make_loopback();
  net::MuxConfig cfg;
  cfg.session_stores = {&st};
  net::StpServer server(wire.b.get(), cfg);
  const auto rep = server.rehydrate(stenning_receiver_factory(),
                                    [](std::uint32_t) { return seq_for(0, 4); });
  EXPECT_EQ(rep.sessions, 0u);
  EXPECT_EQ(rep.completed, 0u);
  EXPECT_EQ(rep.cold_restores, 0u);
  EXPECT_EQ(rep.collisions, 0u);
  EXPECT_EQ(rep.records_scanned, 0u);
  EXPECT_EQ(rep.records_skipped, 0u);
  EXPECT_TRUE(server.mux().reports().empty());
}

TEST(DurableMuxRehydrate, CompletedOnlyLogRestoresStraightToCompleted) {
  const std::uint32_t kId = 3;
  const auto x = seq_for(kId, 4);
  store::MemStore st;
  st.reset();
  st.append(receiver_manifest(kId, x, x.size(), 1).to_payload());

  auto wire = net::make_loopback();
  net::MuxConfig cfg;
  cfg.session_stores = {&st};
  net::StpServer server(wire.b.get(), cfg);
  const auto rep = server.rehydrate(stenning_receiver_factory(),
                                    [&](std::uint32_t) { return x; });
  EXPECT_EQ(rep.sessions, 1u);
  EXPECT_EQ(rep.completed, 1u);
  EXPECT_EQ(rep.violations, 0u);
  const auto reports = server.mux().reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].id, kId);
  EXPECT_TRUE(reports[0].rehydrated);
  EXPECT_EQ(reports[0].state, net::SessionState::kCompleted);
  EXPECT_EQ(reports[0].items, x.size());
}

TEST(DurableMuxRehydrate, CollidingSessionIdIsSkippedAndCounted) {
  const std::uint32_t kId = 5;
  const auto x = seq_for(kId, 4);
  store::MemStore st;
  st.reset();
  st.append(receiver_manifest(kId, x, 2, 1).to_payload());

  auto wire = net::make_loopback();
  net::MuxConfig cfg;
  cfg.session_stores = {&st};
  net::StpServer server(wire.b.get(), cfg);
  // The operator already cold-added kId; the manifest for the same id
  // must NOT replace or duplicate the hosted session.
  server.add_session(kId, proto::make_stenning(kDomain).receiver, x);
  const auto rep = server.rehydrate(stenning_receiver_factory(),
                                    [&](std::uint32_t) { return x; });
  EXPECT_EQ(rep.sessions, 0u);
  EXPECT_EQ(rep.collisions, 1u);
  const auto reports = server.mux().reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].rehydrated);  // the cold add won
  EXPECT_EQ(reports[0].items, 0u);      // fresh receiver, not the manifest
}

TEST(DurableMuxRehydrate, ExtraSourcesAreReadOnlyAndReManifestIntoOwnStores) {
  const std::uint32_t kId = 7;
  const auto x = seq_for(kId, 4);
  // The dead backend's log (stamped owner 2) — handed off read-only.
  store::MemStore dead_log;
  dead_log.reset();
  auto handed = receiver_manifest(kId, x, x.size(), 1);
  handed.owner = 2;
  dead_log.append(handed.to_payload());
  const auto handoff_bytes_before = dead_log.replay().payloads;

  store::MemStore own;
  own.reset();
  auto wire = net::make_loopback();
  net::MuxConfig cfg;
  cfg.session_stores = {&own};
  cfg.backend_id = 9;  // the survivor
  net::StpServer server(wire.b.get(), cfg);
  const auto rep = server.rehydrate(
      stenning_receiver_factory(), [&](std::uint32_t) { return x; },
      {&dead_log});
  EXPECT_EQ(rep.sessions, 1u);
  EXPECT_EQ(rep.completed, 1u);

  // The absorbed session re-manifests into the survivor's OWN store at
  // start()'s checkpoint flush, stamped with the survivor's id.  Watch
  // the (atomic) flush counter while running; only inspect the store
  // after stop() — it is worker-owned while the mux is live.
  server.mux().start();
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (server.mux().stats()[MuxCounter::kCheckpointFlushes] == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  server.mux().stop();
  bool remanifested = false;
  for (const auto& payload : own.replay().payloads) {
    const auto m = store::SessionManifest::from_payload(payload);
    if (m && m->session == kId && m->owner == 9) remanifested = true;
  }
  EXPECT_TRUE(remanifested);
  // The handoff source was scanned, never written.
  EXPECT_EQ(dead_log.replay().payloads, handoff_bytes_before);
}

// --------------------------------------------------------------------------
// Acceptance: kill + restart under load, >= 1000 sessions
// --------------------------------------------------------------------------

TEST(DurableMuxAcceptance, KillRestartThousandSessionsUnderLossAndReorder) {
  constexpr std::size_t kSessions = 1000;
  constexpr std::size_t kLen = kKillWindowLen;

  net::LoopbackConfig wire;
  fault::FaultPlan plan = fault::periodic_plan(
      fault::FaultKind::kDropBurst, sim::Dir::kSenderToReceiver, 9, 1,
      500'000);
  const auto rs = fault::periodic_plan(fault::FaultKind::kDropBurst,
                                       sim::Dir::kReceiverToSender, 11, 1,
                                       500'000);
  plan.actions.insert(plan.actions.end(), rs.actions.begin(),
                      rs.actions.end());
  wire.plan = plan;
  wire.reorder_window = 4;
  wire.seed = 0xACCE56;
  wire.max_queue = 16384;

  RestartRig rig;
  rig.start(kSessions, kLen, wire);
  ASSERT_TRUE(rig.wait_kill_window(120s));
  rig.kill_server();
  ASSERT_EQ(rig.server->mux().stats()[MuxCounter::kSessionsCompleted], 0u);

  // Two of the storage faults bite the logs at scale on top of the crash.
  rig.st0.fault_corrupt_record();
  rig.st1.fault_lose_tail(2);

  const auto rep = rig.restart();
  // Every manifested session is re-admitted, none poisoned, none
  // declined; the faults may have de-manifested a few young sessions
  // entirely (their only record died with the tail) — those come back
  // cold via the operator fallback, never silently.
  EXPECT_EQ(rep.violations, 0u);
  EXPECT_EQ(rep.declined, 0u);
  EXPECT_GE(rep.records_skipped, 1u);  // the corrupt record was detected
  EXPECT_EQ(rig.probe2->rehydrated(), rep.sessions);
  const std::size_t cold = rig.cold_add_missing();
  EXPECT_EQ(rep.sessions + cold, kSessions);
  EXPECT_LE(cold, 8u);  // tail damage is bounded, so is the amnesia
  EXPECT_GE(rep.sessions, kSessions - 8);

  ASSERT_TRUE(rig.finish(180s));

  // Exact copy on every session, attested per-write across the restart:
  // generation 2's items resume at each session's restored position and
  // arrive in strictly ascending order (prefix safety at all times).
  expect_all_completed(rig.server2->mux(), kSessions, kLen, false);
  expect_all_completed(rig.client->mux(), kSessions, kLen, false);
  EXPECT_FALSE(rig.probe2->out_of_order());
  EXPECT_EQ(rig.probe2->violations(), 0u);
  EXPECT_EQ(rig.probe2->recovery_violations(), 0u);

  const auto ss = rig.server2->mux().stats();
  EXPECT_EQ(ss[MuxCounter::kSessionsCompleted], kSessions);
  EXPECT_EQ(ss[MuxCounter::kSessionsViolated], 0u);
  EXPECT_EQ(ss[MuxCounter::kSessionsRecoveryViolated], 0u);
  EXPECT_EQ(ss[MuxCounter::kSessionsEvicted], 0u);
  EXPECT_EQ(ss[MuxCounter::kRehydratedSessions], rep.sessions);
  EXPECT_GT(ss[MuxCounter::kCheckpointFlushes], 0u);
  EXPECT_GT(ss[MuxCounter::kCheckpointBytes], 0u);

  // Superseded checkpoints cost bounded retransmission, not items: both
  // generations together delivered each item at least once, and the
  // generation-2 tape is exactly X (checked per report above).
  EXPECT_GE(rig.probe1->items() + rig.probe2->items(), kSessions * kLen);

  // The link really was hostile.
  EXPECT_GT(rig.wire.stats(sim::Dir::kSenderToReceiver).dropped, 0u);
  EXPECT_GT(rig.wire.stats(sim::Dir::kReceiverToSender).dropped, 0u);

  obs::MetricsRegistry reg;
  rig.server2->mux().publish_metrics(reg);
  EXPECT_EQ(reg.counter_value("net.rehydrated_sessions"), rep.sessions);
  EXPECT_EQ(reg.counter_value("net.verdict.completed"), kSessions);
  EXPECT_EQ(reg.counter_value("net.verdict.recovery-violation"), 0u);
}

}  // namespace
}  // namespace stpx

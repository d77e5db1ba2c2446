// Durable-session conformance suite for the wire layer
// (ctest -L durable_mux_smoke):
//
//   * session manifest records — a golden payload, codec round-trip,
//     malformed rejection, byte identity of the cached-text paths against
//     a reference codec (random and non-canonical input, adapters through
//     writes, restores and cold starts), protocol fingerprints,
//     newest-per-session folding by (epoch, seq) regardless of byte order,
//     and drain-path compaction;
//   * store replay + FileStore fsync batching — group commit, the
//     sync_every_n / sync_interval knobs, and torn-write recovery after a
//     batched tail loss;
//   * endpoint save/restore — sender and receiver adapters, the
//     non-prefix-tape canary, unusable-blob cold starts;
//   * SessionMux rehydration — graceful drain (flush + compaction) vs the
//     crash-shaped kill(), restart racing a FIN, the storage-fault matrix
//     biting the session log (detected and healed by bounded
//     retransmission, never silent corruption), kRecoveryViolation kept
//     distinct end-to-end (poisoned manifest; completion record destroyed
//     by a tail fault while the peer is gone); and the acceptance run:
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
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace stpx {
namespace {

using namespace std::chrono_literals;

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

  // Text the canonical reader hands over to the full parser, which still
  // rejects it: an out-of-range token, junk inside the endpoint state, a
  // blob length past the end or below zero, a negative unsigned field.
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
  // Non-canonical spellings of the same record still parse, to the same
  // manifest, with the endpoint state rejoined canonically.
  for (const std::string& rough :
       {" " + good, good + " ", replaced(" 3 41 ", "  3 +41 "),
        replaced(" 7 1 0 ", " 007 1 -0 "), replaced(" 102 3", " 102  +3")}) {
    const auto m = store::SessionManifest::from_payload(rough);
    ASSERT_TRUE(m.has_value()) << rough;
    EXPECT_EQ(m->to_payload(), good) << rough;
  }
}

// Reference codec: the blob format as plain strtoll / to_string code,
// independent of util/blob, so the cached-text paths are held byte for
// byte against what records have always been.

std::optional<std::vector<std::int64_t>> ref_tokens(const std::string& text) {
  std::vector<std::int64_t> out;
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] == ' ') {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < text.size() && text[i] != ' ') ++i;
    const std::string tok = text.substr(start, i - start);
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(tok.c_str(), &end, 10);
    if (errno != 0 || end == tok.c_str() || *end != '\0') return std::nullopt;
    out.push_back(v);
  }
  return out;
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
    // Restore: the text is rebuilt from the restored tape, whether the
    // blob was canonical or had to be normalised.
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
// Store replay + FileStore fsync batching
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

TEST(StoreReplay, DefaultAppendBatchMatchesLoopedAppends) {
  store::MemStore st;
  st.reset();
  st.append_batch({"1", "2", "3"});
  EXPECT_EQ(st.appends(), 3u);
  const auto rep = st.replay();
  ASSERT_EQ(rep.payloads.size(), 3u);
  EXPECT_EQ(rep.payloads[1], "2");
}

TEST(FileStoreBatching, SyncEveryNBuffersUntilThreshold) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "stpx_fs_batch").string();
  store::FileStoreConfig cfg;
  cfg.sync_every_n = 4;
  {
    store::FileStore s(dir, cfg);
    s.reset();
    s.append("1");
    s.append("2");
    s.append("3");
    EXPECT_EQ(s.syncs(), 0u);
    EXPECT_EQ(s.pending_records(), 3u);
    // Another store on the same directory models the crash: only synced
    // bytes survive, and nothing has been synced yet.
    EXPECT_FALSE(store::FileStore(dir).recover().found);
    s.append("4");  // threshold: the whole batch lands with one sync
    EXPECT_EQ(s.syncs(), 1u);
    EXPECT_EQ(s.pending_records(), 0u);
  }
  store::FileStore b(dir);
  const auto rec = b.recover();
  EXPECT_TRUE(rec.found);
  EXPECT_EQ(rec.state, "4");
  EXPECT_EQ(b.replay().payloads.size(), 4u);
  std::filesystem::remove_all(dir);
}

TEST(FileStoreBatching, AppendBatchIsOneSync) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "stpx_fs_group").string();
  store::FileStoreConfig cfg;
  cfg.sync_every_n = 1000;  // batching would otherwise hold everything
  store::FileStore s(dir, cfg);
  s.reset();
  s.append_batch({"1", "2", "3", "4", "5"});
  EXPECT_EQ(s.syncs(), 1u);
  EXPECT_EQ(s.pending_records(), 0u);
  EXPECT_EQ(store::FileStore(dir).replay().payloads.size(), 5u);
  std::filesystem::remove_all(dir);
}

TEST(FileStoreBatching, SyncIntervalFlushesByTime) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "stpx_fs_timer").string();
  store::FileStoreConfig cfg;
  cfg.sync_every_n = 1000;
  cfg.sync_interval = 5ms;
  store::FileStore s(dir, cfg);
  s.reset();
  s.append("1");
  std::this_thread::sleep_for(10ms);
  s.append("2");  // the elapsed interval trips the flush
  EXPECT_GE(s.syncs(), 1u);
  EXPECT_EQ(s.pending_records(), 0u);
  std::filesystem::remove_all(dir);
}

// Satellite: torn-write recovery still resyncs after a batched tail loss.
// The dying process flushed a batch whose last record was torn mid-write
// AND had further appends buffered in memory; recovery must land on the
// newest intact record, count the damage, and the reopened log must keep
// working past the torn bytes.
TEST(FileStoreBatching, TornWriteRecoveryAfterBatchedTailLoss) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "stpx_fs_torn").string();
  store::FileStoreConfig cfg;
  cfg.sync_every_n = 4;
  {
    store::FileStore s(dir, cfg);
    s.reset();
    s.append("1");
    s.append("2");
    s.append("3");
    s.fault_torn_next_append();
    s.append("4");  // torn record rides the batch to disk (one sync)
    EXPECT_EQ(s.syncs(), 1u);
    s.append("5");  // buffered…
    s.append("6");  // …and lost with the process image
    EXPECT_EQ(s.pending_records(), 2u);
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

// --------------------------------------------------------------------------
// Rehydration harness
// --------------------------------------------------------------------------

/// Prefix attestation + kill-window tracking + rehydrate seeding: on_item
/// must arrive exactly in ascending per-session order, where a rehydrated
/// session's order resumes from its restored position (on_rehydrate seeds
/// the expectation) — superseded checkpoints re-earn items, they never
/// skip or repeat one within a server generation.
class DurableProbe final : public net::INetProbe {
 public:
  explicit DurableProbe(std::size_t max_sessions)
      : next_(max_sessions), restored_(max_sessions) {
    for (auto& a : next_) a.store(0, std::memory_order_relaxed);
    for (auto& a : restored_) a.store(0, std::memory_order_relaxed);
  }

  void on_item(std::uint32_t session, std::size_t index) override {
    ++items_;
    const std::size_t want =
        next_[session].fetch_add(1, std::memory_order_relaxed);
    if (index != want) out_of_order_ = true;
  }
  void on_session_state(std::uint32_t, net::SessionState s) override {
    if (s == net::SessionState::kCompleted) ++completed_;
    if (s == net::SessionState::kSafetyViolation) ++violations_;
    if (s == net::SessionState::kRecoveryViolation) ++recovery_violations_;
  }
  void on_rehydrate(std::uint32_t session, std::size_t position,
                    net::SessionState) override {
    ++rehydrated_;
    next_[session].store(position, std::memory_order_relaxed);
    restored_[session].store(position, std::memory_order_relaxed);
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
struct RestartRig {
  std::size_t n = 0;
  std::size_t len = 0;
  net::LoopbackPair wire;
  store::MemStore st0, st1;
  std::unique_ptr<DurableProbe> probe1, probe2;
  std::unique_ptr<net::StpClient> client;
  std::unique_ptr<net::StpServer> server;   // generation 1
  std::unique_ptr<net::StpServer> server2;  // generation 2

  net::MuxConfig base_cfg() const {
    net::MuxConfig cfg;
    cfg.workers = 2;
    cfg.steps_per_sweep = 2;
    cfg.max_inflight = 8;
    cfg.keepalive_sweeps = 4;
    cfg.sweep_interval = 400us;
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

    client = std::make_unique<net::StpClient>(wire.a.get(), base_cfg());
    net::MuxConfig scfg = base_cfg();
    scfg.probe = probe1.get();
    scfg.session_stores = {&st0, &st1};
    server = std::make_unique<net::StpServer>(wire.b.get(), scfg);
    for (std::uint32_t id = 0; id < n; ++id) {
      auto pair = proto::make_stenning(kDomain, /*sender_ack_rewind=*/true);
      const auto x = seq_for(id, len);
      client->add_session(id, std::move(pair.sender), x);
      server->add_session(id, std::move(pair.receiver), x);
    }
    client->mux().start();
    server->mux().start();
  }

  /// Wait for the kill window: every session made progress (>= 1 item, so
  /// every session is manifested) and — by construction, equal-length
  /// near-lockstep sequences — none is anywhere near completing.
  bool wait_kill_window(std::chrono::seconds timeout) const {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      if (probe1->min_progress(n) >= 1) return true;
      std::this_thread::sleep_for(1ms);
    }
    return false;
  }

  /// Crash-shaped kill of generation 1; the client keeps running against
  /// a dead endpoint (frames pile into the bounded wire queue == loss).
  void kill_server() { server->mux().kill(); }

  /// Construct generation 2 on the same transport endpoint and stores and
  /// re-admit every manifested session.
  net::RehydrateReport restart(std::uint64_t idle_violation_sweeps = 0) {
    net::MuxConfig scfg = base_cfg();
    scfg.probe = probe2.get();
    scfg.session_stores = {&st0, &st1};
    scfg.rehydrate_idle_violation_sweeps = idle_violation_sweeps;
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
  cfg.sweep_interval = 200us;
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
  EXPECT_GT(ss.checkpoint_flushes, 0u);
  EXPECT_GT(ss.checkpoint_records, 0u);
  EXPECT_GT(ss.checkpoint_bytes, 0u);
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
  EXPECT_EQ(gen2.mux().stats().rehydrated_sessions, kSessions);
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
  cfg.sweep_interval = 200us;
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
  constexpr std::size_t kLen = 8;
  RestartRig rig;
  rig.start(kSessions, kLen, lossy_wire(0xD0D0));
  ASSERT_TRUE(rig.wait_kill_window(60s));
  rig.kill_server();
  ASSERT_EQ(rig.server->mux().stats().sessions_completed, 0u);

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
  EXPECT_EQ(ss.rehydrated_sessions, kSessions);
  EXPECT_EQ(ss.sessions_completed, kSessions);
  EXPECT_EQ(ss.sessions_violated, 0u);
  EXPECT_EQ(ss.sessions_recovery_violated, 0u);
  EXPECT_GT(ss.checkpoint_flushes, 0u);
  EXPECT_GT(ss.checkpoint_bytes, 0u);
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
  cfg.sweep_interval = 200us;
  cfg.keepalive_sweeps = 4;
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
  EXPECT_GE(server.mux().stats().fins_sent, 1u);  // the healing re-FIN
  // No items moved this generation — the tape was already complete.
  EXPECT_EQ(server.mux().stats().items_done, 0u);
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
  constexpr std::size_t kLen = 8;
  RestartRig rig;
  rig.start(kSessions, kLen, lossy_wire(0xFA017));
  ASSERT_TRUE(rig.wait_kill_window(60s));
  rig.kill_server();
  ASSERT_EQ(rig.server->mux().stats().sessions_completed, 0u);

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
  EXPECT_EQ(rig.server2->mux().stats().sessions_violated, 0u);
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
  EXPECT_EQ(ss.sessions_recovery_violated, 1u);
  EXPECT_EQ(ss.sessions_violated, 0u);  // distinct from kSafetyViolation
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
  scfg.sweep_interval = 200us;
  scfg.session_stores = {&st};
  scfg.rehydrate_idle_violation_sweeps = 30;
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
  EXPECT_EQ(server.mux().stats().sessions_recovery_violated, 1u);
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
    if (m && m->is_sender && !m->completed) {
      EXPECT_EQ(m->position, 0u);
      states.insert(m->endpoint_state);
    }
  }
  EXPECT_GT(states.size(), 2u);
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
  // the first checkpoint flush, stamped with the survivor's id.  Watch
  // the (atomic) flush counter while running; only inspect the store
  // after stop() — it is worker-owned while the mux is live.
  server.mux().start();
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (server.mux().stats().checkpoint_flushes == 0 &&
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
  constexpr std::size_t kLen = 6;

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
  ASSERT_EQ(rig.server->mux().stats().sessions_completed, 0u);

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
  EXPECT_EQ(ss.sessions_completed, kSessions);
  EXPECT_EQ(ss.sessions_violated, 0u);
  EXPECT_EQ(ss.sessions_recovery_violated, 0u);
  EXPECT_EQ(ss.sessions_evicted, 0u);
  EXPECT_EQ(ss.rehydrated_sessions, rep.sessions);
  EXPECT_GT(ss.checkpoint_flushes, 0u);
  EXPECT_GT(ss.checkpoint_bytes, 0u);

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

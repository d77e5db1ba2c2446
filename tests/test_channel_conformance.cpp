// Channel conformance: interface laws every IChannel implementation must
// satisfy, run against all four channels through one parameterized suite.
//
//   C1 fresh/reset channels are empty;
//   C2 deliverable() lists exactly the ids with copies() > 0, sorted-ish
//      (each id once);
//   C3 deliver() requires copies() > 0 and never *increases* the count;
//   C4 drop() requires can_drop() and copies() > 0;
//   C5 clone() is a deep, independent copy;
//   C6 directions are independent;
//   C7 sending never reduces what is deliverable (for policy-free
//      configurations).
//
// A second suite pins the buffer form deliverable_into() to deliverable()
// on every channel, the fault decorator and a decorator that relies on the
// interface's default.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>

#include "channel/del_channel.hpp"
#include "channel/dup_channel.hpp"
#include "channel/dupdel_channel.hpp"
#include "channel/fifo_channel.hpp"
#include "channel/sync_channel.hpp"
#include "fault/chaos_channel.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace stpx::channel {
namespace {

using sim::Dir;

struct ChannelCase {
  std::string name;
  std::function<std::unique_ptr<sim::IChannel>()> make;  // policy-free
  bool fifo;  // only the head is deliverable
};

std::vector<ChannelCase> cases() {
  return {
      {"dup", [] { return std::make_unique<DupChannel>(); }, false},
      {"del", [] { return std::make_unique<DelChannel>(); }, false},
      {"dupdel", [] { return std::make_unique<DupDelChannel>(); }, false},
      {"fifo", [] { return std::make_unique<FifoChannel>(); }, true},
  };
}

class ChannelConformance : public ::testing::TestWithParam<std::size_t> {
 protected:
  std::unique_ptr<sim::IChannel> make() { return cases()[GetParam()].make(); }
  bool fifo() const { return cases()[GetParam()].fifo; }
};

TEST_P(ChannelConformance, C1_FreshAndResetAreEmpty) {
  auto ch = make();
  EXPECT_TRUE(ch->deliverable(Dir::kSenderToReceiver).empty());
  EXPECT_TRUE(ch->deliverable(Dir::kReceiverToSender).empty());
  ch->send(Dir::kSenderToReceiver, 1);
  ch->reset();
  EXPECT_TRUE(ch->deliverable(Dir::kSenderToReceiver).empty());
  EXPECT_EQ(ch->copies(Dir::kSenderToReceiver, 1), 0u);
}

TEST_P(ChannelConformance, C2_DeliverableMatchesCopies) {
  auto ch = make();
  ch->send(Dir::kSenderToReceiver, 3);
  ch->send(Dir::kSenderToReceiver, 3);
  ch->send(Dir::kSenderToReceiver, 7);
  const auto list = ch->deliverable(Dir::kSenderToReceiver);
  std::set<sim::MsgId> listed(list.begin(), list.end());
  EXPECT_EQ(listed.size(), list.size()) << "duplicate ids in deliverable()";
  for (sim::MsgId id : listed) {
    EXPECT_GT(ch->copies(Dir::kSenderToReceiver, id), 0u);
  }
  // Everything with copies > 0 among the ids we used must be listed —
  // except on FIFO channels, where only the head is exposed.
  if (!fifo()) {
    EXPECT_TRUE(listed.count(3));
    EXPECT_TRUE(listed.count(7));
  } else {
    EXPECT_EQ(list.size(), 1u);
  }
}

TEST_P(ChannelConformance, C3_DeliverRequiresCopiesAndNeverCreates) {
  auto ch = make();
  EXPECT_THROW(ch->deliver(Dir::kSenderToReceiver, 5), ContractError);
  ch->send(Dir::kSenderToReceiver, 5);
  const auto before = ch->copies(Dir::kSenderToReceiver, 5);
  ASSERT_GT(before, 0u);
  ch->deliver(Dir::kSenderToReceiver, 5);
  EXPECT_LE(ch->copies(Dir::kSenderToReceiver, 5), before);
}

TEST_P(ChannelConformance, C4_DropDiscipline) {
  auto ch = make();
  if (!ch->can_drop()) {
    ch->send(Dir::kSenderToReceiver, 2);
    EXPECT_THROW(ch->drop(Dir::kSenderToReceiver, 2), ContractError);
    return;
  }
  EXPECT_THROW(ch->drop(Dir::kSenderToReceiver, 2), ContractError);
  ch->send(Dir::kSenderToReceiver, 2);
  ch->drop(Dir::kSenderToReceiver, 2);
  EXPECT_EQ(ch->copies(Dir::kSenderToReceiver, 2), 0u);
}

TEST_P(ChannelConformance, C5_CloneIsDeep) {
  auto ch = make();
  ch->send(Dir::kSenderToReceiver, 1);
  auto copy = ch->clone();
  copy->send(Dir::kSenderToReceiver, 9);
  // New id in the clone is invisible in the original.
  EXPECT_EQ(ch->copies(Dir::kSenderToReceiver, 9), 0u);
  EXPECT_GT(copy->copies(Dir::kSenderToReceiver, 9) +
                (fifo() ? 1u : 0u),  // FIFO: 9 is behind the head
            0u);
  // Mutating the original does not touch the clone.
  if (ch->copies(Dir::kSenderToReceiver, 1) > 0) {
    ch->deliver(Dir::kSenderToReceiver, 1);
  }
  EXPECT_GT(copy->copies(Dir::kSenderToReceiver, 1), 0u);
}

TEST_P(ChannelConformance, C6_DirectionsIndependent) {
  auto ch = make();
  ch->send(Dir::kSenderToReceiver, 4);
  EXPECT_EQ(ch->copies(Dir::kReceiverToSender, 4), 0u);
  ch->send(Dir::kReceiverToSender, 6);
  EXPECT_EQ(ch->copies(Dir::kSenderToReceiver, 6), 0u);
  EXPECT_GT(ch->copies(Dir::kReceiverToSender, 6), 0u);
}

TEST_P(ChannelConformance, C7_SendNeverShrinksDeliverable) {
  auto ch = make();
  Rng rng(3 + GetParam());
  std::size_t prev = 0;
  for (int i = 0; i < 50; ++i) {
    ch->send(Dir::kSenderToReceiver,
             static_cast<sim::MsgId>(rng.below(5)));
    const auto now = ch->deliverable(Dir::kSenderToReceiver).size();
    if (!fifo()) {
      EXPECT_GE(now, prev) << "send removed deliverable ids";
    } else {
      EXPECT_GE(now, std::min<std::size_t>(prev, 1));
    }
    prev = now;
  }
}

TEST_P(ChannelConformance, FuzzNeverViolatesInternalContracts) {
  // Random legal operation soup: nothing may throw, and copies()/
  // deliverable() must stay mutually consistent throughout.
  auto ch = make();
  Rng rng(99 + GetParam());
  for (int i = 0; i < 3000; ++i) {
    const Dir dir = rng.chance(0.5) ? Dir::kSenderToReceiver
                                    : Dir::kReceiverToSender;
    const int op = static_cast<int>(rng.range(0, 2));
    if (op == 0) {
      ch->send(dir, static_cast<sim::MsgId>(rng.below(6)));
    } else {
      const auto avail = ch->deliverable(dir);
      if (avail.empty()) continue;
      const sim::MsgId id = rng.pick(avail);
      ASSERT_GT(ch->copies(dir, id), 0u);
      if (op == 1) {
        ch->deliver(dir, id);
      } else if (ch->can_drop()) {
        ch->drop(dir, id);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllChannels, ChannelConformance,
    ::testing::Range<std::size_t>(0, cases().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return cases()[info.param].name;
    });

// ------------------------------------------------------ deliverable_into --

/// Forwards every call but deliverable_into(), which it leaves to the
/// interface's default (perfbench's tracing decorator is one such).
class ListOnlyDecorator final : public sim::IChannel {
 public:
  explicit ListOnlyDecorator(std::unique_ptr<sim::IChannel> inner)
      : inner_(std::move(inner)) {}
  void reset() override { inner_->reset(); }
  void send(Dir dir, sim::MsgId msg) override { inner_->send(dir, msg); }
  std::vector<sim::MsgId> deliverable(Dir dir) const override {
    return inner_->deliverable(dir);
  }
  std::uint64_t copies(Dir dir, sim::MsgId msg) const override {
    return inner_->copies(dir, msg);
  }
  void deliver(Dir dir, sim::MsgId msg) override { inner_->deliver(dir, msg); }
  bool can_drop() const override { return inner_->can_drop(); }
  void drop(Dir dir, sim::MsgId msg) override { inner_->drop(dir, msg); }
  std::unique_ptr<sim::IChannel> clone() const override {
    return std::make_unique<ListOnlyDecorator>(inner_->clone());
  }
  std::string name() const override { return "list-only"; }

 private:
  std::unique_ptr<sim::IChannel> inner_;
};

struct IntoCase {
  std::string name;
  std::function<std::unique_ptr<sim::IChannel>()> make;
};

std::vector<IntoCase> into_cases() {
  return {
      {"del", [] { return std::make_unique<DelChannel>(0.2, 5); }},
      {"dup", [] { return std::make_unique<DupChannel>(); }},
      {"dupdel", [] { return std::make_unique<DupDelChannel>(0.2, 5); }},
      {"fifo", [] { return std::make_unique<FifoChannel>(0.2, 0.2, 5); }},
      {"sync", [] { return std::make_unique<SyncLossChannel>(0.2, 5); }},
      // Freeze windows open and close in both directions, and a cap
      // sheds sends while five copies are in flight.
      {"chaos_del",
       [] {
         return std::make_unique<fault::ChaosChannel>(
             std::make_unique<DelChannel>(),
             fault::plan_from_text("freeze @step 100 dir SR len 400\n"
                                   "freeze @step 300 dir RS len 150\n"
                                   "freeze @step 1200 dir SR len 300\n"
                                   "cap @step 600 dir SR count 5\n"));
       }},
      {"list_only_del",
       [] {
         return std::make_unique<ListOnlyDecorator>(
             std::make_unique<DelChannel>());
       }},
  };
}

class DeliverableInto : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DeliverableInto, MatchesDeliverableAfterEveryOp) {
  // After each op of a seeded op sequence, in both directions, the buffer
  // form lists what deliverable() lists, whatever `out` held before.
  auto ch = into_cases()[GetParam()].make();
  Rng rng(17 + GetParam());
  std::vector<sim::MsgId> out;
  std::size_t nonempty = 0;
  for (std::uint64_t step = 0; step < 2000; ++step) {
    ch->tick({step, 0});
    const Dir dir =
        rng.chance(0.5) ? Dir::kSenderToReceiver : Dir::kReceiverToSender;
    const int op = static_cast<int>(rng.range(0, 2));
    if (op == 0) {
      ch->send(dir, static_cast<sim::MsgId>(rng.below(8)));
    } else {
      const auto avail = ch->deliverable(dir);
      if (!avail.empty()) {
        const sim::MsgId id = rng.pick(avail);
        if (op == 1) {
          ch->deliver(dir, id);
        } else if (ch->can_drop()) {
          ch->drop(dir, id);
        }
      }
    }
    for (const Dir d : {Dir::kSenderToReceiver, Dir::kReceiverToSender}) {
      const auto want = ch->deliverable(d);
      out.assign({-5, 99, 1234, 7});  // junk the call must replace
      ch->deliverable_into(d, out);
      ASSERT_EQ(out, want) << "step " << step;
      nonempty += want.empty() ? 0 : 1;
    }
  }
  EXPECT_GT(nonempty, 0u);
}

TEST(DeliverableInto, DelChannelListsIdsAscending) {
  // The fair scheduler picks a delivery by index into this list, so its
  // order is part of every seeded run.
  DelChannel ch;
  Rng rng(23);
  std::vector<sim::MsgId> out;
  for (int i = 0; i < 3000; ++i) {
    const Dir dir =
        rng.chance(0.5) ? Dir::kSenderToReceiver : Dir::kReceiverToSender;
    if (rng.chance(0.6)) {
      ch.send(dir, static_cast<sim::MsgId>(rng.below(40)));
    } else if (const auto avail = ch.deliverable(dir); !avail.empty()) {
      ch.deliver(dir, rng.pick(avail));
    }
    ch.deliverable_into(dir, out);
    ASSERT_TRUE(std::adjacent_find(out.begin(), out.end(),
                                   std::greater_equal<sim::MsgId>()) ==
                out.end())
        << "op " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryChannel, DeliverableInto,
    ::testing::Range<std::size_t>(0, into_cases().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return into_cases()[info.param].name;
    });

}  // namespace
}  // namespace stpx::channel

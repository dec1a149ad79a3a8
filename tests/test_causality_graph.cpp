// Unit tests: the causality graph CG_i and UpdatePromote of Algorithm 5.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/ensure.h"
#include "etob/causality_graph.h"

namespace wfd {
namespace {

AppMsg msg(ProcessId origin, std::uint32_t seq) {
  AppMsg m;
  m.id = makeMsgId(origin, seq);
  m.origin = origin;
  m.body = {seq};
  return m;
}

TEST(CausalityGraphTest, AddMessageIdempotent) {
  CausalityGraph cg;
  cg.addMessage(msg(0, 0), {});
  cg.addMessage(msg(0, 0), {});
  EXPECT_EQ(cg.messageCount(), 1u);
}

TEST(CausalityGraphTest, EdgesFromDeps) {
  CausalityGraph cg;
  const AppMsg a = msg(0, 0), b = msg(0, 1);
  cg.addMessage(a, {});
  cg.addMessage(b, {a.id});
  EXPECT_TRUE(cg.causallyPrecedes(a.id, b.id));
  EXPECT_FALSE(cg.causallyPrecedes(b.id, a.id));
}

TEST(CausalityGraphTest, UnknownDepBecomesPlaceholder) {
  CausalityGraph cg;
  const AppMsg b = msg(0, 1);
  const MsgId ghost = makeMsgId(9, 9);
  cg.addMessage(b, {ghost});
  EXPECT_EQ(cg.messageCount(), 2u);  // placeholder node counts
  EXPECT_FALSE(cg.contains(ghost)) << "no content yet";
  EXPECT_TRUE(cg.contains(b.id));
  EXPECT_TRUE(cg.causallyPrecedes(ghost, b.id));
}

TEST(CausalityGraphTest, PlaceholderBlocksDependentInPromote) {
  CausalityGraph cg;
  const AppMsg a = msg(1, 0);
  const AppMsg b = msg(0, 1);
  const MsgId ghost = makeMsgId(9, 9);
  cg.addMessage(a, {});
  cg.addMessage(b, {ghost});  // b waits for ghost's content
  auto seq = cg.extendPromote({});
  EXPECT_EQ(seq, (std::vector<MsgId>{a.id}))
      << "b is causally buffered; unrelated a still promotable";
  // Content arrives (e.g. via a peer's update): b unblocks, after ghost.
  AppMsg ghostMsg;
  ghostMsg.id = ghost;
  ghostMsg.origin = 9 % 4;
  cg.addMessage(ghostMsg, {});
  seq = cg.extendPromote(seq);
  EXPECT_EQ(seq, (std::vector<MsgId>{a.id, ghost, b.id}));
}

TEST(CausalityGraphTest, PlaceholderBlocksTransitively) {
  CausalityGraph cg;
  const MsgId ghost = makeMsgId(9, 9);
  const AppMsg b = msg(0, 1);
  const AppMsg c = msg(0, 2);
  cg.addMessage(b, {ghost});
  cg.addMessage(c, {b.id});
  EXPECT_TRUE(cg.extendPromote({}).empty());
}

TEST(CausalityGraphTest, UnionFillsPlaceholderBody) {
  CausalityGraph mine, peers;
  const AppMsg a = msg(1, 0);
  const AppMsg b = msg(0, 1);
  peers.addMessage(a, {});
  mine.addMessage(b, {a.id});  // a unknown here: placeholder
  EXPECT_TRUE(mine.extendPromote({}).empty());
  mine.unionWith(peers);
  EXPECT_EQ(mine.extendPromote({}), (std::vector<MsgId>{a.id, b.id}));
}

TEST(CausalityGraphTest, UnionMergesBodiesAndEdges) {
  CausalityGraph a, b;
  const AppMsg m0 = msg(0, 0), m1 = msg(1, 0);
  a.addMessage(m0, {});
  b.addMessage(m0, {});
  b.addMessage(m1, {m0.id});
  a.unionWith(b);
  EXPECT_EQ(a.messageCount(), 2u);
  EXPECT_TRUE(a.causallyPrecedes(m0.id, m1.id));
  EXPECT_EQ(a.message(m1.id).origin, 1u);
}

TEST(CausalityGraphTest, TopologicalOrderRespectsEdgesWithIdTieBreak) {
  CausalityGraph cg;
  const AppMsg a = msg(1, 0), b = msg(0, 0), c = msg(0, 1);
  cg.addMessage(a, {});
  cg.addMessage(b, {a.id});
  cg.addMessage(c, {a.id});
  const auto order = cg.topologicalOrder();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], a.id);
  EXPECT_EQ(order[1], std::min(b.id, c.id));  // tie-break by id
}

TEST(CausalityGraphTest, ExtendPromoteKeepsPrefixAndCoversAll) {
  CausalityGraph cg;
  const AppMsg a = msg(0, 0), b = msg(1, 0), c = msg(0, 1);
  cg.addMessage(a, {});
  cg.addMessage(b, {});
  cg.addMessage(c, {a.id, b.id});
  std::vector<MsgId> promote{b.id};
  const auto extended = cg.extendPromote(promote);
  ASSERT_EQ(extended.size(), 3u);
  EXPECT_EQ(extended[0], b.id);  // prefix preserved
  // c after both deps:
  const auto pos = [&](MsgId id) {
    return std::find(extended.begin(), extended.end(), id) - extended.begin();
  };
  EXPECT_LT(pos(a.id), pos(c.id));
  EXPECT_LT(pos(b.id), pos(c.id));
}

TEST(CausalityGraphTest, ExtendPromoteOfEmptyIsTopoOrder) {
  CausalityGraph cg;
  const AppMsg a = msg(0, 0), b = msg(1, 0);
  cg.addMessage(a, {});
  cg.addMessage(b, {a.id});
  EXPECT_EQ(cg.extendPromote({}), cg.topologicalOrder());
}

TEST(CausalityGraphTest, DuplicatePromoteRejected) {
  CausalityGraph cg;
  const AppMsg a = msg(0, 0);
  cg.addMessage(a, {});
  EXPECT_THROW(cg.extendPromote({a.id, a.id}), InvariantError);
}

TEST(CausalityGraphTest, MessageLookupThrowsForUnknown) {
  CausalityGraph cg;
  EXPECT_THROW(cg.message(makeMsgId(1, 1)), InvariantError);
}

TEST(CausalityGraphTest, IncrementalMatchesBatchOnRandomEventStreams) {
  // Differential check of the incremental promote engine: after EVERY
  // event (add with placeholders, union) the maintained sequence must
  // equal replaying the batch reference over the same history.
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  // Global dep structure: message k depends on a random subset of the
  // ids created before it, so any ingestion order is acyclic and
  // out-of-order ingestion creates placeholders.
  constexpr std::uint32_t kMsgs = 48;
  std::vector<AppMsg> msgs;
  std::vector<std::vector<MsgId>> deps(kMsgs);
  for (std::uint32_t k = 0; k < kMsgs; ++k) {
    msgs.push_back(msg(k % 4, k));
    for (std::uint32_t j = 0; j < k; ++j) {
      if (next() % 4 == 0) deps[k].push_back(msgs[j].id);
    }
  }
  auto shuffled = [&] {
    std::vector<std::uint32_t> order(kMsgs);
    for (std::uint32_t k = 0; k < kMsgs; ++k) order[k] = k;
    for (std::uint32_t k = kMsgs; k > 1; --k) {
      std::swap(order[k - 1], order[next() % k]);
    }
    return order;
  };
  CausalityGraph a, b;
  std::vector<MsgId> expectA, expectB;
  auto check = [](CausalityGraph& cg, std::vector<MsgId>& expect) {
    expect = cg.extendPromote(expect);  // batch reference (const)
    ASSERT_EQ(cg.extendPromote(), expect);
  };
  const auto orderA = shuffled(), orderB = shuffled();
  for (std::uint32_t step = 0; step < kMsgs; ++step) {
    a.addMessage(msgs[orderA[step]], deps[orderA[step]]);
    check(a, expectA);
    b.addMessage(msgs[orderB[step]], deps[orderB[step]]);
    check(b, expectB);
    if (step % 5 == 4) {
      a.unionWith(b);
      check(a, expectA);
    }
    if (step % 7 == 6) {
      b.unionWith(a);
      check(b, expectB);
    }
  }
  a.unionWith(b);
  check(a, expectA);
  EXPECT_EQ(expectA.size(), kMsgs) << "everything promotable in the end";
  // Rebase equivalence: resetting onto a committed prefix equals the
  // batch extension of that prefix.
  const std::vector<MsgId> base(expectA.begin(),
                                expectA.begin() + kMsgs / 2);
  const auto viaBatch = a.extendPromote(base);
  EXPECT_EQ(a.resetPromote(base), viaBatch);
}

TEST(CausalityGraphTest, IncrementalRebaseMatchesBatchAtRandomPoints) {
  // Differential check of the incremental resetPromote: rebase at random
  // points of random event streams — onto a prefix of the maintained
  // sequence, onto the same set in another valid order, and onto a
  // shorter conflicting order — keep adding and unioning afterwards, and
  // compare with the batch reference after every step.
  for (std::uint64_t trial = 0; trial < 24; ++trial) {
    std::uint64_t rng = 0x9e3779b97f4a7c15ull ^ (trial * 0x2545f4914f6cdd1dull);
    auto next = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    constexpr std::uint32_t kMsgs = 40;
    std::vector<AppMsg> msgs;
    std::vector<std::vector<MsgId>> deps(kMsgs);
    for (std::uint32_t k = 0; k < kMsgs; ++k) {
      msgs.push_back(msg(k % 4, k));
      for (std::uint32_t j = 0; j < k; ++j) {
        if (next() % 5 == 0) deps[k].push_back(msgs[j].id);
      }
    }
    auto shuffled = [&] {
      std::vector<std::uint32_t> order(kMsgs);
      for (std::uint32_t k = 0; k < kMsgs; ++k) order[k] = k;
      for (std::uint32_t k = kMsgs; k > 1; --k) {
        std::swap(order[k - 1], order[next() % k]);
      }
      return order;
    };
    // A random order of `set` (downward closed: a prefix of a promote
    // sequence) that respects every edge of `cg`.
    auto reordered = [&](const CausalityGraph& cg, std::vector<MsgId> set) {
      std::vector<MsgId> out;
      while (!set.empty()) {
        std::vector<std::size_t> free;
        for (std::size_t i = 0; i < set.size(); ++i) {
          const bool blocked = std::any_of(set.begin(), set.end(), [&](MsgId o) {
            return o != set[i] && cg.causallyPrecedes(o, set[i]);
          });
          if (!blocked) free.push_back(i);
        }
        const std::size_t pick = free[next() % free.size()];
        out.push_back(set[pick]);
        set.erase(set.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      return out;
    };
    CausalityGraph a, b;
    std::vector<MsgId> expectA, expectB;
    auto check = [](CausalityGraph& cg, std::vector<MsgId>& expect) {
      expect = cg.extendPromote(expect);  // batch reference (const)
      ASSERT_EQ(cg.extendPromote(), expect);
    };
    auto rebaseAtRandom = [&](CausalityGraph& cg, std::vector<MsgId>& expect) {
      const std::vector<MsgId>& seq = cg.promoteSequence();
      if (seq.empty()) return;
      const std::size_t len = next() % (seq.size() + 1);
      std::vector<MsgId> base(seq.begin(), seq.begin() + static_cast<std::ptrdiff_t>(len));
      switch (next() % 3) {
        case 0:  // a prefix of the maintained sequence
          break;
        case 1:  // the whole set, another valid order
          base = reordered(cg, seq);
          break;
        default:  // shorter and (usually) conflicting
          base = reordered(cg, base);
          break;
      }
      expect = cg.extendPromote(base);
      ASSERT_EQ(cg.resetPromote(base), expect);
    };
    const auto orderA = shuffled(), orderB = shuffled();
    for (std::uint32_t step = 0; step < kMsgs; ++step) {
      a.addMessage(msgs[orderA[step]], deps[orderA[step]]);
      check(a, expectA);
      b.addMessage(msgs[orderB[step]], deps[orderB[step]]);
      check(b, expectB);
      if (next() % 3 == 0) rebaseAtRandom(a, expectA);
      if (next() % 4 == 0) rebaseAtRandom(b, expectB);
      if (step % 5 == 4) {
        a.unionWith(b);
        check(a, expectA);
      }
      if (step % 7 == 6) {
        b.unionWith(a);
        check(b, expectB);
      }
    }
    a.unionWith(b);
    check(a, expectA);
    rebaseAtRandom(a, expectA);
    EXPECT_EQ(expectA.size(), kMsgs) << "everything promotable in the end";
  }
}

TEST(CausalityGraphTest, FrontierReturnsCausallyMaximal) {
  CausalityGraph cg;
  const AppMsg a = msg(0, 0), b = msg(0, 1), c = msg(1, 0);
  cg.addMessage(a, {});
  cg.addMessage(b, {a.id});
  cg.addMessage(c, {});
  const auto f = cg.frontier();
  EXPECT_EQ(f.size(), 2u);
  EXPECT_TRUE(std::find(f.begin(), f.end(), b.id) != f.end());
  EXPECT_TRUE(std::find(f.begin(), f.end(), c.id) != f.end());
}

}  // namespace
}  // namespace wfd

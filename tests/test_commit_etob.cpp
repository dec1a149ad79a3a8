// Integration tests: the §7 extension — committed-prefix indications on
// top of ET OB. Under the paper's proviso (majority correct, leader
// eventually stable) indications must be produced and NEVER revoked; when
// the majority is gone indications must stop advancing (rather than lie).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "checkers/commit_checker.h"
#include "checkers/tob_checker.h"
#include "checkers/workload.h"
#include "etob/commit_etob.h"
#include "fd/detectors.h"
#include "helpers.h"
#include "scenario/scenario.h"

namespace wfd {
namespace {

SimConfig commitConfig(std::size_t n, std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.processCount = n;
  cfg.seed = seed;
  cfg.maxTime = 30000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  return cfg;
}

Simulator makeCommitSim(SimConfig cfg, FailurePattern fp, Time tauOmega,
                        OmegaPreStabilization mode) {
  auto omega = std::make_shared<OmegaFd>(fp, tauOmega, mode);
  Simulator sim(cfg, fp, omega);
  for (ProcessId p = 0; p < cfg.processCount; ++p) {
    sim.addProcess(p, std::make_unique<CommitEtobAutomaton>());
  }
  return sim;
}

TEST(CommitEtobTest, StableLeaderCommitsEverythingSafely) {
  auto cfg = commitConfig(3);
  auto fp = FailurePattern::noFailures(3);
  auto sim = makeCommitSim(cfg, fp, 0, OmegaPreStabilization::kStable);
  BroadcastWorkload w;
  w.perProcess = 5;
  auto log = scheduleBroadcastWorkload(sim, w);
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) {
    const auto commit = checkCommitSafety(s.trace(), s.failurePattern());
    return commit.committedLenAllCorrect >= log.size();
  }));
  const auto commit = checkCommitSafety(sim.trace(), fp);
  EXPECT_TRUE(commit.safetyOk())
      << (commit.errors.empty() ? "" : commit.errors[0]);
  EXPECT_EQ(commit.committedLenAllCorrect, log.size());
  // The underlying broadcast still satisfies the full spec.
  const auto report = checkBroadcastRun(sim.trace(), log, fp);
  EXPECT_TRUE(report.coreOk()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_TRUE(report.strongTobOk());
}

TEST(CommitEtobTest, CommitsSafeAcrossLateStabilization) {
  auto cfg = commitConfig(3);
  auto fp = FailurePattern::noFailures(3);
  const Time tauOmega = 1500;
  auto sim = makeCommitSim(cfg, fp, tauOmega, OmegaPreStabilization::kRotating);
  BroadcastWorkload w;
  w.perProcess = 5;
  auto log = scheduleBroadcastWorkload(sim, w);
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) {
    const auto commit = checkCommitSafety(s.trace(), s.failurePattern());
    return s.now() > tauOmega + 1000 &&
           commit.committedLenAllCorrect >= log.size();
  }));
  const auto commit = checkCommitSafety(sim.trace(), fp);
  EXPECT_TRUE(commit.safetyOk())
      << (commit.errors.empty() ? "" : commit.errors[0]);
  // Rotating pre-stabilization leaders may produce (safety-preserving)
  // conflicting commits — that is exactly the outside-the-proviso case §7
  // allows. What must hold is that NO NEW conflicts appear once Omega is
  // stable: keep running to maxTime and require the counters frozen.
  const auto totalConflicts = [&sim] {
    std::uint64_t total = 0;
    for (ProcessId p = 0; p < 3; ++p) {
      total += static_cast<const CommitEtobAutomaton&>(sim.automaton(p))
                   .commitConflicts();
    }
    return total;
  };
  const std::uint64_t atConvergence = totalConflicts();
  sim.run();
  EXPECT_EQ(totalConflicts(), atConvergence)
      << "conflicting commits after Omega stabilized";
  const auto late = checkCommitSafety(sim.trace(), fp);
  EXPECT_TRUE(late.safetyOk())
      << (late.errors.empty() ? "" : late.errors[0]);
}

TEST(CommitEtobTest, CommitsSafeAcrossLeaderCrash) {
  auto cfg = commitConfig(3);
  auto fp = FailurePattern::crashesAt(3, {{0, 2500}});
  auto sim = makeCommitSim(cfg, fp, 3500, OmegaPreStabilization::kRotating);
  BroadcastWorkload w;
  w.perProcess = 4;
  auto log = scheduleBroadcastWorkload(sim, w);
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) {
    const auto commit = checkCommitSafety(s.trace(), s.failurePattern());
    return s.now() > 5000 && commit.committedLenAllCorrect >= log.size();
  }));
  const auto commit = checkCommitSafety(sim.trace(), fp);
  EXPECT_TRUE(commit.safetyOk())
      << (commit.errors.empty() ? "" : commit.errors[0]);
}

TEST(CommitEtobTest, NoMajorityNoNewCommits) {
  auto cfg = commitConfig(5);
  cfg.maxTime = 15000;
  auto fp = Environments::majorityCrash(5, 2000);
  auto sim = makeCommitSim(cfg, fp, 2500, OmegaPreStabilization::kSplitBrain);
  BroadcastWorkload w;
  w.start = 3000;  // all broadcasts after the majority is gone
  w.perProcess = 4;
  auto log = scheduleBroadcastWorkload(sim, w);
  sim.run();
  const auto commit = checkCommitSafety(sim.trace(), fp);
  // Deliveries still flow (eventual consistency needs only Omega)...
  const auto report = checkBroadcastRun(sim.trace(), log, fp);
  EXPECT_TRUE(report.coreOk()) << (report.errors.empty() ? "" : report.errors[0]);
  // ...but nothing can be committed: acks can never reach a majority.
  EXPECT_EQ(commit.committedLenAllCorrect, 0u)
      << "commit indications require a majority — the Sigma-like price";
  EXPECT_TRUE(commit.safetyOk());
}

TEST(CommitEtobTest, IndicationMonotonePerProcess) {
  auto cfg = commitConfig(3);
  auto fp = FailurePattern::noFailures(3);
  auto sim = makeCommitSim(cfg, fp, 0, OmegaPreStabilization::kStable);
  BroadcastWorkload w;
  w.perProcess = 6;
  auto log = scheduleBroadcastWorkload(sim, w);
  sim.runUntil([&](const Simulator& s) {
    return checkCommitSafety(s.trace(), s.failurePattern())
               .committedLenAllCorrect >= log.size();
  });
  for (ProcessId p = 0; p < 3; ++p) {
    std::uint64_t last = 0;
    for (const auto& ev : sim.trace().outputs(p)) {
      if (const auto* c = ev.value.as<CommittedPrefix>()) {
        EXPECT_GE(c->length, last) << "commit watermark must be monotone";
        last = c->length;
      }
    }
    EXPECT_GT(last, 0u);
  }
}

/// One commit message a probed automaton sent.
struct SentCommit {
  ProcessId to = 0;
  std::size_t ids = 0;
  std::size_t contentFrom = 0;
  bool handBack = false;
};

/// Commit-eTOB probe that records the promotes and commit messages its
/// automaton sends (the wrapped automaton sees exactly the same steps and
/// effects).
class RecordingCommitEtob final : public CloneableAutomaton<RecordingCommitEtob> {
 public:
  explicit RecordingCommitEtob(EtobConfig config = {}) : inner_(config) {}

  void onInput(const StepContext& ctx, const Payload& input, Effects& fx) override {
    const std::size_t before = fx.sends().size();
    inner_.onInput(ctx, input, fx);
    record(fx, before);
  }
  void onMessage(const StepContext& ctx, ProcessId from, const Payload& msg,
                 Effects& fx) override {
    const std::size_t before = fx.sends().size();
    inner_.onMessage(ctx, from, msg, fx);
    record(fx, before);
  }
  void onTimeout(const StepContext& ctx, Effects& fx) override {
    const std::size_t before = fx.sends().size();
    inner_.onTimeout(ctx, fx);
    record(fx, before);
  }

  std::uint64_t promotes() const { return promotes_; }
  const std::vector<SentCommit>& commits() const { return commits_; }

 private:
  void record(const Effects& fx, std::size_t from) {
    for (std::size_t k = from; k < fx.sends().size(); ++k) {
      const OutboundMsg& out = fx.sends()[k];
      if (out.payload.holds<EtobPromoteMsg>()) ++promotes_;
      if (const auto* c = out.payload.as<EtobCommitMsg>()) {
        commits_.push_back({out.to, c->ids.size(), c->contentFrom(), c->handBack});
      }
    }
  }

  CommitEtobAutomaton inner_;
  std::uint64_t promotes_ = 0;
  std::vector<SentCommit> commits_;
};

TEST(CommitEtobTest, HonoursPromoteRefreshEvery) {
  // Promote suppression is a knob of the Algorithm 5 core; the §7 layer
  // inherits it. Under a stable leader it must cut the promotes sent
  // while every broadcast still commits everywhere, safely.
  const auto promotesSent = [](std::uint64_t refreshEvery) {
    auto cfg = commitConfig(3);
    auto fp = FailurePattern::noFailures(3);
    auto omega = std::make_shared<OmegaFd>(fp, 0, OmegaPreStabilization::kStable);
    Simulator sim(cfg, fp, omega);
    EtobConfig protoCfg;
    protoCfg.promoteRefreshEvery = refreshEvery;
    for (ProcessId p = 0; p < 3; ++p) {
      sim.addProcess(p, std::make_unique<RecordingCommitEtob>(protoCfg));
    }
    BroadcastWorkload w;
    w.perProcess = 5;
    auto log = scheduleBroadcastWorkload(sim, w);
    sim.run();
    const auto commit = checkCommitSafety(sim.trace(), fp);
    EXPECT_TRUE(commit.safetyOk())
        << (commit.errors.empty() ? "" : commit.errors[0]);
    EXPECT_EQ(commit.committedLenAllCorrect, log.size())
        << "promoteRefreshEvery=" << refreshEvery;
    const auto report = checkBroadcastRun(sim.trace(), log, fp);
    EXPECT_TRUE(report.coreOk())
        << (report.errors.empty() ? "" : report.errors[0]);
    std::uint64_t total = 0;
    for (ProcessId p = 0; p < 3; ++p) {
      total += static_cast<const RecordingCommitEtob&>(sim.automaton(p)).promotes();
    }
    return total;
  };
  const std::uint64_t everyLambda = promotesSent(1);
  const std::uint64_t suppressed = promotesSent(50);
  EXPECT_GT(suppressed, 0u);
  EXPECT_LT(suppressed, everyLambda);
}

// --- The commit content bound ------------------------------------------------

// Runs a 3-process stable-leader run to the horizon, checks the §7
// outcome (safe, every broadcast committed everywhere) and returns every
// commit message sent.
std::vector<SentCommit> runRecorded(FailurePattern fp) {
  auto cfg = commitConfig(3);
  auto omega = std::make_shared<OmegaFd>(fp, 0, OmegaPreStabilization::kStable);
  Simulator sim(cfg, fp, omega);
  for (ProcessId p = 0; p < 3; ++p) {
    sim.addProcess(p, std::make_unique<RecordingCommitEtob>());
  }
  BroadcastWorkload w;
  w.perProcess = 40;
  w.interval = 15;
  auto log = scheduleBroadcastWorkload(sim, w);
  sim.run();
  const auto commit = checkCommitSafety(sim.trace(), fp);
  EXPECT_TRUE(commit.safetyOk()) << (commit.errors.empty() ? "" : commit.errors[0]);
  EXPECT_EQ(commit.committedLenAllCorrect, log.size());
  const auto report = checkBroadcastRun(sim.trace(), log, fp);
  EXPECT_TRUE(report.coreOk()) << (report.errors.empty() ? "" : report.errors[0]);
  std::vector<SentCommit> all;
  for (ProcessId p = 0; p < 3; ++p) {
    const auto& c = static_cast<const RecordingCommitEtob&>(sim.automaton(p)).commits();
    all.insert(all.end(), c.begin(), c.end());
  }
  return all;
}

TEST(CommitContentBoundTest, StableRunShipsOnlyTheUnacknowledgedWindow) {
  // The leader commits every few λ; by its second commit every process
  // has acknowledged some promote, so each commit ships only the bodies
  // past the shortest acknowledged promote (at most 4 in this run) —
  // where shipping everything would send up to 120.
  const std::vector<SentCommit> commits = runRecorded(FailurePattern::noFailures(3));
  ASSERT_GE(commits.size(), 40u);
  EXPECT_EQ(commits.back().ids, 120u);
  for (std::size_t k = 0; k < commits.size(); ++k) {
    const SentCommit& c = commits[k];
    EXPECT_EQ(c.to, kBroadcast);
    EXPECT_FALSE(c.handBack);
    EXPECT_LE(c.ids - c.contentFrom, 4u) << "commit " << k << " of " << c.ids;
    if (k > 0) {
      EXPECT_GT(c.contentFrom, 0u) << "commit " << k;
    }
  }
}

TEST(CommitContentBoundTest, CrashedFollowerGetsFullContent) {
  // A follower crashed from t=0 never acknowledges, so no prefix is known
  // to be nameable everywhere: every commit ships everything, and the run
  // still commits every broadcast of the correct majority.
  const std::vector<SentCommit> commits =
      runRecorded(FailurePattern::crashesAt(3, {{2, 0}}));
  ASSERT_FALSE(commits.empty());
  for (const SentCommit& c : commits) {
    EXPECT_EQ(c.to, kBroadcast);
    EXPECT_EQ(c.contentFrom, 0u) << "commit of " << c.ids;
  }
  EXPECT_EQ(commits.back().ids, 80u);
}

TEST(CommitContentBoundTest, HandBacksAndTheirAnswersShipEverything) {
  // Direct unit check at a follower p1 of n=3: it adopts p0's promote,
  // acknowledges it and learns p0's commit of [m1, m2]. The new leader p2
  // then keeps promoting [m2], which contradicts the commit, until p1
  // hands the commit back with all of its content.
  CommitEtobAutomaton a;
  StepContext ctx;
  ctx.self = 1;
  ctx.processCount = 3;
  ctx.fd.leader = 0;
  AppMsg m1, m2;
  m1.id = makeMsgId(0, 0);
  m1.origin = 0;
  m1.body = {7};
  m2.id = makeMsgId(2, 0);
  m2.origin = 2;
  m2.body = {8, 9};
  const std::vector<MsgId> ids{m1.id, m2.id};
  Effects fx;
  a.onMessage(ctx, 0, Payload::of(EtobPromoteMsg{{m1, m2}, 1, 0}), fx);
  ASSERT_EQ(fx.sends().size(), 1u);
  EXPECT_TRUE(fx.sends()[0].payload.holds<EtobAckMsg>());
  a.onMessage(ctx, 0, Payload::of(EtobCommitMsg{ids, {}, false}), fx);
  ASSERT_EQ(a.committedPrefix(), ids) << "a commit of acknowledged content";
  // The commit carried no bodies, so the rebase learned both from the
  // adopted promote: as leader, p1 can promote them.
  ctx.fd.leader = 1;
  fx.clear();
  a.onTimeout(ctx, fx);
  ASSERT_EQ(fx.sends().size(), 1u);
  const auto* promote = fx.sends()[0].payload.as<EtobPromoteMsg>();
  ASSERT_NE(promote, nullptr);
  ASSERT_EQ(promote->seq.size(), 2u);
  EXPECT_EQ(promote->seq[0].body, m1.body);
  EXPECT_EQ(promote->seq[1].body, m2.body);

  ctx.fd.leader = 2;
  const EtobCommitMsg* handBack = nullptr;
  std::size_t weight = 0;
  for (std::uint64_t epoch = 1; epoch <= 200 && handBack == nullptr; ++epoch) {
    fx.clear();
    a.onMessage(ctx, 2, Payload::of(EtobPromoteMsg{{m2}, epoch, 0}), fx);
    for (const OutboundMsg& out : fx.sends()) {
      if (const auto* c = out.payload.as<EtobCommitMsg>()) {
        EXPECT_EQ(out.to, 2u);
        handBack = c;
        weight = out.weight;
      }
    }
  }
  ASSERT_NE(handBack, nullptr) << "no hand-back after 200 refused promotes";
  EXPECT_EQ(a.handBacks(), 1u);
  EXPECT_TRUE(handBack->handBack);
  EXPECT_EQ(handBack->ids, ids);
  EXPECT_EQ(handBack->contentFrom(), 0u);
  ASSERT_EQ(handBack->content.size(), 2u);
  EXPECT_EQ(handBack->content[1].body, m2.body);
  // 2 + |ids| + Σ(1 + |body|): what a full-content commit always weighed.
  EXPECT_EQ(weight, 2u + 2u + (1u + 1u) + (1u + 2u));

  // A weaker hand-back ([m1] alone) gets the stronger commit back, again
  // with all of its content.
  fx.clear();
  a.onMessage(ctx, 2, Payload::of(EtobCommitMsg{{m1.id}, {m1}, true}), fx);
  ASSERT_EQ(fx.sends().size(), 1u);
  const auto* answer = fx.sends()[0].payload.as<EtobCommitMsg>();
  ASSERT_NE(answer, nullptr);
  EXPECT_EQ(fx.sends()[0].to, 2u);
  EXPECT_FALSE(answer->handBack);
  EXPECT_EQ(answer->ids, ids);
  EXPECT_EQ(answer->content.size(), 2u);
}

TEST(CommitContentBoundTest, AcksFromBeforeARebaseDoNotCount) {
  // Direct unit check at a leader p0 of n=3. It promotes [m1, m2] (epoch
  // 1) and commits it, then adopts a stronger conflicting commit
  // [m1, m3, m2] — a rebase that reorders promote_i — and promotes
  // [m1, m3, m2, m4] (epoch 2), which p0 and p1 acknowledge. p2's only
  // acknowledgment is of epoch 1: it may never have seen m3, so the
  // commit of epoch 2 must ship everything, whether p2's ack arrived
  // before the rebase or after it.
  const auto body = [](ProcessId origin, std::uint32_t seq) {
    AppMsg m;
    m.id = makeMsgId(origin, seq);
    m.origin = origin;
    m.body = {seq + 1};
    return m;
  };
  const AppMsg m1 = body(1, 0), m2 = body(2, 0), m3 = body(1, 1), m4 = body(2, 1);
  const auto commitAfterRebase = [&](bool p2AcksLate) {
    CommitEtobAutomaton a;
    StepContext ctx;
    ctx.self = 0;
    ctx.processCount = 3;
    ctx.fd.leader = 0;
    Effects fx;
    a.onMessage(ctx, 1, Payload::of(EtobDeltaMsg{m1, {}}), fx);
    a.onMessage(ctx, 2, Payload::of(EtobDeltaMsg{m2, {}}), fx);
    a.onTimeout(ctx, fx);  // epoch 1: [m1, m2]
    a.onMessage(ctx, 0, Payload::of(EtobAckMsg{1}), fx);
    a.onMessage(ctx, 1, Payload::of(EtobAckMsg{1}), fx);
    if (!p2AcksLate) a.onMessage(ctx, 2, Payload::of(EtobAckMsg{1}), fx);
    EXPECT_EQ(a.committedPrefix(), (std::vector<MsgId>{m1.id, m2.id}));
    a.onMessage(ctx, 1,
                Payload::of(EtobCommitMsg{{m1.id, m3.id, m2.id}, {m1, m3, m2}, false}),
                fx);
    EXPECT_EQ(a.committedPrefix().size(), 3u) << "the stronger commit wins";
    if (p2AcksLate) a.onMessage(ctx, 2, Payload::of(EtobAckMsg{1}), fx);
    a.onMessage(ctx, 2, Payload::of(EtobDeltaMsg{m4, {}}), fx);
    a.onTimeout(ctx, fx);  // epoch 2: [m1, m3, m2, m4]
    fx.clear();
    a.onMessage(ctx, 0, Payload::of(EtobAckMsg{2}), fx);
    a.onMessage(ctx, 1, Payload::of(EtobAckMsg{2}), fx);
    EXPECT_EQ(a.committedPrefix(), (std::vector<MsgId>{m1.id, m3.id, m2.id, m4.id}));
    for (const OutboundMsg& out : fx.sends()) {
      if (const auto* c = out.payload.as<EtobCommitMsg>()) return c->contentFrom();
    }
    ADD_FAILURE() << "epoch 2 was not committed";
    return std::size_t{0};
  };
  EXPECT_EQ(commitAfterRebase(/*p2AcksLate=*/false), 0u);
  EXPECT_EQ(commitAfterRebase(/*p2AcksLate=*/true), 0u);
}

// Sweep: commit safety across seeds and environments with a majority.
class CommitSweepTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(CommitSweepTest, CommitSafetyHolds) {
  const auto [seed, crashes] = GetParam();
  auto cfg = commitConfig(5, seed);
  auto fp = crashes == 0 ? FailurePattern::noFailures(5)
                         : Environments::staggeredCrashes(5, crashes, 1200, 100);
  auto sim = makeCommitSim(cfg, fp, 2000, OmegaPreStabilization::kRotating);
  BroadcastWorkload w;
  w.perProcess = 4;
  auto log = scheduleBroadcastWorkload(sim, w);
  sim.runUntil([&](const Simulator& s) {
    return s.now() > 4000 &&
           checkCommitSafety(s.trace(), s.failurePattern())
                   .committedLenAllCorrect >= log.size();
  });
  const auto commit = checkCommitSafety(sim.trace(), fp);
  EXPECT_TRUE(commit.safetyOk())
      << (commit.errors.empty() ? "" : commit.errors[0]);
  EXPECT_GT(commit.indications, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CommitSweepTest,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 7, 19, 43),
                       ::testing::Values<std::size_t>(0, 2)));

// Stream pins for the commit path: what a replica observes, with nothing
// that depends on wire weight. Recorded before the commit layer learned
// to ship only the content some process cannot yet name (and to rebase
// only the new suffix); both are pure wire/work savings, so these must
// never move. Indexed [entry][seed 1..3]: {delivery stream, commit stream}.
struct CommitStreamPin {
  const char* scenario;
  std::uint64_t streams[3][2];
};

constexpr CommitStreamPin kCommitStreamPins[] = {
    {"commit-stable-majority",
     {{0x7867017edde64ebcULL, 0x2ecdffaebd02d7ddULL},
      {0x831cd06df6bd19c4ULL, 0x6cedb31efccbeb6aULL},
      {0x4205f946e6505a23ULL, 0x180bfa907a8bb9f9ULL}}},
    {"commit-majority-crash",
     {{0xa0611125f037d9f0ULL, 0xe2ec8ec0601ea932ULL},
      {0x35df778fbbc22485ULL, 0xefb9ca9cde71d2c1ULL},
      {0xe69e3abc3362c799ULL, 0x616f6b32a64c135cULL}}},
    {"lossy-burst-commit",
     {{0x47449093c10c19cfULL, 0xf4c1408ddc0b9eb8ULL},
      {0x1c7063b5bf5d54deULL, 0x4ff0e3e5c52421d9ULL},
      {0x3f818688558b5d1eULL, 0xfd82b85c16e548a0ULL}}},
};

TEST(CommitStreamPinTest, CatalogStreamsMatchPins) {
  for (const CommitStreamPin& pin : kCommitStreamPins) {
    const Scenario* s = findScenario(pin.scenario);
    ASSERT_NE(s, nullptr) << pin.scenario;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Cluster cluster(clusterSpec(*s), seed);
      test::StreamDigest deliveries;
      test::StreamDigest commits;
      cluster.observeDeliveries(
          [&](ProcessId p, Time t, const std::vector<MsgId>& seq) {
            deliveries.fold(p, t, seq);
          });
      cluster.observeOutputs([&](ProcessId p, Time t, const Payload& o) {
        if (const auto* c = o.as<CommittedPrefix>()) commits.fold(p, t, c->length);
      });
      cluster.runToHorizon();
      const std::string what = std::string(pin.scenario) + " seed " + std::to_string(seed);
      EXPECT_EQ(deliveries.value, pin.streams[seed - 1][0]) << what << " deliveries";
      EXPECT_EQ(commits.value, pin.streams[seed - 1][1]) << what << " commits";
    }
  }
}

}  // namespace
}  // namespace wfd

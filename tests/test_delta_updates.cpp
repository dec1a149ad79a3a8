// Tests: the delta-update ablation — EtobDeltaMsg mode must be
// behaviour-identical to the paper's full-graph updates (same delivery
// sequences, same spec) at a fraction of the gossip weight.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "checkers/tob_checker.h"
#include "checkers/workload.h"
#include "etob/etob_automaton.h"
#include "fd/detectors.h"
#include "helpers.h"

namespace wfd {
namespace {

struct RunOutcome {
  std::vector<std::vector<MsgId>> finalDelivered;
  std::uint64_t weight = 0;
  std::uint64_t promotes = 0;
  BroadcastCheckReport report;
};

/// Forwards every step to an EtobAutomaton and counts the promotes it
/// sends.
class PromoteCountingEtob final : public CloneableAutomaton<PromoteCountingEtob> {
 public:
  PromoteCountingEtob(EtobConfig config, std::shared_ptr<std::uint64_t> promotes)
      : inner_(config), promotes_(std::move(promotes)) {}

  void onInput(const StepContext& ctx, const Payload& input, Effects& fx) override {
    const std::size_t before = fx.sends().size();
    inner_.onInput(ctx, input, fx);
    count(fx, before);
  }
  void onMessage(const StepContext& ctx, ProcessId from, const Payload& msg,
                 Effects& fx) override {
    const std::size_t before = fx.sends().size();
    inner_.onMessage(ctx, from, msg, fx);
    count(fx, before);
  }
  void onTimeout(const StepContext& ctx, Effects& fx) override {
    const std::size_t before = fx.sends().size();
    inner_.onTimeout(ctx, fx);
    count(fx, before);
  }

 private:
  void count(const Effects& fx, std::size_t from) {
    for (std::size_t k = from; k < fx.sends().size(); ++k) {
      if (fx.sends()[k].payload.holds<EtobPromoteMsg>()) ++*promotes_;
    }
  }

  EtobAutomaton inner_;
  std::shared_ptr<std::uint64_t> promotes_;
};

RunOutcome run(bool delta, std::uint64_t seed, Time tauOmega,
               std::uint64_t promoteRefreshEvery = 1) {
  SimConfig cfg;
  cfg.processCount = 3;
  cfg.seed = seed;
  cfg.maxTime = 30000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  auto fp = FailurePattern::noFailures(3);
  auto omega = std::make_shared<OmegaFd>(
      fp, tauOmega,
      tauOmega == 0 ? OmegaPreStabilization::kStable
                    : OmegaPreStabilization::kSplitBrain);
  Simulator sim(cfg, fp, omega);
  EtobConfig protoCfg;
  protoCfg.deltaUpdates = delta;
  protoCfg.promoteRefreshEvery = promoteRefreshEvery;
  auto promotes = std::make_shared<std::uint64_t>(0);
  for (ProcessId p = 0; p < 3; ++p) {
    sim.addProcess(p, std::make_unique<PromoteCountingEtob>(protoCfg, promotes));
  }
  BroadcastWorkload w;
  w.perProcess = 6;
  w.causalChainPerOrigin = true;
  auto log = scheduleBroadcastWorkload(sim, w);
  sim.runUntil([&](const Simulator& s) {
    return s.now() > tauOmega + 1500 && broadcastConverged(s, log);
  });
  RunOutcome out;
  for (ProcessId p = 0; p < 3; ++p) {
    out.finalDelivered.push_back(sim.trace().currentDelivered(p));
  }
  out.weight = sim.trace().weightSent();
  out.promotes = *promotes;
  out.report = checkBroadcastRun(sim.trace(), log, fp);
  return out;
}

TEST(DeltaUpdateTest, IdenticalDeliverySequences) {
  for (std::uint64_t seed : {1u, 9u, 17u}) {
    auto full = run(false, seed, 0);
    auto delta = run(true, seed, 0);
    EXPECT_EQ(full.finalDelivered, delta.finalDelivered) << "seed " << seed;
  }
}

TEST(DeltaUpdateTest, SpecHoldsInDeltaMode) {
  auto out = run(true, 5, 1200);
  EXPECT_TRUE(out.report.coreOk())
      << (out.report.errors.empty() ? "" : out.report.errors[0]);
  EXPECT_TRUE(out.report.causalOrderOk);
}

TEST(DeltaUpdateTest, DeltaModeIsMuchLighter) {
  // With promote suppression active in BOTH runs, update traffic
  // dominates and the delta encoding must cut the gossip weight hard.
  auto full = run(false, 3, 0, /*promoteRefreshEvery=*/50);
  auto delta = run(true, 3, 0, /*promoteRefreshEvery=*/50);
  EXPECT_EQ(full.finalDelivered, delta.finalDelivered);
  EXPECT_LT(delta.weight * 2, full.weight)
      << "delta updates must at least halve the gossip weight "
      << "(full=" << full.weight << ", delta=" << delta.weight << ")";
}

TEST(DeltaUpdateTest, PromoteSuppressionIsLighterAndStillConverges) {
  // Promote-on-change (N = 50) sends a promote only when promote_i grew,
  // leadership was just taken, or N λ-steps passed; every-λ (N = 1)
  // sends one per leader λ-step. This schedule sends 281 promotes every
  // λ and 25 suppressed (wire weight 6423 vs 4032: delta promotes
  // already make an unchanged re-promote cheap, so the count is what
  // suppression saves).
  auto everyLambda = run(false, 3, 1200, /*promoteRefreshEvery=*/1);
  auto suppressed = run(false, 3, 1200, /*promoteRefreshEvery=*/50);
  EXPECT_TRUE(suppressed.report.coreOk())
      << (suppressed.report.errors.empty() ? "" : suppressed.report.errors[0]);
  EXPECT_LT(suppressed.promotes * 8, everyLambda.promotes)
      << "promote-on-change should send far fewer promotes "
      << "(every-λ=" << everyLambda.promotes << ", suppressed="
      << suppressed.promotes << ")";
  EXPECT_LT(suppressed.weight, everyLambda.weight);
  // The convergence bound relaxes to τ_Ω + N·Δ_t + Δ_c.
  EXPECT_LE(suppressed.report.tau, 1200 + 50 * 10 + 40);
}

TEST(DeltaUpdateTest, PlaceholderDepsResolveAcrossDeltas) {
  // Client-session dependency (dep unknown at broadcast) in delta mode:
  // the dependent must stay buffered until the dep's delta arrives, then
  // deliver in causal order.
  SimConfig cfg;
  cfg.processCount = 3;
  cfg.seed = 2;
  cfg.maxTime = 20000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  auto fp = FailurePattern::noFailures(3);
  auto omega = std::make_shared<OmegaFd>(fp, 0, OmegaPreStabilization::kStable);
  Simulator sim(cfg, fp, omega);
  EtobConfig protoCfg;
  protoCfg.deltaUpdates = true;
  for (ProcessId p = 0; p < 3; ++p) {
    sim.addProcess(p, std::make_unique<EtobAutomaton>(protoCfg));
  }
  BroadcastLog log;
  AppMsg a;
  a.id = makeMsgId(0, 0);
  a.origin = 0;
  AppMsg b;
  b.id = makeMsgId(1, 0);
  b.origin = 1;
  b.causalDeps = {a.id};  // declared 3 ticks later, before a's delta lands
  log.record(a, 100);
  log.record(b, 103);
  sim.scheduleInput(0, 100, Payload::of(BroadcastInput{a}));
  sim.scheduleInput(1, 103, Payload::of(BroadcastInput{b}));
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) {
    return broadcastConverged(s, log);
  }));
  const auto report = checkBroadcastRun(sim.trace(), log, fp);
  EXPECT_TRUE(report.causalOrderOk)
      << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_TRUE(report.coreOk());
}

}  // namespace
}  // namespace wfd

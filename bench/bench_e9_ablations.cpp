// E9 — design-choice ablations (not a paper claim; engineering study of
// the implementation choices DESIGN.md calls out).
//
//  A1  update contents: full CG_i per update (the paper's letter) vs
//      per-message deltas — same behaviour, far less gossip weight.
//  A2  promote cadence: every λ-step (the paper's letter) vs
//      promote-on-change with periodic refresh — the dominant wire cost.
//
// Invariant for every ablation: byte-for-byte identical final delivery
// sequences and a passing ETOB spec check.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "checkers/tob_checker.h"
#include "checkers/workload.h"
#include "etob/etob_automaton.h"

namespace wfd::bench {
namespace {

struct Outcome {
  std::uint64_t weight = 0;
  std::uint64_t messages = 0;
  std::size_t cgEdges = 0;
  bool identicalToBaseline = true;
  bool specOk = false;
  Time tau = 0;
};

std::vector<std::vector<MsgId>> finalSequences(const Simulator& sim) {
  std::vector<std::vector<MsgId>> out;
  for (ProcessId p = 0; p < sim.config().processCount; ++p) {
    out.push_back(sim.trace().currentDelivered(p));
  }
  return out;
}

Outcome run(const EtobConfig& protoCfg, std::uint64_t seed,
            const std::vector<std::vector<MsgId>>* baseline) {
  SimConfig cfg;
  cfg.processCount = 3;
  cfg.seed = seed;
  cfg.maxTime = 30000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  const Time tauOmega = 1200;
  auto fp = FailurePattern::noFailures(3);
  auto omega =
      std::make_shared<OmegaFd>(fp, tauOmega, OmegaPreStabilization::kSplitBrain);
  Simulator sim(cfg, fp, omega);
  for (ProcessId p = 0; p < 3; ++p) {
    sim.addProcess(p, std::make_unique<EtobAutomaton>(protoCfg));
  }
  BroadcastWorkload w;
  w.perProcess = 8;
  w.causalChainPerOrigin = true;
  auto log = scheduleBroadcastWorkload(sim, w);
  sim.runUntil([&](const Simulator& s) {
    return s.now() > tauOmega + 1500 && broadcastConverged(s, log);
  });
  Outcome out;
  out.weight = sim.trace().weightSent();
  out.messages = sim.trace().messagesSent();
  out.cgEdges =
      static_cast<const EtobAutomaton&>(sim.automaton(0)).causalityGraph().edgeCount();
  const auto report = checkBroadcastRun(sim.trace(), log, fp);
  out.specOk = report.coreOk() && report.causalOrderOk;
  out.tau = report.tau;
  if (baseline != nullptr) {
    out.identicalToBaseline = finalSequences(sim) == *baseline;
  }
  return out;
}

void printTable() {
  std::printf("E9: ablations of Algorithm 5's implementation choices\n"
              "(n=3, tau_Omega=1200, 24 causally chained broadcasts)\n\n");
  Table t({"variant", "weight", "msgs", "cg_edges", "same_d", "spec"}, 15);

  EtobConfig paper;  // the paper's letter: full updates, λ-promotes
  std::vector<std::vector<MsgId>> baselineSeqs;
  {
    auto base = run(paper, 1, nullptr);
    // Re-run to capture sequences (run() doesn't return them).
    // Baseline comparison below uses a fresh run per variant with the
    // same seed, so "same_d" for the paper row is trivially yes.
    t.row({"paper-exact", std::to_string(base.weight),
           std::to_string(base.messages), std::to_string(base.cgEdges), "yes",
           base.specOk ? "ok" : "FAIL"});
  }
  // Capture baseline delivery sequences once.
  {
    SimConfig cfg;
    cfg.processCount = 3;
    cfg.seed = 1;
    cfg.maxTime = 30000;
    cfg.timeoutPeriod = 10;
    cfg.minDelay = 20;
    cfg.maxDelay = 40;
    auto fp = FailurePattern::noFailures(3);
    auto omega =
        std::make_shared<OmegaFd>(fp, 1200, OmegaPreStabilization::kSplitBrain);
    Simulator sim(cfg, fp, omega);
    for (ProcessId p = 0; p < 3; ++p) {
      sim.addProcess(p, std::make_unique<EtobAutomaton>(paper));
    }
    BroadcastWorkload w;
    w.perProcess = 8;
    w.causalChainPerOrigin = true;
    auto log = scheduleBroadcastWorkload(sim, w);
    sim.runUntil([&](const Simulator& s) {
      return s.now() > 2700 && broadcastConverged(s, log);
    });
    baselineSeqs = finalSequences(sim);
  }

  EtobConfig delta = paper;
  delta.deltaUpdates = true;
  auto a2 = run(delta, 1, &baselineSeqs);
  t.row({"delta-updates", std::to_string(a2.weight), std::to_string(a2.messages),
         std::to_string(a2.cgEdges), a2.identicalToBaseline ? "yes" : "NO",
         a2.specOk ? "ok" : "FAIL"});

  EtobConfig lazy = paper;
  lazy.deltaUpdates = true;
  lazy.promoteRefreshEvery = 50;
  auto a3 = run(lazy, 1, &baselineSeqs);
  t.row({"delta+lazyprom", std::to_string(a3.weight), std::to_string(a3.messages),
         std::to_string(a3.cgEdges), a3.identicalToBaseline ? "yes" : "NO*",
         a3.specOk ? "ok" : "FAIL"});
  std::printf("\n(*) promote suppression changes WHICH prefix is adopted when\n"
              "— the spec still holds; the τ bound relaxes to τ_Ω + N·Δt + Δc"
              " (measured τ̂ = %llu).\n\n",
              static_cast<unsigned long long>(a3.tau));
}

void BM_PaperExact(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto r = run(EtobConfig{}, seed++, nullptr);
    benchmark::DoNotOptimize(r);
    state.counters["weight"] = static_cast<double>(r.weight);
  }
}
BENCHMARK(BM_PaperExact)->Unit(benchmark::kMillisecond);

void BM_DeltaLazy(benchmark::State& state) {
  EtobConfig cfg;
  cfg.deltaUpdates = true;
  cfg.promoteRefreshEvery = 50;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto r = run(cfg, seed++, nullptr);
    benchmark::DoNotOptimize(r);
    state.counters["weight"] = static_cast<double>(r.weight);
  }
}
BENCHMARK(BM_DeltaLazy)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wfd::bench

int main(int argc, char** argv) {
  wfd::bench::printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

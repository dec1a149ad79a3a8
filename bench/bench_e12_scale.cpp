// E12 — Big-cluster scaling: events/sec and wall time vs n.
//
// Claim (engineering, not paper): after the PR-7 data-path work (flat
// Digraph adjacency, FD epoch caches, indexed partition lookups) the
// simulator steps deployment-sized clusters at interactive speed — the
// n=256 Omega->EC shape finishes a full horizon in about a second, and
// eTOB's residual growth is the protocol's own causality-graph exchange
// (ROADMAP E8), not simulator bookkeeping.
//
// Method: three curves over n in {5, 16, 64, 128, 256}, all built from
// the scale-family shapes (scenario/scale_scenarios.h — the SAME shapes
// the digest pins and n=64 smokes run, so these numbers describe tested
// behavior):
//
//   etob       all-write eTOB, capped at n=64. Every process broadcasts,
//              so delivered history grows with n and each delivery walks
//              a causality graph of that size — the protocol term. At
//              n=128 this costs ~30 s and at n=256 ~13 min for one run;
//              those points buy no simulator information, so the curve
//              stops where the protocol takes over.
//   etob-w4    eTOB with workload.writers = 4: fixed input volume, so
//              the curve isolates the simulator's per-link/per-step cost
//              and extends to n=256 (the few-writers/many-replicas
//              deployment shape, same knob the catalog uses).
//   omega-ec   all-write Omega->EC to n=256; per-event cost is O(1) in
//              n after the rewrites, so events/sec stays near-flat.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_util.h"
#include "scenario/scale_scenarios.h"

namespace wfd::bench {
namespace {

constexpr Time kHorizon = 6000;

struct Curve {
  const char* name;
  AlgoStack stack;
  std::size_t writers;  // 0 = all-write
  std::size_t maxN;
};

constexpr Curve kCurves[] = {
    {"etob", AlgoStack::kEtob, 0, 64},
    {"etob-w4", AlgoStack::kEtob, 4, 256},
    {"omega-ec", AlgoStack::kOmegaEc, 0, 256},
};

constexpr std::size_t kSizes[] = {5, 16, 64, 128, 256};

struct RunStats {
  std::uint64_t events = 0;
  double seconds = 0.0;
};

RunStats runOnce(const Curve& c, std::size_t n, std::uint64_t seed) {
  Scenario s = scaletest::scaleScenario(c.stack, n, kHorizon);
  s.workload.writers = c.writers;
  Cluster cluster(clusterSpec(s), seed);
  const auto start = std::chrono::steady_clock::now();
  cluster.runToHorizon();
  const auto end = std::chrono::steady_clock::now();
  RunStats r;
  r.events = cluster.sim().eventsProcessed();
  r.seconds = std::chrono::duration<double>(end - start).count();
  return r;
}

void printTable() {
  std::printf(
      "E12: scale sweep over the scale-family shapes, horizon %llu\n"
      "(expect: events/sec near-flat in n for omega-ec and etob-w4 —\n"
      " per-event cost is O(1) after the PR-7 rewrites; all-write etob\n"
      " decays with n as the protocol's causality-graph exchange grows)\n\n",
      static_cast<unsigned long long>(kHorizon));
  Table t({"curve", "n", "events", "wall_ms", "events/sec"});
  for (const Curve& c : kCurves) {
    for (std::size_t n : kSizes) {
      if (n > c.maxN) continue;
      const RunStats r = runOnce(c, n, 1);
      t.row({c.name, std::to_string(n), std::to_string(r.events),
             fmt(r.seconds * 1e3, 1), fmt(r.events / r.seconds, 0)});
    }
  }
  std::printf("\n");
}

void BM_Scale(benchmark::State& state, const Curve& c) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  std::uint64_t events = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    const RunStats r = runOnce(c, n, seed++);
    benchmark::DoNotOptimize(r);
    events += r.events;
    seconds += r.seconds;
  }
  state.counters["events_per_sec"] = events / seconds;
}

void BM_ScaleEtob(benchmark::State& state) {
  BM_Scale(state, kCurves[0]);
}
void BM_ScaleEtobW4(benchmark::State& state) {
  BM_Scale(state, kCurves[1]);
}
void BM_ScaleOmegaEc(benchmark::State& state) {
  BM_Scale(state, kCurves[2]);
}

BENCHMARK(BM_ScaleEtob)
    ->Arg(5)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScaleEtobW4)
    ->Arg(5)->Arg(16)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScaleOmegaEc)
    ->Arg(5)->Arg(16)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wfd::bench

int main(int argc, char** argv) {
  wfd::bench::printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

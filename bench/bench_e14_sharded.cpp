// E14 — Sharded serving: aggregate throughput and routing-to-commit
// latency vs shard count, under uniform and Zipfian(0.99) keys.
//
// Claim: sharding the commit-eTOB KV service over a consistent hash
// ring raises aggregate throughput even on ONE core exactly as far as a
// shard's cost is still superlinear in the commands it orders. The
// benchmark is single-threaded (S shards step interleaved), so every
// speedup below is algorithmic. Serving shards gossip per-message
// deltas, the trace recorder appends in O(Δ), and §7 commits ship only
// the content some replica cannot yet name and rebase only the new
// suffix. What still grows with history is O(n) copying per d_i change
// (delivery, the replica's drain, prefix checks): one shard costs ~23 µs
// per put at 1024 puts and ~46 at 4096 (BM_E14SingleShardPuts, cpu
// time), against ~61 and ~229 while every commit re-shipped its whole
// prefix. So splitting a fixed N = 1024 ops over S shards now buys
// S=8 only ~1.5x over S=1 (docs/BENCHMARKS.md), down from 3.6x; flat
// per-shard cost would take it to 1x, and wall-clock scaling in S then
// needs parallel stepping. Zipfian(0.99) keys concentrate load on the
// hot shard, which caps the win — the gap between the two key
// distributions is the price of skew, the classical motivation for
// hot-key splitting.
//
// Method: per point, a ShardedService (S commit-eTOB shards x 3
// replicas, Δ_t=10, delays [20,40], stable Omega) driven by a
// ShardRouter. Issue S puts per 10-tick interval (fixed total N=1024,
// key space 256), polling each interval; then settle until every put
// is observed committed. The horizon is the issue span plus a settle
// budget, so no run length outgrows it; a point whose horizon still cut
// a put off reports an error instead of a throughput. Reported:
// aggregate committed-ops/sec of wall time, and p50/p99 of
// (commit-observed - issue) in ticks. Latency is
// quantized by the 10-tick poll cadence; that floor is shared by every
// point, so the cross-S comparison stands. BM_E14SingleShardPuts/N runs
// the same loop at S=1, uniform keys, for N puts.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "bench_util.h"
#include "shard/shard_router.h"
#include "shard/sharded_service.h"
#include "shard/zipf.h"

namespace wfd::bench {
namespace {

constexpr std::uint64_t kTotalOps = 1024;
constexpr std::uint64_t kKeySpace = 256;
constexpr Time kInterval = 10;
// Ticks past the last put for every put to be observed committed: two
// orders of magnitude above the measured p99 commit latency (~100).
constexpr Time kSettleTicks = 20'000;

struct E14Run {
  double seconds = 0.0;
  std::uint64_t issued = 0;
  std::uint64_t committed = 0;
  std::vector<Time> latencies;
};

E14Run runSharded(std::size_t shards, std::uint64_t totalOps, bool zipfian,
                  std::uint64_t seed) {
  ShardedSpec spec;
  spec.shards = shards;
  spec.replicasPerShard = 3;
  spec.stack = AlgoStack::kCommitEtob;
  spec.config.maxTime = (totalOps + shards - 1) / shards * kInterval + kSettleTicks;
  spec.config.timeoutPeriod = 10;
  spec.config.minDelay = 20;
  spec.config.maxDelay = 40;
  spec.config.keepDeliverySnapshots = false;  // the latest d_i suffices
  spec.omegaMode = OmegaPreStabilization::kStable;
  ShardedService svc(spec, seed);
  ShardRouter router(svc);

  UniformKeyGenerator uniform(kKeySpace, splitmix64(seed ^ 0x653134ULL));
  ZipfianKeyGenerator zipf(kKeySpace, 0.99, splitmix64(seed ^ 0x653134ULL));

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t issued = 0;
  while (issued < totalOps) {
    svc.advanceBy(kInterval);
    for (std::size_t j = 0; j < shards && issued < totalOps; ++j) {
      const std::uint64_t key = zipfian ? zipf.next() : uniform.next();
      router.put(key, ++issued);
    }
    router.poll();
  }
  // Settle: keep stepping until every put is observed committed (or the
  // horizon cuts a straggler off — reported as an error, not hidden).
  while (router.pendingPuts() > 0 && svc.advanceBy(kInterval)) {
    router.poll();
  }
  const auto end = std::chrono::steady_clock::now();

  E14Run r;
  r.seconds = std::chrono::duration<double>(end - start).count();
  r.issued = issued;
  for (const RouterOp& op : router.ops()) {
    if (op.kind == RouterOp::Kind::kPut && op.committed) {
      ++r.committed;
      r.latencies.push_back(op.commitTime - op.time);
    }
  }
  return r;
}

Time percentile(std::vector<Time>& lat, double p) {
  if (lat.empty()) return 0;
  std::sort(lat.begin(), lat.end());
  const std::size_t idx = static_cast<std::size_t>(p * (lat.size() - 1));
  return lat[idx];
}

void BM_E14Point(benchmark::State& state, std::size_t shards, std::uint64_t totalOps,
                 bool zipfian) {
  std::uint64_t seed = 1;
  double seconds = 0.0;
  std::uint64_t committed = 0;
  std::vector<Time> latencies;
  for (auto _ : state) {
    E14Run r = runSharded(shards, totalOps, zipfian, seed++);
    benchmark::DoNotOptimize(r);
    if (r.committed < r.issued) {
      const std::string msg = "horizon cut the run off: " + std::to_string(r.committed) +
                              " of " + std::to_string(r.issued) + " puts committed";
      state.SkipWithError(msg.c_str());
      break;
    }
    seconds += r.seconds;
    committed += r.committed;
    latencies = std::move(r.latencies);
  }
  if (state.error_occurred()) return;
  state.counters["ops_per_sec"] = static_cast<double>(committed) / seconds;
  state.counters["committed"] =
      static_cast<double>(committed) / static_cast<double>(state.iterations());
  state.counters["p50_ticks"] = static_cast<double>(percentile(latencies, 0.50));
  state.counters["p99_ticks"] = static_cast<double>(percentile(latencies, 0.99));
}

std::size_t shardsArg(const benchmark::State& state) {
  return static_cast<std::size_t>(state.range(0));
}

void BM_E14ShardedUniform(benchmark::State& state) {
  BM_E14Point(state, shardsArg(state), kTotalOps, /*zipfian=*/false);
}
void BM_E14ShardedZipf(benchmark::State& state) {
  BM_E14Point(state, shardsArg(state), kTotalOps, /*zipfian=*/true);
}
// Run length instead of shard count: one shard, uniform keys, /N puts.
// Per-put cost flat in history makes time(4096) / time(1024) = 4;
// scripts/check_e14_linear.sh gates that ratio.
void BM_E14SingleShardPuts(benchmark::State& state) {
  BM_E14Point(state, 1, static_cast<std::uint64_t>(state.range(0)), /*zipfian=*/false);
}

// The /S argument doubles as the CI smoke filter handle:
// --benchmark_filter='/(1|4)$' runs the S=1 and S=4 points only.
BENCHMARK(BM_E14ShardedUniform)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E14ShardedZipf)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E14SingleShardPuts)
    ->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wfd::bench

BENCHMARK_MAIN();

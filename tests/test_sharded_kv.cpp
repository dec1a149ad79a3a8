// Integration, regression and mutation tests for the sharded KV
// service: pinned digests for every sharded-* catalog entry, the
// delta-gossip serving path against the paper-literal full-CG path, the
// cross-shard-independence byte-identity property, the crash-rebalance
// path (and the mutation proving it matters), service-level stats
// aggregation, and adversarial op logs against the sharded_kv checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/ensure.h"
#include "common/hash.h"
#include "etob/commit_etob.h"
#include "helpers.h"
#include "rsm/replica.h"
#include "rsm/state_machines.h"
#include "scenario/scenario.h"
#include "scenario/trace_digest.h"
#include "shard/shard_router.h"
#include "shard/sharded_kv_checker.h"
#include "shard/sharded_service.h"
#include "shard/zipf.h"

namespace wfd {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 3};

// The catalog's sharded entries, in registration order.
std::vector<const Scenario*> shardedEntries() {
  std::vector<const Scenario*> out;
  for (const Scenario& s : scenarioCatalog()) {
    if (s.shards > 0) out.push_back(&s);
  }
  return out;
}

// Indexed [sharded entry, registration order][seed in kSeeds]. Same
// caveat as every pin: portable per standard library (the schedules
// draw from std::uniform_int_distribution, the Zipfian CDF from libm).
// A change here is a behavior change in the router, the fold, a shard
// schedule, the checker's version accounting or the shards' wire
// weight — not a refactor. Re-recorded when the serving shards switched
// to delta updates (the ShardedServingPath tests below are the evidence
// that only wire weight moved, plus, in sharded-zipf-hotkey seed 3, one
// d_i change 3 ticks earlier before τ_Ω under full CG), and last when
// commit messages stopped re-shipping content every replica can already
// name (wire weight only: kStreamPins below did not move).
constexpr std::uint64_t kPinnedDigests[3][3] = {
    // sharded-uniform-commit
    {0xa58c6b2a80ad25e1ULL, 0x39d54fc3ea5b2e31ULL, 0xd0ec7a89efdf3dc9ULL},
    // sharded-zipf-hotkey
    {0x896058c5cafdbe2aULL, 0x6e0dc139fd097300ULL, 0x4a59af71a9fd73d6ULL},
    // sharded-rebalance-crash
    {0xd484b825bfb75a8bULL, 0x227f486e01f16e07ULL, 0x40313fdc50bf63f2ULL},
};

TEST(ShardedScenarios, CatalogEntriesPassAndMatchPinnedDigests) {
  const std::vector<const Scenario*> entries = shardedEntries();
  ASSERT_EQ(entries.size(), 3u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t k = 0; k < 3; ++k) {
      const ScenarioRunResult r = runScenario(*entries[i], kSeeds[k]);
      EXPECT_TRUE(r.pass) << entries[i]->name << " seed " << kSeeds[k] << ": "
                          << (r.failures.empty() ? "" : r.failures[0]);
      EXPECT_EQ(r.digest, kPinnedDigests[i][k])
          << entries[i]->name << " seed " << kSeeds[k];
      EXPECT_GT(r.committedPuts, 0u) << entries[i]->name;
    }
  }
}

TEST(ShardedScenarios, SeedDeterminism) {
  const Scenario* s = findScenario("sharded-uniform-commit");
  ASSERT_NE(s, nullptr);
  const ScenarioRunResult a = runScenario(*s, 11);
  const ScenarioRunResult b = runScenario(*s, 11);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.committedPuts, b.committedPuts);
  const ScenarioRunResult c = runScenario(*s, 12);
  EXPECT_NE(a.digest, c.digest);
}

TEST(ShardedScenarios, FaultPastTheHorizonIsRejected) {
  // The runner injects faults as their times pass and stops at the
  // horizon, so a later fault would silently never happen and the entry
  // would pass without it.
  const Scenario* base = findScenario("sharded-rebalance-crash");
  ASSERT_NE(base, nullptr);
  Scenario late = *base;
  late.config.maxTime = 2'000;
  late.shardFaults.back().at = 2'001;
  EXPECT_THROW(runScenario(late, 1), InvariantError);
  late.shardFaults.back().at = 2'000;  // the last injectable tick
  EXPECT_TRUE(runScenario(late, 1).pass);
}

// --- Serving path: delta gossip vs the paper-literal full CG ---------------

// One call the service made on a shard's cluster, at shard time `at`.
struct ShardCall {
  Time at = 0;
  bool put = false;
  ShardFault::Kind fault = ShardFault::Kind::kCrash;  // when !put
  ProcessId replica = 0;
  std::uint64_t key = 0;
  std::uint64_t value = 0;
  Time until = 0;  // kIsolate
};

struct ServingRun {
  std::vector<std::vector<ShardCall>> calls;  // per shard
  std::vector<ClusterSpec> specs;
  std::vector<std::uint64_t> seeds;
  std::vector<std::uint64_t> weightSent;
  Time end = 0;
  std::uint64_t committed = 0;  // committed prefix length, summed over shards
  std::uint64_t handBacks = 0;  // summed over every replica of every shard
};

// Drives a deployment's write path the way runScenario drives a sharded
// entry — puts on the workload cadence to the ring owner's read replica,
// faults as their times pass — and records what each shard's cluster was
// asked to do. Reads are left out: they never touch a shard's simulation.
ServingRun driveServingPath(const ShardedSpec& spec, const ShardWorkload& w,
                            std::vector<ShardFault> faults, std::uint64_t seed) {
  ShardedService svc(spec, seed);
  ServingRun run;
  run.calls.resize(svc.shardCount());
  UniformKeyGenerator uniform(w.keys, splitmix64(seed ^ 0x776b6c64ULL));
  ZipfianKeyGenerator zipf(w.keys, w.zipfian ? w.theta : 0.5,
                           splitmix64(seed ^ 0x776b6c64ULL));
  std::stable_sort(faults.begin(), faults.end(),
                   [](const ShardFault& a, const ShardFault& b) { return a.at < b.at; });
  std::size_t nextFault = 0;
  const auto injectThrough = [&](Time target) {
    while (nextFault < faults.size() && faults[nextFault].at <= target) {
      const ShardFault& f = faults[nextFault++];
      if (f.at > svc.now()) svc.advanceTo(f.at);
      ShardCall call;
      call.at = svc.now();
      call.fault = f.kind;
      call.replica = f.replica;
      call.until = f.until;
      run.calls[f.shard].push_back(call);
      if (f.kind == ShardFault::Kind::kCrash) {
        svc.crashReplica(f.shard, f.replica, svc.now());
      } else {
        svc.isolateReplica(f.shard, f.replica, svc.now(), f.until);
      }
    }
  };
  for (std::uint64_t i = 0; i < w.puts; ++i) {
    const Time target = svc.now() + w.interval;
    injectThrough(target);
    if (svc.now() < target) svc.advanceTo(target);
    const std::uint64_t key = w.zipfian ? zipf.next() : uniform.next();
    const std::size_t s = svc.ownerOf(key);
    ShardCall call;
    call.at = svc.now();
    call.put = true;
    call.replica = svc.readReplicaOf(s);
    call.key = key;
    call.value = i + 1;
    svc.shard(s).client(call.replica).put(key, call.value);
    run.calls[s].push_back(call);
  }
  injectThrough(spec.config.maxTime);
  run.end = svc.runUntilQuiescent();
  for (std::size_t s = 0; s < svc.shardCount(); ++s) {
    run.specs.push_back(svc.shard(s).spec());
    run.seeds.push_back(svc.shard(s).seed());
    run.weightSent.push_back(svc.shard(s).sim().trace().weightSent());
    for (ProcessId p = 0; p < spec.replicasPerShard; ++p) {
      run.handBacks +=
          dynamic_cast<const ReplicaAutomaton<CommitEtobAutomaton, KvStore>&>(
              svc.shard(s).sim().automaton(p))
              .ordering()
              .handBacks();
    }
  }
  run.committed = svc.stats().committedLen;
  return run;
}

ServingRun driveServingPath(const Scenario& s, std::uint64_t seed) {
  return driveServingPath(shardedSpec(s), s.shardWorkload, s.shardFaults, seed);
}

// What a shard's clients and checkers can observe: every d_i change and
// every §7 commit indication, in order.
struct ShardStreams {
  std::vector<std::tuple<ProcessId, Time, std::vector<MsgId>>> deliveries;
  std::vector<std::tuple<ProcessId, Time, std::uint64_t>> commits;
  std::uint64_t weightSent = 0;
};

ShardStreams replayShard(ClusterSpec spec, std::uint64_t seed,
                         const std::vector<ShardCall>& calls, Time end) {
  Cluster c(std::move(spec), seed);
  ShardStreams out;
  c.observeDeliveries([&out](ProcessId p, Time t, const std::vector<MsgId>& seq) {
    out.deliveries.emplace_back(p, t, seq);
  });
  c.observeOutputs([&out](ProcessId p, Time t, const Payload& o) {
    if (const auto* cp = o.as<CommittedPrefix>()) out.commits.emplace_back(p, t, cp->length);
  });
  for (const ShardCall& call : calls) {
    c.advanceTo(call.at);
    if (call.put) {
      c.client(call.replica).put(call.key, call.value);
    } else if (call.fault == ShardFault::Kind::kCrash) {
      c.crashAt(call.replica, call.at);
    } else {
      c.isolate(call.replica, call.at, call.until);
    }
  }
  c.advanceTo(end);
  out.weightSent = c.sim().trace().weightSent();
  return out;
}

// Delta gossip changes no delivered sequence and no commit indication.
// The one thing it may move is WHEN a d_i change happens before τ_Ω: a
// process that trusts itself promotes from its own CG, and full-CG gossip
// can hand it a message inside a peer's CG_j before the message's own
// delta arrives. So the commit stream and every d_i change from τ_Ω on
// must match exactly, and before τ_Ω the values each process delivers,
// in order.
void expectSameObservations(const ShardStreams& delta, const ShardStreams& full,
                            Time tauOmega, const std::string& what) {
  EXPECT_EQ(delta.commits, full.commits) << what;
  EXPECT_FALSE(delta.deliveries.empty()) << what;
  ASSERT_EQ(delta.deliveries.size(), full.deliveries.size()) << what;
  for (std::size_t k = 0; k < delta.deliveries.size(); ++k) {
    const auto& [dp, dt, dseq] = delta.deliveries[k];
    const auto& [fp, ft, fseq] = full.deliveries[k];
    EXPECT_EQ(dp, fp) << what << " change " << k;
    EXPECT_EQ(dseq, fseq) << what << " change " << k;
    if (std::max(dt, ft) >= tauOmega) {
      EXPECT_EQ(dt, ft) << what << " change " << k;
    }
  }
}

// Replays every shard of `run` twice from the same ClusterSpec — once as
// the service built it (delta updates), once with the paper-literal
// EtobConfig{} — and requires the same observable streams at strictly
// less wire weight. Returns the delta side's total weight.
std::uint64_t expectDeltaMatchesFullCg(const ServingRun& run, const std::string& what) {
  std::uint64_t deltaWeight = 0;
  for (std::size_t s = 0; s < run.specs.size(); ++s) {
    const ClusterSpec& delta = run.specs[s];
    EXPECT_TRUE(delta.etob.deltaUpdates) << what << " shard " << s;
    ClusterSpec full = delta;
    full.etob = EtobConfig{};
    const ShardStreams d = replayShard(delta, run.seeds[s], run.calls[s], run.end);
    const ShardStreams f = replayShard(full, run.seeds[s], run.calls[s], run.end);
    // The replay is the service's own shard run, call for call.
    EXPECT_EQ(d.weightSent, run.weightSent[s]) << what << " shard " << s;
    expectSameObservations(d, f, delta.tauOmega, what + " shard " + std::to_string(s));
    if (!run.calls[s].empty()) {
      EXPECT_LT(d.weightSent, f.weightSent) << what << " shard " << s;
    }
    deltaWeight += d.weightSent;
  }
  return deltaWeight;
}

TEST(ShardedServingPath, DeltaShardsMatchFullCgOnTheCatalog) {
  for (const Scenario* sc : shardedEntries()) {
    for (std::uint64_t seed : kSeeds) {
      expectDeltaMatchesFullCg(driveServingPath(*sc, seed),
                               sc->name + " seed " + std::to_string(seed));
    }
  }
}

// One shard of three replicas under a stable Ω: the long-history
// deployment the wire budget below and the 1024-put stream pin share.
ShardedSpec longSingleShardSpec() {
  ShardedSpec spec;
  spec.shards = 1;
  spec.replicasPerShard = 3;
  spec.stack = AlgoStack::kCommitEtob;
  spec.config.maxTime = 200'000;
  spec.config.timeoutPeriod = 10;
  spec.config.minDelay = 20;
  spec.config.maxDelay = 40;
  spec.omegaMode = OmegaPreStabilization::kStable;
  return spec;
}

TEST(ShardedServingPath, LongSingleShardRunMatchesAndStaysLight) {
  const ShardedSpec spec = longSingleShardSpec();
  ShardWorkload w;
  w.puts = 512;
  w.keys = 256;
  w.interval = 10;
  const ServingRun run = driveServingPath(spec, w, {}, 1);
  ASSERT_EQ(run.committed, w.puts);
  const std::uint64_t weight = expectDeltaMatchesFullCg(run, "1 shard x 512 puts");
  // Deterministic wire budget per committed put: the measured 547 words
  // plus under 10%. Full-CG gossip costs 5913 here, and commits that
  // re-ship their whole prefix (rather than only what some replica cannot
  // yet name) 2473, so a service that silently went back to either fails
  // this.
  EXPECT_LE(weight / run.committed, 600u);
}

// --- Commit-path stream pins ------------------------------------------------

// Folds every shard's replayed delivery and commit streams, shard by
// shard, into one pair of digests — what the replicas observe and
// nothing that depends on wire weight.
std::pair<std::uint64_t, std::uint64_t> streamDigests(const ServingRun& run) {
  test::StreamDigest deliveries;
  test::StreamDigest commits;
  for (std::size_t s = 0; s < run.specs.size(); ++s) {
    const ShardStreams st = replayShard(run.specs[s], run.seeds[s], run.calls[s], run.end);
    deliveries.fold(s);
    commits.fold(s);
    for (const auto& [p, t, seq] : st.deliveries) deliveries.fold(p, t, seq);
    for (const auto& [p, t, len] : st.commits) commits.fold(p, t, len);
  }
  return {deliveries.value, commits.value};
}

// Recorded before the commit layer learned to ship only the content some
// process cannot yet name (and to rebase only the new suffix). Both are
// pure wire/work savings, so unlike kPinnedDigests (which fold wire
// weight) these must never move. Indexed like kPinnedDigests:
// {delivery stream, commit stream}.
constexpr std::uint64_t kStreamPins[3][3][2] = {
    // sharded-uniform-commit
    {{0x29e3abc19c29e748ULL, 0xefca1e67c476effeULL},
     {0x0cd3642bf0fc4d8dULL, 0x4b3c5e608332de4bULL},
     {0xd177b3b1cdd1b6cdULL, 0x4d29d24ac0de4d0fULL}},
    // sharded-zipf-hotkey
    {{0x754aa435ea05518dULL, 0x55c68fbe7563166bULL},
     {0x2093786298c76115ULL, 0xf826e0e90d8d9e9aULL},
     {0x99774380bf61728aULL, 0x296d2a4e8a93a524ULL}},
    // sharded-rebalance-crash
    {{0xaf794b3dfce82d6fULL, 0x3afe35ed67b5badcULL},
     {0x63ef17c59e5f7b33ULL, 0x8b454dc9bc0651c0ULL},
     {0xdccb471fd3b0095eULL, 0x6137217929921f10ULL}},
};
constexpr std::uint64_t kLongRunStreamPins[2] = {0x27442b9f81ac6034ULL,
                                                  0x6de10473bbc78211ULL};

TEST(CommitStreamPinTest, ShardedStreamsMatchPins) {
  const std::vector<const Scenario*> entries = shardedEntries();
  ASSERT_EQ(entries.size(), 3u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t k = 0; k < 3; ++k) {
      const Scenario& sc = *entries[i];
      const auto [deliveries, commits] = streamDigests(driveServingPath(sc, kSeeds[k]));
      EXPECT_EQ(deliveries, kStreamPins[i][k][0]) << sc.name << " seed " << kSeeds[k];
      EXPECT_EQ(commits, kStreamPins[i][k][1]) << sc.name << " seed " << kSeeds[k];
    }
  }
  ShardWorkload w;
  w.puts = 1024;
  w.keys = 256;
  w.interval = 10;
  const ServingRun run = driveServingPath(longSingleShardSpec(), w, {}, 1);
  ASSERT_EQ(run.committed, w.puts);
  const auto [deliveries, commits] = streamDigests(run);
  EXPECT_EQ(deliveries, kLongRunStreamPins[0]) << "1 shard x 1024 puts";
  EXPECT_EQ(commits, kLongRunStreamPins[1]) << "1 shard x 1024 puts";
}

// --- Commit hand-backs on reliable links -----------------------------------

// A follower hands its commit back to the leader only after 64 refused
// promotes in a row, which on reliable links should never happen: a
// refusal run there ends once the leader's own copy of the commit
// arrives. Every commit entry on reliable links, single-cluster and
// sharded, must therefore send none — so the hand-back adds no message
// there. (The counter is live: CommitContentBoundTest's hand-back unit
// test sees it count.)
TEST(HandBackTest, ReliableCommitEntriesSendNone) {
  for (const char* name : {"commit-stable-majority", "commit-majority-crash"}) {
    const Scenario* s = findScenario(name);
    ASSERT_NE(s, nullptr) << name;
    for (std::uint64_t seed : kSeeds) {
      Cluster cluster(clusterSpec(*s), seed);
      cluster.runToHorizon();
      std::uint64_t handBacks = 0;
      for (ProcessId p = 0; p < cluster.processCount(); ++p) {
        handBacks += dynamic_cast<const CommitEtobAutomaton&>(cluster.sim().automaton(p))
                         .handBacks();
      }
      EXPECT_EQ(handBacks, 0u) << name << " seed " << seed;
    }
  }
  for (const Scenario* s : shardedEntries()) {
    for (std::uint64_t seed : kSeeds) {
      EXPECT_EQ(driveServingPath(*s, seed).handBacks, 0u) << s->name << " seed " << seed;
    }
  }
}

// --- Cross-shard independence ----------------------------------------------

ShardedSpec smallSpec(std::size_t shards) {
  ShardedSpec spec;
  spec.shards = shards;
  spec.replicasPerShard = 3;
  spec.stack = AlgoStack::kCommitEtob;
  spec.config.maxTime = 40'000;
  spec.config.timeoutPeriod = 10;
  spec.config.minDelay = 20;
  spec.config.maxDelay = 40;
  spec.omegaMode = OmegaPreStabilization::kStable;
  return spec;
}

// Issues `puts` uniform-key writes through the router on a 10-tick
// cadence, polling as it goes, then settles on a FIXED 2000-tick window
// and reads every key back. The fixed window (rather than
// runUntilQuiescent) keeps the end time identical across fault
// variants, so whole-trace digests of unfaulted shards are comparable
// byte-for-byte.
void driveUniform(ShardedService& svc, ShardRouter& router,
                  std::uint64_t workloadSeed, std::uint64_t puts) {
  UniformKeyGenerator gen(32, splitmix64(workloadSeed ^ 0x647276ULL));
  std::vector<std::uint64_t> written;
  for (std::uint64_t i = 0; i < puts; ++i) {
    svc.advanceBy(10);
    const std::uint64_t key = gen.next();
    router.put(key, i + 1);
    written.push_back(key);
    router.poll();
  }
  svc.advanceBy(2000);
  router.poll();
  for (const std::uint64_t key : written) router.get(key);
}

TEST(ShardedKv, CrossShardIndependenceUnderIsolation) {
  // Run A: fault-free. Run B: one replica of shard 2 is partitioned
  // from its group for a long window. The ring never changes, so every
  // OTHER shard must produce a byte-identical trace — shards share
  // nothing, and the checkers' own digests prove it.
  ShardedService a(smallSpec(4), 77);
  ShardRouter ra(a);
  driveUniform(a, ra, 77, 64);

  ShardedService b(smallSpec(4), 77);
  b.isolateReplica(2, 1, 300, 900);
  ShardRouter rb(b);
  driveUniform(b, rb, 77, 64);

  bool faultedShardTouched = false;
  for (std::size_t s = 0; s < 4; ++s) {
    const std::uint64_t da = traceDigest(a.shard(s).sim().trace());
    const std::uint64_t db = traceDigest(b.shard(s).sim().trace());
    if (s == 2) {
      faultedShardTouched = (da != db);
    } else {
      EXPECT_EQ(da, db) << "shard " << s << " noticed a fault on shard 2";
    }
  }
  // The isolation window must actually have perturbed shard 2 (else the
  // equality above is vacuous).
  EXPECT_TRUE(faultedShardTouched);

  // Majority survived the partition, so the faulted run still passes
  // the full checker.
  const ShardedKvReport report = checkShardedKvRun(rb.ops());
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_GT(report.committedPuts, 0u);
}

// --- Crash rebalancing ------------------------------------------------------

TEST(ShardedKv, QuorumLossRebalancesTheRing) {
  ShardedService svc(smallSpec(4), 5);
  ShardRouter router(svc);
  driveUniform(svc, router, 5, 32);

  // Find a key currently owned by shard 1, then crash shard 1 below
  // its majority (replicas 1 and 2 of 3; replica 0 stays, so the read
  // replica never changes).
  std::uint64_t victim = 0;
  while (svc.ownerOf(victim) != 1) ++victim;
  svc.crashReplica(1, 1, svc.now() + 1);
  EXPECT_EQ(svc.rebalances(), 0u);  // still at quorum
  EXPECT_TRUE(svc.hasQuorum(1));
  svc.crashReplica(1, 2, svc.now() + 2);
  EXPECT_FALSE(svc.hasQuorum(1));
  EXPECT_EQ(svc.rebalances(), 1u);
  EXPECT_FALSE(svc.ring().contains(1));
  EXPECT_NE(svc.ownerOf(victim), 1u);

  // Post-rebalance writes land on live shards and still commit.
  const std::size_t before = router.ops().size();
  svc.advanceBy(10);
  router.put(victim, 9'000);
  svc.runUntilQuiescent();
  router.poll();
  EXPECT_NE(router.ops()[before].shard, 1u);
  EXPECT_TRUE(router.ops()[before].committed);
  const ShardedKvReport report = checkShardedKvRun(router.ops());
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
}

TEST(ShardedKv, ReadReplicaCrashKeepsReadsMonotone) {
  // Crashing the read replica (replica 0) mid-run moves the router to
  // replica 1, whose committed prefix can lag what the router already
  // folded. A lagging prefix is not a rewrite: the fold must be kept,
  // since refolding the shorter prefix would serve version-regressing
  // reads.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ShardedService svc(smallSpec(1), seed);
    ShardRouter router(svc);
    UniformKeyGenerator gen(8, splitmix64(seed));
    for (std::uint64_t i = 0; i < 48; ++i) {
      if (i == 24) svc.crashReplica(0, 0, svc.now() + 1);
      svc.advanceBy(10);
      router.put(gen.next(), i + 1);
      router.get(gen.next());
    }
    svc.advanceBy(2000);
    for (std::uint64_t key = 0; key < 8; ++key) router.get(key);
    const ShardedKvReport report = checkShardedKvRun(router.ops());
    EXPECT_TRUE(report.ok())
        << "seed " << seed << ": "
        << (report.errors.empty() ? "" : report.errors[0]);
    EXPECT_EQ(router.refolds(), 0u) << "seed " << seed;
    EXPECT_GT(report.committedPuts, 0u) << "seed " << seed;
    // A fresh router folds only the new read replica's prefix, which may
    // still lag what the long-lived router folded from replica 0.
    ShardRouter fresh(svc);
    fresh.poll();
    EXPECT_LE(fresh.foldedLen(0), router.foldedLen(0)) << "seed " << seed;
  }
}

TEST(ShardedKv, PollFoldsAShardSteppedOnItsOwn) {
  // poll() skips a shard whose read replica and event count match its
  // last fold. Stepping ONE shard directly (as a driver that times each
  // shard's advance does) leaves the service clock where it was, so a
  // skip keyed on the service clock would miss these commits.
  ShardedService svc(smallSpec(4), 9);
  ShardRouter router(svc);
  const std::size_t s = 2;
  std::uint64_t key = 0;
  while (svc.ownerOf(key) != s) ++key;
  for (std::uint64_t i = 1; i <= 8; ++i) {
    svc.advanceBy(10);
    router.put(key, i);
    router.poll();
  }
  const std::size_t before = router.foldedLen(s);
  svc.shard(s).advanceTo(svc.now() + 2000);
  const std::vector<MsgId>& prefix =
      svc.shard(s).client(svc.readReplicaOf(s)).committedPrefix();
  ASSERT_GT(prefix.size(), before) << "the shard committed nothing new";

  EXPECT_EQ(router.get(key), std::optional<std::uint64_t>(8));
  EXPECT_EQ(router.foldedLen(s), prefix.size());
  EXPECT_EQ(router.ops().back().version, 8u);
  EXPECT_EQ(router.pendingPuts(), 0u);

  // A router that never skipped anything agrees on every shard.
  svc.advanceBy(2000);
  router.poll();
  ShardRouter fresh(svc);
  fresh.poll();
  for (std::size_t t = 0; t < svc.shardCount(); ++t) {
    EXPECT_EQ(fresh.foldedLen(t), router.foldedLen(t)) << "shard " << t;
  }
  const ShardedKvReport report = checkShardedKvRun(router.ops());
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
}

TEST(ShardedKv, DeliveredFallbackRefoldsMatchAFreshFold) {
  // On plain eTOB there are no commit indications, so the router folds
  // the read replica's delivered() — which Omega's pre-stabilisation
  // leaders rewrite when other replicas also take writes. Each rewrite
  // refolds; after every get() the served (value, version) of every key
  // must equal a from-scratch fold of the owner's delivered(). The
  // sharded_kv checker is left out: it rejects reads of the values the
  // side writers below put without the router.
  constexpr std::uint64_t kKeys = 8;
  for (const OmegaPreStabilization mode :
       {OmegaPreStabilization::kSplitBrain, OmegaPreStabilization::kRotating}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      ShardedSpec spec = smallSpec(2);
      spec.stack = AlgoStack::kEtob;
      spec.tauOmega = 800;
      spec.omegaMode = mode;
      ShardedService svc(spec, seed);
      ShardRouter router(svc);
      std::vector<std::uint64_t> shard0Keys;
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        if (svc.ownerOf(k) == 0) shard0Keys.push_back(k);
      }
      ASSERT_FALSE(shard0Keys.empty());
      UniformKeyGenerator gen(kKeys, splitmix64(seed));
      for (std::uint64_t i = 0; i < 120; ++i) {
        svc.advanceBy(10);
        router.put(gen.next(), i + 1);
        const ProcessId writer = static_cast<ProcessId>(1 + i % 2);
        svc.shard(0).client(writer).put(
            shard0Keys[i % shard0Keys.size()], 10'000 + i);
        for (std::uint64_t key = 0; key < kKeys; ++key) {
          const std::optional<std::uint64_t> got = router.get(key);
          const std::size_t s = svc.ownerOf(key);
          const Client c = svc.shard(s).client(svc.readReplicaOf(s));
          std::uint64_t value = 0;
          std::uint64_t version = 0;
          for (const MsgId id : c.delivered()) {
            const std::vector<std::uint64_t>* body = c.findBody(id);
            ASSERT_NE(body, nullptr);
            if (body->size() == 3 &&
                (*body)[0] == static_cast<std::uint64_t>(SmOp::kPut) &&
                (*body)[1] == key) {
              value = (*body)[2];
              ++version;
            }
          }
          ASSERT_EQ(got.has_value(), version > 0)
              << "seed " << seed << " key " << key << " interval " << i;
          EXPECT_EQ(router.ops().back().version, version);
          if (got) {
            EXPECT_EQ(*got, value);
          }
        }
      }
      EXPECT_GT(router.refolds(), 0u)
          << "mode " << static_cast<int>(mode) << " seed " << seed;
    }
  }
}

TEST(ShardedKv, RebalanceMutationKeepsDeadShardWithoutTheKnob) {
  // Mutation: with rebalanceOnQuorumLoss off, the same crash schedule
  // re-homes nothing — keys keep routing to the dead shard. This is
  // what proves the rebalance path (not luck) moves the keys.
  ShardedSpec spec = smallSpec(4);
  spec.rebalanceOnQuorumLoss = false;
  ShardedService svc(spec, 5);
  std::uint64_t victim = 0;
  while (svc.ownerOf(victim) != 1) ++victim;
  svc.crashReplica(1, 1, 10);
  svc.crashReplica(1, 2, 20);
  EXPECT_FALSE(svc.hasQuorum(1));
  EXPECT_EQ(svc.rebalances(), 0u);
  EXPECT_TRUE(svc.ring().contains(1));
  EXPECT_EQ(svc.ownerOf(victim), 1u);

  // Scenario-level: the catalog's rebalance entry fails its
  // requireRebalance clause under the same mutation.
  const Scenario* base = findScenario("sharded-rebalance-crash");
  ASSERT_NE(base, nullptr);
  ShardedSpec mutant = shardedSpec(*base);
  mutant.rebalanceOnQuorumLoss = false;
  const ScenarioRunResult r = runScenario(*base, 1, mutant);
  EXPECT_FALSE(r.pass);
  bool sawRebalanceFailure = false;
  for (const std::string& f : r.failures) {
    if (f.rfind("rebalance:", 0) == 0) sawRebalanceFailure = true;
  }
  EXPECT_TRUE(sawRebalanceFailure);
}

// --- Stats aggregation ------------------------------------------------------

TEST(ShardedKv, StatsAggregateAcrossShards) {
  ShardedService svc(smallSpec(4), 21);
  ShardRouter router(svc);
  driveUniform(svc, router, 21, 64);

  const ShardedStats stats = svc.stats();
  ASSERT_EQ(stats.perShard.size(), 4u);
  std::size_t keys = 0;
  std::uint64_t applied = 0;
  std::uint64_t committedLen = 0;
  std::size_t populatedShards = 0;
  for (const ShardStats& row : stats.perShard) {
    keys += row.keys;
    applied += row.applied;
    committedLen += row.committedLen;
    if (row.applied > 0) ++populatedShards;
    EXPECT_EQ(row.correctReplicas, 3u);
    EXPECT_TRUE(row.inRing);
  }
  EXPECT_EQ(stats.keys, keys);
  EXPECT_EQ(stats.applied, applied);
  EXPECT_EQ(stats.committedLen, committedLen);
  EXPECT_EQ(stats.shardsInRing, 4u);

  // Every settled put was applied exactly once, on exactly one shard.
  EXPECT_EQ(stats.applied, 64u);
  // Keys spread across shards: any single shard's replica-group-local
  // kvStats (the facade counter) undercounts the service — the bug the
  // aggregated stats() exists to fix.
  EXPECT_GE(populatedShards, 2u);
  for (const ShardStats& row : stats.perShard) {
    EXPECT_LT(row.applied, stats.applied);
  }
}

// --- Checker mutations ------------------------------------------------------

RouterOp putOp(std::uint64_t key, std::uint64_t value, std::size_t shard,
               Time time, bool committed, Time commitTime) {
  RouterOp op;
  op.kind = RouterOp::Kind::kPut;
  op.key = key;
  op.value = value;
  op.time = time;
  op.shard = shard;
  op.committed = committed;
  op.commitTime = commitTime;
  return op;
}

RouterOp getOp(std::uint64_t key, std::size_t shard, Time time, bool hasValue,
               std::uint64_t value, std::uint64_t version) {
  RouterOp op;
  op.kind = RouterOp::Kind::kGet;
  op.key = key;
  op.value = value;
  op.hasValue = hasValue;
  op.time = time;
  op.shard = shard;
  op.version = version;
  return op;
}

TEST(ShardedKvChecker, CleanLogPasses) {
  const std::vector<RouterOp> ops = {
      putOp(7, 1, 0, 10, true, 50),
      getOp(7, 0, 60, true, 1, 1),
      putOp(7, 2, 0, 70, true, 120),
      getOp(7, 0, 130, true, 2, 2),
      getOp(8, 0, 130, false, 0, 0),  // never written: miss is fine
  };
  const ShardedKvReport r = checkShardedKvRun(ops);
  EXPECT_TRUE(r.ok()) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_EQ(r.puts, 2u);
  EXPECT_EQ(r.committedPuts, 2u);
  EXPECT_EQ(r.gets, 3u);
  EXPECT_EQ(r.successfulGets, 2u);
}

TEST(ShardedKvChecker, FlagsUncommittedRead) {
  // Value 9 was never written by a committed put on shard 0.
  const std::vector<RouterOp> ops = {
      putOp(7, 1, 0, 10, true, 50),
      getOp(7, 0, 60, true, 9, 1),
  };
  const ShardedKvReport r = checkShardedKvRun(ops);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.uncommittedReads, 1u);
}

TEST(ShardedKvChecker, FlagsCrossShardValueLeak) {
  // The value exists but was committed on ANOTHER shard: serving it
  // from shard 1 would mean shards share state.
  const std::vector<RouterOp> ops = {
      putOp(7, 1, 0, 10, true, 50),
      getOp(7, 1, 60, true, 1, 1),
  };
  const ShardedKvReport r = checkShardedKvRun(ops);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.uncommittedReads, 1u);
}

TEST(ShardedKvChecker, FlagsVersionRegression) {
  const std::vector<RouterOp> ops = {
      putOp(7, 1, 0, 10, true, 20),
      putOp(7, 2, 0, 30, true, 40),
      getOp(7, 0, 50, true, 2, 2),
      getOp(7, 0, 60, true, 1, 1),  // fold went backwards
  };
  const ShardedKvReport r = checkShardedKvRun(ops);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.monotonicityViolations, 1u);
}

TEST(ShardedKvChecker, FlagsStaleRead) {
  // A commit observed at t=50 must be visible to a strictly later read
  // on the same shard.
  const std::vector<RouterOp> ops = {
      putOp(7, 1, 0, 10, true, 50),
      getOp(7, 0, 80, false, 0, 0),
  };
  const ShardedKvReport r = checkShardedKvRun(ops);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.staleReads, 1u);
}

TEST(ShardedKvChecker, StaleReadScansOnlyTheReadKeysPuts) {
  // Neighbouring keys on one shard: a read of key k must weigh exactly
  // k's puts — reading into key 6 or 8 would flag the early get of 7,
  // and stopping at 7's first put would miss its one committed write.
  const std::vector<RouterOp> ops = {
      putOp(6, 1, 0, 5, true, 20),
      putOp(7, 2, 0, 6, false, 0),
      putOp(7, 3, 0, 7, false, 0),
      putOp(7, 4, 0, 8, true, 100),
      putOp(8, 5, 0, 9, true, 20),
      getOp(7, 0, 50, false, 0, 0),   // 7's commit not observed yet
      getOp(8, 0, 10, false, 0, 0),   // 8's commit not observed yet
      getOp(9, 0, 150, false, 0, 0),  // never written: miss is fine
      getOp(6, 0, 30, false, 0, 0),   // stale: 6 committed at t=20
      getOp(7, 0, 150, false, 0, 0),  // stale: 7 committed at t=100
  };
  const ShardedKvReport r = checkShardedKvRun(ops);
  EXPECT_EQ(r.staleReads, 2u);
  EXPECT_EQ(r.uncommittedReads, 0u);
  EXPECT_EQ(r.monotonicityViolations, 0u);
  ASSERT_EQ(r.errors.size(), 2u);
  EXPECT_NE(r.errors[0].find("get(key 6) at t=30"), std::string::npos) << r.errors[0];
  EXPECT_NE(r.errors[1].find("get(key 7) at t=150"), std::string::npos) << r.errors[1];
}

TEST(ShardedKvChecker, SameTickCommitDoesNotForceVisibility) {
  const std::vector<RouterOp> ops = {
      putOp(7, 1, 0, 10, true, 50),
      getOp(7, 0, 50, false, 0, 0),  // same tick: resolution order unknown
  };
  EXPECT_TRUE(checkShardedKvRun(ops).ok());
}

TEST(ShardedKvChecker, RejectsAmbiguousDuplicateWrites) {
  const std::vector<RouterOp> ops = {
      putOp(7, 1, 0, 10, true, 50),
      putOp(7, 1, 0, 20, true, 60),
  };
  const ShardedKvReport r = checkShardedKvRun(ops);
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.errors.empty());
}

}  // namespace
}  // namespace wfd

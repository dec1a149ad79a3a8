// Scenario subsystem tests: the whole catalog runs green under its own
// checker sets, every (scenario, seed) pair is reproducible digest-for-
// digest, and the uniform-delay NetworkModel replays pre-refactor traces
// bit-for-bit (golden digests recorded against the pre-NetworkModel
// Simulator at the commit that introduced the refactor).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "api/cluster.h"
#include "checkers/workload.h"
#include "common/ensure.h"
#include "common/json.h"
#include "etob/etob_automaton.h"
#include "fd/detectors.h"
#include "scenario/scenario.h"
#include "scenario/trace_digest.h"
#include "sim/simulator.h"

namespace wfd {
namespace {

// --- Catalog hygiene --------------------------------------------------------

TEST(ScenarioCatalogTest, HasAtLeastTwelveEntriesWithUniqueNames) {
  const auto& catalog = scenarioCatalog();
  EXPECT_GE(catalog.size(), 12u);
  std::set<std::string> names;
  for (const Scenario& s : catalog) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate: " << s.name;
    EXPECT_FALSE(s.description.empty()) << s.name;
    EXPECT_GE(s.config.processCount, 2u) << s.name;
  }
}

TEST(ScenarioCatalogTest, FindScenarioRoundTrips) {
  for (const Scenario& s : scenarioCatalog()) {
    const Scenario* found = findScenario(s.name);
    ASSERT_NE(found, nullptr) << s.name;
    EXPECT_EQ(found->name, s.name);
  }
  EXPECT_EQ(findScenario("no-such-scenario"), nullptr);
}

TEST(ScenarioCatalogTest, CatalogSpansMultipleNetworkModelsAndStacks) {
  std::set<std::string> networks;
  std::set<std::string> stacks;
  for (const Scenario& s : scenarioCatalog()) {
    // Single-cluster entries only: a sharded entry has no one network to
    // name. Its runs are covered by CatalogSweepTest, SeedDeterminismTest
    // and tests/test_sharded_kv.cpp.
    if (s.shards > 0) continue;
    Cluster cluster(clusterSpec(s), 1);
    networks.insert(cluster.sim().network().name());
    stacks.insert(algoStackName(s.stack));
  }
  // Uniform + at least asymmetric, partition, chaos and clock-skew shapes.
  EXPECT_GE(networks.size(), 5u);
  EXPECT_GE(stacks.size(), 4u);
}

// --- Full catalog sweep: every entry is a regression test -------------------

class CatalogSweepTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CatalogSweepTest, PassesItsCheckerSet) {
  const Scenario* s = findScenario(GetParam());
  ASSERT_NE(s, nullptr);
  for (std::uint64_t seed : {1ull, 2ull}) {
    const ScenarioRunResult r = runScenario(*s, seed);
    EXPECT_TRUE(r.pass) << "seed " << seed << ": "
                        << (r.failures.empty() ? "?" : r.failures.front());
  }
}

std::vector<std::string> allScenarioNames() {
  std::vector<std::string> names;
  for (const Scenario& s : scenarioCatalog()) {
    // Big-n entries are covered once per build by test_large_cluster
    // instead of ~10x here and under the sanitizer presets.
    if (isLargeClusterScenario(s)) continue;
    names.push_back(s.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(All, CatalogSweepTest,
                         ::testing::ValuesIn(allScenarioNames()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// --- Seed determinism: (scenario, seed) => digest is a function -------------

class SeedDeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SeedDeterminismTest, SameSeedSameDigestTwice) {
  const Scenario* s = findScenario(GetParam());
  ASSERT_NE(s, nullptr);
  const ScenarioRunResult a = runScenario(*s, 5);
  const ScenarioRunResult b = runScenario(*s, 5);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.endTime, b.endTime);
  EXPECT_EQ(a.eventsProcessed, b.eventsProcessed);
  EXPECT_EQ(a.messagesSent, b.messagesSent);
  EXPECT_EQ(a.duplicatesSuppressed, b.duplicatesSuppressed);
}

INSTANTIATE_TEST_SUITE_P(All, SeedDeterminismTest,
                         ::testing::ValuesIn(allScenarioNames()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(SeedDeterminismTest, DifferentSeedsPerturbTheRun) {
  // Spot-check on a randomness-heavy entry: distinct seeds must explore
  // distinct schedules (deterministically so — this is a fixed property
  // of the catalog, not a probabilistic assertion).
  const Scenario* s = findScenario("dup-reorder-storm");
  ASSERT_NE(s, nullptr);
  EXPECT_NE(runScenario(*s, 1).digest, runScenario(*s, 2).digest);
}

// --- Golden equivalence: the uniform model replays legacy traces ------------
//
// The three digests below were recorded by running these EXACT setups
// against the pre-NetworkModel Simulator (whose deliveryTime drew
// rng.between(minDelay, maxDelay) inline). The refactored simulator must
// reproduce them bit-for-bit, both through the default-constructed model
// and through an explicitly supplied UniformDelayModel.
//
// The constants are libstdc++ values: run schedules depend on
// std::uniform_int_distribution, whose algorithm is implementation-
// defined, so the same setups produce different (equally valid) traces
// on libc++/MSVC. The suite is guarded accordingly — determinism and
// default-vs-explicit-model equivalence remain covered everywhere by
// the SeedDeterminismTest suite above.
#if defined(__GLIBCXX__)

// Re-pinned for the eTOB hot-path rebuild (frontier auto-causal deps +
// delta-encoded promotes): all three runs use the eTOB stack, whose wire
// weights — folded into traceDigest — legitimately changed; schedules and
// delivery sequences are unchanged (the non-eTOB scale-matrix pins in
// test_large_cluster.cpp did not move).
constexpr std::uint64_t kGoldenA = 0x3df30e170cfc9d4bULL;
constexpr std::uint64_t kGoldenB = 0xf54efcd16ccb6313ULL;
constexpr std::uint64_t kGoldenC = 0x862c75d5e8ac12dfULL;

std::uint64_t runGoldenA(std::shared_ptr<const NetworkModel> model) {
  SimConfig cfg;
  cfg.processCount = 3;
  cfg.seed = 42;
  cfg.maxTime = 20000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  auto fp = FailurePattern::noFailures(3);
  auto omega =
      std::make_shared<OmegaFd>(fp, 1500, OmegaPreStabilization::kSplitBrain);
  Simulator sim(cfg, fp, omega, std::move(model));
  for (ProcessId p = 0; p < 3; ++p) {
    sim.addProcess(p, std::make_unique<EtobAutomaton>());
  }
  BroadcastWorkload w;
  w.start = 100;
  w.interval = 50;
  w.perProcess = 6;
  scheduleBroadcastWorkload(sim, w);
  sim.run();
  return traceDigest(sim.trace());
}

TEST(GoldenTraceTest, DefaultModelReproducesPreRefactorRun) {
  EXPECT_EQ(runGoldenA(nullptr), kGoldenA);
}

TEST(GoldenTraceTest, ExplicitUniformModelReproducesPreRefactorRun) {
  EXPECT_EQ(runGoldenA(std::make_shared<UniformDelayModel>(20, 40, false)),
            kGoldenA);
}

TEST(GoldenTraceTest, FixedDelayMinorityCrashReproduced) {
  SimConfig cfg;
  cfg.processCount = 5;
  cfg.seed = 7;
  cfg.maxTime = 15000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 30;
  cfg.maxDelay = 50;
  cfg.fixedDelay = true;
  auto fp = Environments::minorityCrash(5, 1200);
  auto omega =
      std::make_shared<OmegaFd>(fp, 2000, OmegaPreStabilization::kRotating);
  Simulator sim(cfg, fp, omega);
  for (ProcessId p = 0; p < 5; ++p) {
    sim.addProcess(p, std::make_unique<EtobAutomaton>());
  }
  BroadcastWorkload w;
  w.start = 200;
  w.interval = 60;
  w.perProcess = 4;
  scheduleBroadcastWorkload(sim, w);
  sim.run();
  EXPECT_EQ(traceDigest(sim.trace()), kGoldenB);
}

TEST(GoldenTraceTest, LegacyLinkDisruptionReproduced) {
  SimConfig cfg;
  cfg.processCount = 3;
  cfg.seed = 11;
  cfg.maxTime = 12000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  auto fp = FailurePattern::noFailures(3);
  auto omega =
      std::make_shared<OmegaFd>(fp, 800, OmegaPreStabilization::kSplitBrain);
  Simulator sim(cfg, fp, omega);
  for (ProcessId p = 0; p < 3; ++p) {
    sim.addProcess(p, std::make_unique<EtobAutomaton>());
  }
  LinkDisruption d;
  d.start = 500;
  d.end = 2500;
  d.affects = [](ProcessId from, ProcessId to) { return from == 2 || to == 2; };
  sim.addDisruption(d);
  BroadcastWorkload w;
  w.start = 100;
  w.interval = 50;
  w.perProcess = 5;
  scheduleBroadcastWorkload(sim, w);
  sim.run();
  EXPECT_EQ(traceDigest(sim.trace()), kGoldenC);
}

// --- Catalog digest pins: the exact traces of both eTOB stacks ---------------
//
// Every non-large etob and commit-etob catalog entry, seeds 1..3. These
// are the runs with leader changes, commit rebases, loss and partitions;
// the seed-determinism suite only checks them run-against-rerun, so a
// refactor of the Algorithm 5 core or the §7 layer that moves a single
// delivered sequence, wire weight or schedule shows here. Recorded before
// commit-eTOB was rebuilt as a layer over EtobAutomaton; the three commit
// entries were re-pinned when commit messages stopped re-shipping content
// every process can already name — wire weight only, as the weight-free
// commit-path stream pins (CommitStreamPinTest) show.

struct CatalogPin {
  const char* name;
  std::uint64_t digests[3];  // seeds 1, 2, 3
};

constexpr CatalogPin kCatalogPins[] = {
    {"stable-leader",
     {0xefd8670db3b08dfdULL, 0xfe75cf6d473587caULL, 0xccbad69d00faa71dULL}},
    {"split-brain-heal",
     {0x566691416d8687eeULL, 0x5c7d93e554682337ULL, 0xe604d567f3ec0a79ULL}},
    {"rotating-omega",
     {0x36e169cd9981957bULL, 0xdf4260471f04fc32ULL, 0x5f04d7540684b67dULL}},
    {"minority-crash",
     {0x6e6d8e7dc25fa5b9ULL, 0x46718b3974a5c717ULL, 0xdd707b34d8d2a0e8ULL}},
    {"majority-crash-etob",
     {0x4af70924cefac6e3ULL, 0xe8cd9e2f202cf098ULL, 0x44c6c8fa85747b56ULL}},
    {"staggered-churn",
     {0xdbd3398fc0352ff0ULL, 0xb3f7ac73a83fe4b1ULL, 0x0884d2dc6fa3b7e8ULL}},
    {"flaky-majority-link",
     {0x694b8acc10a187b1ULL, 0x9ce4d194d1f60c83ULL, 0x8a1a74309e632c8eULL}},
    {"dup-reorder-storm",
     {0xf3cb688d0b504c18ULL, 0x9eea44e3e6f691b9ULL, 0xc109224e0367f8c7ULL}},
    {"skewed-clocks",
     {0x32862bb48f754d49ULL, 0xb2adf8f20d52324eULL, 0x36bccfc67536286bULL}},
    {"partition-heal-storm",
     {0x1e874f090768811cULL, 0xe7c8dff77a10352aULL, 0xef29044a9bd222f0ULL}},
    {"adversarial-blackout",
     {0xd31b87105c0a3ad8ULL, 0xf64410385355e9a4ULL, 0xc2600d5ef7043116ULL}},
    {"asymmetric-slow-leader",
     {0x2f73486f21c73cffULL, 0xf77d03f0d82291bcULL, 0x2323b946ca7de49bULL}},
    {"commit-stable-majority",
     {0x544c48f69d22c04fULL, 0xf6125827acc6a0afULL, 0x25ddad1f5847db49ULL}},
    {"commit-majority-crash",
     {0x51f62c5979884b22ULL, 0x7a3a6426b09c74b9ULL, 0xbdc818532a6ab348ULL}},
    {"skewed-chaos-combo",
     {0x062bd00f54164f68ULL, 0x8574f552634d6d7fULL, 0x9265b465a2115effULL}},
    {"lossy-iid-etob",
     {0xf040b09e114d86a2ULL, 0xdc2f316f96e77b91ULL, 0x1f7d08f76c79f2d0ULL}},
    {"lossy-burst-etob",
     {0x71e50d0f5af527eaULL, 0x91ec211282795319ULL, 0x2874595a42f71afbULL}},
    {"lossy-burst-commit",
     {0x9b09e2d5053315f8ULL, 0xd07009a2179b52c6ULL, 0xdbece911988c656eULL}},
};

class CatalogPinTest : public ::testing::TestWithParam<CatalogPin> {};

TEST_P(CatalogPinTest, ReproducesPinnedDigests) {
  const Scenario* s = findScenario(GetParam().name);
  ASSERT_NE(s, nullptr);
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    EXPECT_EQ(runScenario(*s, seed).digest, GetParam().digests[seed - 1])
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(EtobStacks, CatalogPinTest,
                         ::testing::ValuesIn(kCatalogPins),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(CatalogPinCoverageTest, PinsEveryEtobStackEntry) {
  // A new etob/commit-etob entry must be pinned too (and a pinned name
  // must still exist).
  std::set<std::string> expected;
  for (const Scenario& s : scenarioCatalog()) {
    if (isLargeClusterScenario(s)) continue;
    // Single-cluster entries only: the sharded entries' digests are
    // pinned in kPinnedDigests (tests/test_sharded_kv.cpp).
    if (s.shards > 0) continue;
    if (s.stack == AlgoStack::kEtob || s.stack == AlgoStack::kCommitEtob) {
      expected.insert(s.name);
    }
  }
  std::set<std::string> pinned;
  for (const CatalogPin& pin : kCatalogPins) pinned.insert(pin.name);
  EXPECT_EQ(pinned, expected);
}

#endif  // defined(__GLIBCXX__)

// --- Exactly-once under duplicating models ----------------------------------

TEST(ScenarioRunTest, DuplicatingModelsSuppressAtTheBoundary) {
  const Scenario* s = findScenario("dup-reorder-storm");
  ASSERT_NE(s, nullptr);
  const ScenarioRunResult r = runScenario(*s, 3);
  EXPECT_TRUE(r.pass) << (r.failures.empty() ? "?" : r.failures.front());
  // The network duplicated aggressively; none of it reached an automaton
  // twice (r.pass already covers no-duplication; this pins the mechanism).
  EXPECT_GT(r.duplicatesSuppressed, 0u);
}

TEST(ScenarioRunTest, ToJsonLineEscapesHostileStrings) {
  // Failure clauses and names are arbitrary strings; the emitter must
  // produce valid JSON for all of them (they route through the common
  // json.h writer) while keeping the documented key ORDER.
  ScenarioRunResult r;
  r.scenario = "evil \"name\" with \\ and \n";
  r.stack = "etob";
  r.network = "uniform";
  r.failures.push_back("clause with \"quote\"");
  const std::string line = toJsonLine(r);
  auto parsed = Json::parse(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_EQ(parsed->find("scenario")->asString(), r.scenario);
  EXPECT_EQ(parsed->find("failures")->items().at(0).asString(),
            "clause with \"quote\"");
  EXPECT_TRUE(line.rfind("{\"scenario\":", 0) == 0);  // key order kept
}

TEST(ScenarioRunTest, InstantiateHonoursConfigOverrides) {
  const Scenario* s = findScenario("stable-leader");
  ASSERT_NE(s, nullptr);
  SimConfig cfg = s->config;
  cfg.maxTime = 500;
  Cluster cluster(clusterSpec(*s, cfg), 9);
  cluster.runToHorizon();
  EXPECT_LE(cluster.now(), 500u);
  EXPECT_EQ(cluster.sim().config().seed, 9u);
}

// --- Sharded entries: lowering and the sharded result line ------------------

TEST(ShardedLoweringTest, EachEntryLowersOneWayOnly) {
  for (const Scenario& s : scenarioCatalog()) {
    if (s.shards > 0) {
      EXPECT_THROW(clusterSpec(s), InvariantError) << s.name;
      const ShardedSpec spec = shardedSpec(s);
      EXPECT_EQ(spec.shards, s.shards);
      EXPECT_EQ(spec.replicasPerShard, s.config.processCount);
      EXPECT_EQ(spec.stack, s.stack);
      EXPECT_EQ(spec.config.maxTime, s.config.maxTime);
      EXPECT_EQ(spec.tauOmega, s.tauOmega);
      EXPECT_EQ(spec.omegaMode, s.omegaMode);
    } else {
      EXPECT_THROW(shardedSpec(s), InvariantError) << s.name;
    }
  }
}

TEST(ShardedLoweringTest, ShardedResultLineHasTheShardedSchema) {
  // The router counters replace the single-cluster message counters, in
  // the documented key order (docs/SCENARIOS.md).
  ScenarioRunResult r;
  r.scenario = "sharded";
  r.stack = "commit-etob";
  r.shards = 4;
  r.committedPuts = 7;
  const std::string line = toJsonLine(r);
  EXPECT_EQ(line.rfind("{\"scenario\":\"sharded\",\"seed\":0,\"pass\":false,"
                       "\"stack\":\"commit-etob\",\"shards\":4,\"end_time\":0,"
                       "\"puts\":0,\"committed_puts\":7,",
                       0),
            0u)
      << line;
  auto parsed = Json::parse(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_EQ(parsed->find("network"), nullptr);
  EXPECT_EQ(parsed->find("events"), nullptr);
}

}  // namespace
}  // namespace wfd

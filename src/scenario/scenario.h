// Declarative scenario subsystem: one Scenario value names everything a
// run needs — process count, failure pattern, network model, detector,
// protocol stack, workload and checker set — so that tests, benches and
// the wfd_scenarios CLI all execute the same catalog instead of
// hand-rolling simulator setup.
//
// A Scenario is a named, checker-annotated deployment. With shards == 0
// it lowers through clusterSpec() to one wfd::Cluster (the golden
// digest-equivalence suite in tests/test_api.cpp pins that the lowering
// reproduces the pre-facade instantiation bit-for-bit). With shards > 0
// it lowers through shardedSpec() to a ShardedService of that many
// replica groups behind a ShardRouter, driven by a keyed workload.
// runScenario serves both.
//
// A scenario is deterministic modulo its seed: runScenario(s, seed)
// always produces the same digest for the same (scenario, seed) pair,
// which is what the seed-determinism regression tests pin.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/cluster.h"
#include "checkers/broadcast_log.h"
#include "checkers/workload.h"
#include "fd/detectors.h"
#include "shard/sharded_service.h"
#include "sim/failure_pattern.h"
#include "sim/network_model.h"
#include "sim/simulator.h"

namespace wfd {

/// Which trace verifiers run after the simulation, and which extra
/// outcome clauses the scenario asserts.
struct CheckerSet {
  /// checkBroadcastRun core properties (validity, agreement, no-creation,
  /// no-duplication, causal order).
  bool broadcast = false;
  /// Additionally require tau-hat == 0 (strong TOB; paper property (2)).
  bool requireStrongTob = false;
  /// broadcastConverged at the end of the run: every correct process's
  /// d_i holds every correct-origin message and all sequences agree.
  bool convergence = false;
  /// checkCommitSafety: no committed prefix is ever revoked (on every
  /// shard's trace, for a sharded entry).
  bool commit = false;
  /// Additionally require at least one commit indication (stable-majority
  /// scenarios must make progress, not just stay vacuously safe); for a
  /// sharded entry, at least one put observed committed.
  bool requireCommitProgress = false;
  /// checkEcRun: EC integrity/validity always, termination up to the
  /// scenario's ecInstances, eventual agreement witnessed.
  bool ec = false;
  /// All correct gossip replicas hold identical LWW tables at the end.
  bool gossipConvergence = false;
  /// Sharded entries: checkShardedKvRun over the router op log
  /// (committed reads, per-(key, shard) monotonicity, read-your-writes).
  bool shardedKv = false;
  /// Sharded entries: the replica faults must have re-homed keys
  /// (ShardedService::rebalances() > 0).
  bool requireRebalance = false;
};

/// Keyed KV workload of a sharded entry, issued through the router: one
/// put every `interval` ticks, a read of an already-written key after
/// every `getEvery`-th put, and a final read of every written key after
/// the service settles. Values encode the op index (1-based), so every
/// (key, value) pair is unique — the identifiability the checker needs.
struct ShardWorkload {
  std::uint64_t puts = 160;
  std::uint64_t keys = 64;
  /// Key distribution: uniform, or Zipfian(theta) with rank 0 hottest.
  bool zipfian = false;
  double theta = 0.99;
  /// Ticks between consecutive puts.
  Time interval = 10;
  /// Issue a get after every getEvery-th put (0 = interleave none;
  /// the settle-time read pass still runs).
  std::uint64_t getEvery = 4;
};

/// A timed fault against one replica of one shard of a sharded entry.
struct ShardFault {
  enum class Kind : std::uint8_t { kCrash, kIsolate };
  Kind kind = Kind::kCrash;
  std::size_t shard = 0;
  ProcessId replica = 0;
  Time at = 0;
  /// kIsolate: partition heals at `until`.
  Time until = 0;
};

/// A named, declarative run description. Every field is data (or a pure
/// factory), so a (scenario, seed) pair fully determines the run.
struct Scenario {
  std::string name;
  std::string description;

  /// Base scheduler parameters. The per-run seed overrides config.seed.
  /// For a sharded entry these are every shard's parameters, and
  /// processCount is the replicas per shard.
  SimConfig config;

  /// Failure pattern factory (receives config.processCount).
  std::function<FailurePattern(std::size_t n)> pattern;

  /// Network model factory; nullptr = uniform delay from the config
  /// (the legacy scheduling, bit-for-bit).
  std::function<std::shared_ptr<const NetworkModel>(const SimConfig&)> network;

  /// Failure detector factory; nullptr = OmegaFd(pattern, tauOmega,
  /// omegaMode).
  std::function<std::shared_ptr<const FailureDetector>(const FailurePattern&)>
      detector;
  Time tauOmega = 0;
  OmegaPreStabilization omegaMode = OmegaPreStabilization::kSplitBrain;

  AlgoStack stack = AlgoStack::kEtob;

  /// Broadcast workload (ignored by kOmegaEc, which drives proposals,
  /// and by sharded entries, which drive shardWorkload).
  BroadcastWorkload workload;
  /// kOmegaEc: number of EC instances each process proposes.
  Instance ecInstances = 0;

  /// 0 = one cluster. Otherwise the number of independent replica
  /// groups behind a consistent-hash router; such an entry uses only
  /// config, stack, tauOmega, omegaMode and the two fields below.
  std::size_t shards = 0;
  ShardWorkload shardWorkload;
  /// Injected as their times pass; each must fall within config.maxTime.
  std::vector<ShardFault> shardFaults;

  CheckerSet checks;
};

/// Lowers a single-cluster entry to the facade's deployment description
/// (every field except name/description/checks, which are
/// evaluation-side). `overrides` replaces the base SimConfig (keeping
/// pattern/model/stack). A sharded entry fails WFD_ENSURE: it lowers
/// through shardedSpec() instead.
ClusterSpec clusterSpec(const Scenario& s);
ClusterSpec clusterSpec(const Scenario& s, const SimConfig& overrides);

/// Lowers a sharded entry to its deployment: stack, config, tauOmega and
/// omegaMode, with replicasPerShard = config.processCount. A
/// single-cluster entry fails WFD_ENSURE.
ShardedSpec shardedSpec(const Scenario& s);

/// Outcome of one (scenario, seed) run: checker verdicts + metrics.
struct ScenarioRunResult {
  std::string scenario;
  std::uint64_t seed = 0;
  bool pass = false;
  /// One entry per failed clause, e.g. "broadcast: agreement".
  std::vector<std::string> failures;

  std::string stack;
  /// Single-cluster runs only ("" for a sharded run).
  std::string network;
  Time endTime = 0;
  std::uint64_t eventsProcessed = 0;
  std::uint64_t messagesSent = 0;
  std::uint64_t messagesDelivered = 0;
  std::uint64_t duplicatesSuppressed = 0;
  /// Broadcast checker's observed convergence witness (0 otherwise).
  Time tauHat = 0;
  /// Portable digest of the run (seed-determinism tests pin it): the
  /// trace digest, or shardedRunDigest for a sharded run.
  std::uint64_t digest = 0;

  /// Sharded runs only (0 otherwise): router and service counters.
  std::size_t shards = 0;
  std::uint64_t puts = 0;
  std::uint64_t committedPuts = 0;
  std::uint64_t gets = 0;
  std::uint64_t successfulGets = 0;
  std::uint64_t refolds = 0;
  std::uint64_t rebalances = 0;
};

/// Evaluates the scenario's checker set over a cluster that has already
/// been driven (to its horizon, or incrementally — the checkers only see
/// the trace). The explorer drives Clusters itself and calls this.
ScenarioRunResult evaluateScenarioRun(const Scenario& s, std::uint64_t seed,
                                      const Cluster& cluster);

/// Runs the scenario to its horizon and evaluates its checker set. A
/// sharded entry builds the service and a router, issues the keyed
/// workload on its cadence (injecting faults as their times pass),
/// settles, reads every written key back, then evaluates.
ScenarioRunResult runScenario(const Scenario& s, std::uint64_t seed);

/// Runs a sharded entry on `spec` in place of shardedSpec(s) — the twin
/// of clusterSpec(s, overrides), for runs that vary a deployment knob
/// (e.g. rebalanceOnQuorumLoss) on top of the catalog entry.
ScenarioRunResult runScenario(const Scenario& s, std::uint64_t seed,
                              const ShardedSpec& spec);

/// Serializes a result as one JSON object (single line, stable key order,
/// strings escaped by the common/json.h writer). A sharded run has its
/// own schema: the router counters in place of the single-cluster
/// message counters.
std::string toJsonLine(const ScenarioRunResult& r);

/// The named catalog. Entries are registered in catalog.cpp; names are
/// unique, listed in registration order.
const std::vector<Scenario>& scenarioCatalog();

/// Catalog lookup; nullptr when the name is unknown.
const Scenario* findScenario(const std::string& name);

/// True for the big-n (n = 64..256) catalog family. The exhaustive
/// per-entry sweeps (tests/test_scenarios.cpp, tests/test_api.cpp) skip
/// these — each sweep entry runs ~10x per build and again under
/// ASan/TSan — and tests/test_large_cluster.cpp covers them once per
/// build instead. Keep the two sides in sync through this predicate.
inline bool isLargeClusterScenario(const Scenario& s) {
  return s.name.rfind("large-cluster-", 0) == 0;
}

}  // namespace wfd

// The causality graph CG_i of Algorithm 5 (ET OB).
//
// Nodes are application messages; an edge (m', m) means m causally
// depends on m'. UpdateCG(m, C(m)) adds m with edges from C(m); UnionCG
// merges a peer's graph. The graph is acyclic by construction: every
// in-edge of m is created at m's broadcast, and C(m) only contains
// messages created strictly earlier in real time.
//
// Edges are exactly the paper's UpdateCG: one from every element of C(m).
// EtobAutomaton fills C(m) with the sender's causal frontier (closure-
// equivalent to every known message), so the edge set stays small.
//
// Layout: message bodies live in a flat vector parallel to the graph's
// insertion-index space (bodies_[i] is the content of node i once
// bodyKnown_[i]); approxWeight is maintained incrementally. The promote
// sequence of UpdatePromote is maintained incrementally too — see
// extendPromote() below.
#pragma once

#include <cstdint>
#include <vector>

#include "common/digraph.h"
#include "common/types.h"
#include "sim/app_msg.h"

namespace wfd {

class CausalityGraph {
 public:
  /// The paper's UpdateCG(m, C(m)): adds node m and edges {(m', m) |
  /// m' ∈ deps}. C(m) is supplied by the application and may reference
  /// messages whose content this process has not received yet (e.g. a
  /// client session that read m' at another replica): such dependencies
  /// become placeholder nodes — the edge is recorded, and m stays
  /// unpromotable until the placeholder's content arrives (see
  /// extendPromote). Idempotent per message id.
  void addMessage(const AppMsg& m, const std::vector<MsgId>& deps);

  /// The paper's UnionCG(CG_j). Fills in placeholder bodies known to the
  /// peer.
  void unionWith(const CausalityGraph& other);

  /// True iff the full content of the message is known (placeholder
  /// dependency nodes return false).
  bool contains(MsgId id) const {
    const auto idx = graph_.indexOf(id);
    return idx.has_value() && bodyKnown_[*idx] != 0;
  }
  std::size_t messageCount() const { return graph_.nodeCount(); }
  std::size_t edgeCount() const { return graph_.edgeCount(); }

  /// Message metadata (must be present).
  const AppMsg& message(MsgId id) const;

  /// All message ids, in insertion order.
  const std::vector<MsgId>& ids() const { return graph_.nodes(); }

  /// True iff `ancestor` causally precedes `descendant` in this graph.
  bool causallyPrecedes(MsgId ancestor, MsgId descendant) const {
    return graph_.reaches(ancestor, descendant);
  }

  /// Causally maximal messages (no outgoing edge).
  std::vector<MsgId> frontier() const { return graph_.sinks(); }

  /// Abstract serialized size in words (nodes + edges + message bodies) —
  /// what a full-graph update message costs on the wire. Maintained
  /// incrementally; O(1).
  std::size_t approxWeight() const {
    return 1 + graph_.nodeCount() + graph_.edgeCount() + bodyWeight_;
  }

  /// Deterministic topological order of all messages (ties by MsgId).
  /// The graph is acyclic by construction, so this always succeeds.
  std::vector<MsgId> topologicalOrder() const;

  /// The paper's UpdatePromote, batch form: returns an extension of
  /// `promote` that contains every PROMOTABLE message of this graph
  /// exactly once and respects every edge. A message is promotable when
  /// its content and the content of its whole causal ancestry are known —
  /// a placeholder dependency blocks its descendants (causal buffering),
  /// never the rest of the graph. `promote` must itself respect the
  /// graph's edges (invariant maintained by Algorithm 5; violations
  /// throw). This is the reference implementation (full topo walk); the
  /// automata drive the incremental engine below, which produces
  /// identical sequences (differentially tested).
  std::vector<MsgId> extendPromote(const std::vector<MsgId>& promote) const;

  // -- Incremental promote engine ----------------------------------------
  // addMessage/unionWith maintain per-node unmet-predecessor counts and a
  // ready frontier (nodes whose content and whole ancestry are known but
  // which are not yet in the maintained sequence). extendPromote() drains
  // that frontier in O(newly promotable + touched edges): when exactly one
  // node is ready at a time it is appended directly (the unique next
  // element of the canonical batch order); only when several become ready
  // in the same event does it fall back to the full topo walk. The
  // maintained sequence therefore equals replaying the batch
  // extendPromote after every event, without the per-update full toposort.

  /// Extends the maintained promote sequence with everything that became
  /// promotable since the last call. Returns the maintained sequence.
  const std::vector<MsgId>& extendPromote();

  /// The maintained promote sequence (what successive extendPromote()
  /// calls have produced).
  const std::vector<MsgId>& promoteSequence() const { return promoteSeq_; }

  /// Rebase: replaces the maintained sequence with `base` (which must be
  /// duplicate-free and respect the graph's edges — the committed prefix
  /// of the §7 extension) and extends it with everything promotable.
  /// Equivalent to the batch extendPromote(base), at the cost of the
  /// nodes past the common prefix of the two sequences, their successors
  /// and what becomes promotable (plus one scan for the common prefix).
  const std::vector<MsgId>& resetPromote(const std::vector<MsgId>& base);

 private:
  /// Grows the per-node parallel arrays to the graph's node count.
  void syncNodeArrays();
  /// Recomputes unmetPreds_ for node i and queues it if it became ready.
  void refreshNode(std::uint32_t i);
  void pushReady(std::uint32_t i);
  /// Appends node i to the maintained sequence and releases its
  /// successors (decrementing unmet counts, queueing newly ready nodes).
  void emitNode(std::uint32_t i);
  /// Fallback: full topo walk appending every promotable node (exact
  /// batch order).
  void emitBatch();

  Digraph<MsgId> graph_;
  /// Content per node index; meaningful only where bodyKnown_[i] != 0
  /// (placeholder nodes keep a default-constructed slot).
  std::vector<AppMsg> bodies_;
  std::vector<char> bodyKnown_;
  /// Σ over known bodies of (2 + |body| + |causalDeps|): the body part of
  /// approxWeight, maintained on every body learn.
  std::size_t bodyWeight_ = 0;

  // Incremental promote state (all parallel to the graph's index space).
  std::vector<MsgId> promoteSeq_;
  std::vector<char> emitted_;
  std::vector<std::uint32_t> unmetPreds_;
  std::vector<std::uint32_t> ready_;
  std::vector<char> readyFlag_;

  /// Reused union bookkeeping (other graph index -> this graph index).
  std::vector<std::uint32_t> unionMapScratch_;
  /// Reused resetPromote bookkeeping (nodes whose emitted flag changed).
  std::vector<std::uint32_t> flipScratch_;
};

}  // namespace wfd

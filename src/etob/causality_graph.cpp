#include "etob/causality_graph.h"

#include <algorithm>

#include "common/ensure.h"

namespace wfd {

void CausalityGraph::addMessage(const AppMsg& m, const std::vector<MsgId>& deps) {
  if (contains(m.id)) return;
  graph_.addNode(m.id);

  for (MsgId d : deps) {
    if (d == m.id) continue;
    // Unknown dependencies become placeholder nodes: the edge constrains
    // ordering; the content arrives later via update/union.
    graph_.addEdge(d, m.id);
  }
  syncNodeArrays();
  const std::uint32_t mi = *graph_.indexOf(m.id);
  bodies_[mi] = m;
  bodyKnown_[mi] = 1;
  bodyWeight_ += 2 + m.body.size() + m.causalDeps.size();
  refreshNode(mi);
}

void CausalityGraph::unionWith(const CausalityGraph& other) {
  // stablePredSets holds: a message's in-edges are exactly C(m) \ {m},
  // installed atomically by addMessage (empty until then for placeholder
  // nodes), so any two graphs agree on every nonempty pred set and the
  // union can skip settled nodes outright (debug builds cross-check the
  // set equality).
  graph_.unionWith(other.graph_, unionMapScratch_, /*stablePredSets=*/true);
  syncNodeArrays();
  // Only the other graph's nodes can have gained bodies or in-edges;
  // revisit exactly those.
  for (std::size_t j = 0; j < unionMapScratch_.size(); ++j) {
    const std::uint32_t i = unionMapScratch_[j];
    if (other.bodyKnown_[j] && !bodyKnown_[i]) {
      bodies_[i] = other.bodies_[j];
      bodyKnown_[i] = 1;
      bodyWeight_ += 2 + bodies_[i].body.size() + bodies_[i].causalDeps.size();
    }
    if (!emitted_[i]) refreshNode(i);
  }
}

const AppMsg& CausalityGraph::message(MsgId id) const {
  const auto idx = graph_.indexOf(id);
  WFD_ENSURE_MSG(idx.has_value() && bodyKnown_[*idx] != 0,
                 "unknown message in causality graph");
  return bodies_[*idx];
}

std::vector<MsgId> CausalityGraph::topologicalOrder() const {
  auto order = graph_.topoSort([](MsgId a, MsgId b) { return a < b; });
  WFD_ENSURE_MSG(order.has_value(), "causality graph must be acyclic");
  return *order;
}

std::vector<MsgId> CausalityGraph::extendPromote(
    const std::vector<MsgId>& promote) const {
  // Reference (batch) form: emitted-ness is a flat flag array indexed by
  // insertion index, and predecessor checks read the graph's flat
  // adjacency directly instead of materializing value vectors.
  std::vector<char> emitted(graph_.nodeCount(), 0);
  bool anyForeign = false;
  for (MsgId id : promote) {
    if (const auto idx = graph_.indexOf(id)) {
      WFD_ENSURE_MSG(!emitted[*idx], "promote sequence contains duplicates");
      emitted[*idx] = 1;
    } else {
      anyForeign = true;
    }
  }
  if (anyForeign) {
    // Ids this graph has never seen can't collide with the flag array;
    // validate uniqueness of the whole sequence the general way.
    std::vector<MsgId> sorted = promote;
    std::sort(sorted.begin(), sorted.end());
    WFD_ENSURE_MSG(
        std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
        "promote sequence contains duplicates");
  }
  std::vector<MsgId> out = promote;
  // Walk the full topological order; a message is appended only when its
  // content is known AND all its predecessors were emitted. A blocked
  // message blocks its causal descendants (their predecessor flags stay
  // unset) but nothing else.
  const auto order =
      graph_.topoSortIndices([](MsgId a, MsgId b) { return a < b; });
  WFD_ENSURE_MSG(order.has_value(), "causality graph must be acyclic");
  for (std::uint32_t idx : *order) {
    if (emitted[idx]) continue;
    bool ready = bodyKnown_[idx] != 0;
    if (ready) {
      for (std::uint32_t pred : graph_.predIndices(idx)) {
        if (!emitted[pred]) {
          ready = false;
          break;
        }
      }
    }
    if (ready) {
      out.push_back(graph_.nodeAt(idx));
      emitted[idx] = 1;
    }
  }
  // Post-condition: out respects every edge of the graph. The prefix does
  // by the algorithm's invariant; appended messages were emitted only
  // after all their predecessors, and no edge can point from an appended
  // message to a prefix message (all in-edges of a message exist from
  // its creation).
  return out;
}

const std::vector<MsgId>& CausalityGraph::extendPromote() {
  for (;;) {
    // Compact the ready frontier, dropping entries invalidated since they
    // were queued (an edge learned later can re-block a node).
    std::size_t valid = 0;
    for (const std::uint32_t i : ready_) {
      if (!readyFlag_[i]) continue;  // emitted meanwhile
      if (emitted_[i] || unmetPreds_[i] != 0 || !bodyKnown_[i]) {
        readyFlag_[i] = 0;  // refreshNode re-queues it if it recovers
        continue;
      }
      ready_[valid++] = i;
    }
    ready_.resize(valid);
    if (ready_.empty()) return promoteSeq_;
    if (ready_.size() == 1) {
      // Exactly one node is promotable: it is necessarily the next
      // element of the canonical batch order (the first promotable node
      // in topological order has no unemitted promotable ancestor, and
      // here there is only one candidate), so append it directly and
      // cascade into whatever its emission released.
      const std::uint32_t i = ready_[0];
      ready_.clear();
      emitNode(i);
      continue;
    }
    // Several nodes became promotable in one event (e.g. a union healing
    // a partition): fall back to the full walk for the canonical order.
    emitBatch();
    ready_.clear();
    return promoteSeq_;
  }
}

const std::vector<MsgId>& CausalityGraph::resetPromote(
    const std::vector<MsgId>& base) {
  syncNodeArrays();
  // Only nodes past the common prefix of the maintained sequence and the
  // new base change emitted-ness. Every other node's unmet-predecessor
  // count is already exact, and the ready frontier already holds every
  // ready node (the engine's invariant), so flipping the changed nodes
  // and refreshing them and their successors leaves exactly the state a
  // from-scratch recount would.
  const std::size_t common = static_cast<std::size_t>(
      std::mismatch(promoteSeq_.begin(), promoteSeq_.end(), base.begin(), base.end())
          .first -
      promoteSeq_.begin());
  flipScratch_.clear();
  for (std::size_t k = common; k < promoteSeq_.size(); ++k) {
    if (const auto idx = graph_.indexOf(promoteSeq_[k])) {
      emitted_[*idx] = 0;
      flipScratch_.push_back(*idx);
    }
  }
  bool anyForeign = false;
  for (std::size_t k = common; k < base.size(); ++k) {
    if (const auto idx = graph_.indexOf(base[k])) {
      WFD_ENSURE_MSG(!emitted_[*idx], "promote sequence contains duplicates");
      emitted_[*idx] = 1;
      flipScratch_.push_back(*idx);
    } else {
      anyForeign = true;
    }
  }
  if (anyForeign) {
    std::vector<MsgId> sorted = base;
    std::sort(sorted.begin(), sorted.end());
    WFD_ENSURE_MSG(
        std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
        "promote sequence contains duplicates");
  }
  promoteSeq_.resize(common);
  promoteSeq_.insert(promoteSeq_.end(), base.begin() + common, base.end());
  // A node dropped and re-added past the common prefix appears twice in
  // the scratch list; both refreshes see the final flags.
  for (const std::uint32_t i : flipScratch_) {
    if (!emitted_[i]) refreshNode(i);
    for (const std::uint32_t s : graph_.succIndices(i)) {
      if (!emitted_[s]) refreshNode(s);
    }
  }
  return extendPromote();
}

void CausalityGraph::syncNodeArrays() {
  const std::size_t n = graph_.nodeCount();
  if (bodies_.size() == n) return;
  bodies_.resize(n);
  bodyKnown_.resize(n, 0);
  emitted_.resize(n, 0);
  unmetPreds_.resize(n, 0);
  readyFlag_.resize(n, 0);
}

void CausalityGraph::refreshNode(std::uint32_t i) {
  std::uint32_t unmet = 0;
  for (const std::uint32_t p : graph_.predIndices(i)) {
    if (!emitted_[p]) ++unmet;
  }
  unmetPreds_[i] = unmet;
  if (unmet == 0 && bodyKnown_[i] && !emitted_[i]) pushReady(i);
}

void CausalityGraph::pushReady(std::uint32_t i) {
  if (readyFlag_[i]) return;
  readyFlag_[i] = 1;
  ready_.push_back(i);
}

void CausalityGraph::emitNode(std::uint32_t i) {
  promoteSeq_.push_back(graph_.nodeAt(i));
  emitted_[i] = 1;
  readyFlag_[i] = 0;
  for (const std::uint32_t s : graph_.succIndices(i)) {
    if (emitted_[s]) continue;
    WFD_DCHECK(unmetPreds_[s] > 0);
    if (--unmetPreds_[s] == 0 && bodyKnown_[s]) pushReady(s);
  }
}

void CausalityGraph::emitBatch() {
  const auto order =
      graph_.topoSortIndices([](MsgId a, MsgId b) { return a < b; });
  WFD_ENSURE_MSG(order.has_value(), "causality graph must be acyclic");
  for (const std::uint32_t idx : *order) {
    if (emitted_[idx] || !bodyKnown_[idx] || unmetPreds_[idx] != 0) continue;
    emitNode(idx);
  }
}

}  // namespace wfd

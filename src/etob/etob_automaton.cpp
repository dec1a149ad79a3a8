#include "etob/etob_automaton.h"

#include <algorithm>

#include "common/ensure.h"

namespace wfd {

EtobAutomaton::EtobAutomaton(EtobConfig config) : config_(config) {}

void EtobAutomaton::onInput(const StepContext&, const Payload& input, Effects& fx) {
  const auto* bcast = input.as<BroadcastInput>();
  if (bcast == nullptr) return;

  AppMsg m = bcast->msg;
  std::vector<MsgId> deps = m.causalDeps;
  // C(m) ⊇ everything this process has sent or received so far. Listing
  // the causal frontier (the graph's sinks) is closure-equivalent to
  // listing every known message — every known message reaches a sink —
  // and promote order depends only on the closure.
  for (MsgId known : cg_.frontier()) deps.push_back(known);
  cg_.addMessage(m, deps);
  if (config_.deltaUpdates) {
    const std::size_t weight = 3 + m.body.size() + deps.size();
    fx.broadcast(Payload::of(EtobDeltaMsg{std::move(m), std::move(deps)}), weight);
  } else {
    fx.broadcast(Payload::of(EtobUpdateMsg{cg_}), cg_.approxWeight());
  }
}

void EtobAutomaton::onMessage(const StepContext& ctx, ProcessId from,
                              const Payload& msg, Effects& fx) {
  if (const auto* update = msg.as<EtobUpdateMsg>()) {
    cg_.unionWith(update->cg);
    pruneAdopted(update->cg);
    cg_.extendPromote();
    return;
  }
  if (const auto* delta = msg.as<EtobDeltaMsg>()) {
    cg_.addMessage(delta->msg, delta->deps);
    adoptedBodies_.erase(delta->msg.id);
    cg_.extendPromote();
    return;
  }
  if (const auto* promote = msg.as<EtobPromoteMsg>()) {
    adoptPromote(ctx, from, *promote, {}, fx);
    return;
  }
}

void EtobAutomaton::onTimeout(const StepContext& ctx, Effects& fx) {
  if (ctx.fd.leader != ctx.self) {
    wasLeader_ = false;
    return;
  }
  const bool justElected = !wasLeader_;
  wasLeader_ = true;
  const std::vector<MsgId>& promote = cg_.promoteSequence();
  ++lambdasSincePromote_;
  if (config_.promoteRefreshEvery > 1) {
    const bool changed = rebased_ || promote.size() != lastSentLen_;
    const bool refreshDue = lambdasSincePromote_ >= config_.promoteRefreshEvery;
    if (!changed && !justElected && !refreshDue) return;
  }
  // Delta-encode against the previous sent promote: between rebases
  // promote_i only grows, so the suffix past lastSentLen_ plus the base
  // length reconstructs the full sequence at every receiver. The first
  // promote has lastSentLen_ == 0 and is naturally a full snapshot; a
  // rebase forces one.
  const std::size_t base = rebased_ ? 0 : lastSentLen_;
  WFD_DCHECK(base <= promote.size());
  // Every id in promote_i has its body in cg_: the engine emits only
  // known bodies, and a rebase learns its prefix's content first.
  std::vector<AppMsg> seq;
  seq.reserve(promote.size() - base);
  std::size_t weight = 3;  // 2 header words + baseLen
  for (std::size_t k = base; k < promote.size(); ++k) {
    seq.push_back(cg_.message(promote[k]));
    weight += 2 + seq.back().body.size();
  }
  lambdasSincePromote_ = 0;
  lastSentLen_ = promote.size();
  rebased_ = false;
  ++promoteEpoch_;
  fx.broadcast(Payload::of(EtobPromoteMsg{std::move(seq), promoteEpoch_, base}),
               weight);
}

const AppMsg* EtobAutomaton::findMessage(MsgId id) const {
  if (cg_.contains(id)) return &cg_.message(id);
  auto it = adoptedBodies_.find(id);
  return it == adoptedBodies_.end() ? nullptr : &it->second;
}

EtobAutomaton::PromoteAdoption EtobAutomaton::adoptPromote(
    const StepContext& ctx, ProcessId from, const EtobPromoteMsg& msg,
    const std::vector<MsgId>& floor, Effects& fx) {
  PromoteChain& chain = chains_[from];
  advanceChain(chain, msg);
  // Adopt the reconstructed sequence only if it comes from the process
  // this module's Omega currently trusts, and only in send order (stale
  // reordered promotes from the same sender are discarded: the chain
  // head only ever moves forward).
  if (ctx.fd.leader != from || chain.epoch <= adoptedEpoch_[from]) return {};
  if (!isPrefix(floor, chain.ids)) return {0, true};
  adoptedEpoch_[from] = chain.epoch;
  deliver(chain.ids, fx);
  return {chain.epoch, false};
}

void EtobAutomaton::rebase(const std::vector<MsgId>& ids, std::size_t known,
                           const std::vector<AppMsg>& content) {
  WFD_DCHECK(known <= ids.size() && content.size() <= ids.size());
  // The previous committed prefix is in cg_: a leader commits from its
  // own promote sequence, and every rebase learns its whole prefix.
  WFD_DCHECK(std::all_of(ids.begin(), ids.begin() + known,
                         [this](MsgId id) { return cg_.contains(id); }));
  const std::size_t contentFrom = ids.size() - content.size();
  for (std::size_t k = known; k < ids.size(); ++k) {
    const AppMsg* m = k >= contentFrom ? &content[k - contentFrom] : findMessage(ids[k]);
    WFD_ENSURE_MSG(m != nullptr, "committed a message this process cannot name");
    WFD_DCHECK(m->id == ids[k]);
    cg_.addMessage(*m, {});
    adoptedBodies_.erase(ids[k]);
  }
  cg_.resetPromote(ids);
  rebased_ = true;
}

void EtobAutomaton::deliver(const std::vector<MsgId>& seq, Effects& fx) {
  d_ = seq;
  fx.deliverSequence(d_);
}

void EtobAutomaton::advanceChain(PromoteChain& chain, const EtobPromoteMsg& msg) {
  if (msg.epoch <= chain.epoch) return;  // stale duplicate
  chain.pending.emplace(msg.epoch, msg);
  while (!chain.pending.empty()) {
    const auto it = chain.pending.begin();
    if (it->first <= chain.epoch) {  // superseded by a newer full snapshot
      chain.pending.erase(it);
      continue;
    }
    const EtobPromoteMsg& p = it->second;
    const bool full = p.baseLen == 0;
    // A delta extends exactly the sender's previous promote; epochs are
    // contiguous per sender, so a gap means that promote is still in
    // flight (reliable links guarantee it arrives).
    if (!full && it->first != chain.epoch + 1) break;
    if (full) {
      chain.ids.clear();
    } else {
      WFD_ENSURE_MSG(chain.ids.size() == p.baseLen,
                     "promote delta base length mismatch");
    }
    chain.ids.reserve(chain.ids.size() + p.seq.size());
    for (const AppMsg& m : p.seq) {
      chain.ids.push_back(m.id);
      // Stash content the causality graph doesn't know yet so every id in
      // the reconstructed sequence stays resolvable via findMessage.
      if (!cg_.contains(m.id)) adoptedBodies_.emplace(m.id, m);
    }
    chain.epoch = it->first;
    chain.pending.erase(it);
  }
}

void EtobAutomaton::pruneAdopted(const CausalityGraph& learned) {
  // Every promote-learned body whose update has now reached cg_ is backed
  // there; dropping it keeps adoptedBodies_ from growing for the whole
  // run (it previously retained every foreign body ever adopted).
  if (adoptedBodies_.empty()) return;
  for (MsgId id : learned.ids()) {
    if (cg_.contains(id)) adoptedBodies_.erase(id);
  }
}

}  // namespace wfd

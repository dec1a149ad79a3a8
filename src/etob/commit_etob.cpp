#include "etob/commit_etob.h"

#include <algorithm>

#include "common/ensure.h"

namespace wfd {
namespace {

/// Total strength order on commit sequences: longer beats shorter, equal
/// lengths tie-break to the lexicographically smaller id sequence. Every
/// process applies the same rule to every commit it learns, and a commit
/// reaches every correct process (by the committer's broadcast, or handed
/// back to a leader that missed it), so all correct processes converge
/// on the same strongest commit — which is what keeps
/// eTOB's eventual agreement alive even in runs outside the §7 proviso
/// where two pre-stabilization leaders managed to commit conflicting
/// prefixes (a schedule wfd_explore finds readily; the previous behaviour
/// of refusing conflicting commits forever deadlocked convergence).
bool strongerCommit(const std::vector<MsgId>& a, const std::vector<MsgId>& b) {
  if (a.size() != b.size()) return a.size() > b.size();
  return a < b;
}

/// Consecutive refused promotes before a follower hands its commit back
/// to the trusted leader. An ordinary refusal is a promote the leader
/// sent before its own copy of the commit arrived; on reliable links a
/// run of those ends within a few delays (the longest seen across the
/// scenario catalog and the seed-1/7 fuzz streams is 36). Only a commit
/// lost for good keeps the run going, so the hand-back costs nothing on
/// reliable links (HandBackTest pins zero hand-backs across the reliable
/// commit entries) and at most this many λ-steps of delay under loss.
constexpr std::uint64_t kRefusalsBeforeHandBack = 64;

}  // namespace

void CommitEtobAutomaton::onMessage(const StepContext& ctx, ProcessId from,
                                    const Payload& msg, Effects& fx) {
  if (const auto* promote = msg.as<EtobPromoteMsg>()) {
    // Commit guard: never adopt a sequence that contradicts what this
    // process already knows to be committed. Acknowledge every adoption
    // to the leader.
    //
    // A trusted leader that keeps promoting past this process's commit
    // has not learned it: the committer crashed before every copy of its
    // commit broadcast got through (a lossy link drops them and
    // retransmission dies with the sender). Without help the guard
    // refuses that leader forever, so after a run of refusals hand the
    // commit back — the leader rebases onto it and its next promote is
    // adoptable here. Repeating every run keeps the hand-back stubborn
    // under loss.
    const EtobAutomaton::PromoteAdoption adopted =
        core_.adoptPromote(ctx, from, *promote, committed_, fx);
    if (adopted.epoch != 0) {
      fx.send(from, Payload::of(EtobAckMsg{adopted.epoch}));
      refusals_ = 0;
    } else if (adopted.belowFloor && ++refusals_ == kRefusalsBeforeHandBack) {
      refusals_ = 0;
      ++handBacks_;
      sendCommit(from, /*contentFrom=*/0, /*handBack=*/true, fx);
    }
    return;
  }
  if (const auto* ack = msg.as<EtobAckMsg>()) {
    onAck(ctx, from, ack->epoch, fx);
    return;
  }
  if (const auto* commit = msg.as<EtobCommitMsg>()) {
    adoptCommit(*commit, fx);
    // A hand-back this process does not now hold is weaker than its own
    // commit (a prefix of it, or the losing side of a conflict). Answer
    // with the stronger one, or the sender keeps refusing every promote
    // built on it.
    if (commit->handBack && commit->ids != committed_) {
      sendCommit(from, /*contentFrom=*/0, /*handBack=*/false, fx);
    }
    return;
  }
  core_.onMessage(ctx, from, msg, fx);
}

void CommitEtobAutomaton::onTimeout(const StepContext& ctx, Effects& fx) {
  const std::uint64_t before = core_.promoteEpoch();
  core_.onTimeout(ctx, fx);
  const std::uint64_t epoch = core_.promoteEpoch();
  if (epoch == before) return;  // no promote sent
  epochSeq_[epoch] = core_.promoteSequence();
  // Prune acknowledged bookkeeping far behind the committed frontier.
  while (!epochSeq_.empty() && epochSeq_.begin()->first + 128 < epoch) {
    acks_.erase(epochSeq_.begin()->first);
    epochSeq_.erase(epochSeq_.begin());
  }
}

void CommitEtobAutomaton::onAck(const StepContext& ctx, ProcessId from,
                                std::uint64_t epoch, Effects& fx) {
  auto seqIt = epochSeq_.find(epoch);
  if (seqIt == epochSeq_.end()) return;  // pruned or never promoted by me
  const std::vector<MsgId>& candidate = seqIt->second;
  // `from` adopted this sequence, so it can name every body in it.
  // promote_i only grows between rebases, so every sequence counted here
  // is a prefix of the current one, as is every commit made from it.
  ackedLen_.resize(ctx.processCount, 0);
  if (epoch > rebaseEpoch_) {
    ackedLen_[from] = std::max(ackedLen_[from], candidate.size());
  }
  auto& voters = acks_[epoch];
  voters.insert(from);
  const std::size_t majority = ctx.processCount / 2 + 1;
  if (voters.size() < majority) return;
  if (candidate.size() <= committed_.size()) return;  // nothing new
  if (!isPrefix(committed_, candidate)) {
    // Should not happen while this process leads (its own promotes
    // extend its committed prefix); counted for honesty.
    ++commitConflicts_;
    return;
  }
  // Stale-epoch guard: the candidate was snapshotted when it was this
  // leader's promote sequence, but an adoptCommit in between may have
  // REBASED promote_ into a different order. Committing such a moot
  // snapshot would make committed_ diverge from every future promote —
  // each then refused by the commit guard at every process, this one
  // included, freezing d_i forever (a deadlock wfd_explore shrank to a
  // 5-process run). Only commit candidates the current promote order
  // still stands behind.
  if (!isPrefix(candidate, core_.promoteSequence())) return;
  committed_ = candidate;
  const std::size_t named = *std::min_element(ackedLen_.begin(), ackedLen_.end());
  sendCommit(kBroadcast, std::min(named, committed_.size()), /*handBack=*/false, fx);
  // The indication must describe this process's own delivery sequence;
  // the leader's loopback promote may still be in flight, so align d_i
  // with the committed prefix before indicating.
  if (!isPrefix(committed_, core_.delivered())) core_.deliver(committed_, fx);
  fx.output(Payload::of(CommittedPrefix{committed_.size()}));
}

void CommitEtobAutomaton::sendCommit(ProcessId to, std::size_t contentFrom,
                                     bool handBack, Effects& fx) const {
  std::vector<AppMsg> content;
  content.reserve(committed_.size() - contentFrom);
  // Every id costs a word; every shipped body costs 1 + |body| more, so a
  // full-content commit weighs 2 + Σ(2 + |body|).
  std::size_t weight = 2 + committed_.size();
  for (std::size_t k = contentFrom; k < committed_.size(); ++k) {
    const AppMsg* m = core_.findMessage(committed_[k]);
    WFD_ENSURE_MSG(m != nullptr, "committed a message this process cannot name");
    content.push_back(*m);
    weight += 1 + m->body.size();
  }
  fx.send(to, Payload::of(EtobCommitMsg{committed_, std::move(content), handBack}),
          weight);
}

void CommitEtobAutomaton::adoptCommit(const EtobCommitMsg& msg, Effects& fx) {
  const std::vector<MsgId>& ids = msg.ids;
  const std::size_t common = static_cast<std::size_t>(
      std::mismatch(committed_.begin(), committed_.end(), ids.begin(), ids.end())
          .first -
      committed_.begin());
  if (common == ids.size()) return;  // already covered
  if (common < committed_.size()) {
    // Conflicting commit: possible only outside the §7 proviso (two
    // leaders each gathered a majority of stale acknowledgments). Keep
    // the stronger of the two — a deterministic join all processes
    // compute identically — so convergence survives; the local prefix
    // indication is revoked, which is exactly what §7 says cannot be
    // avoided without the proviso.
    ++commitConflicts_;
    if (!strongerCommit(ids, committed_)) return;
  }
  // Learn the content past the common prefix (shipped, or already named
  // here) and rebase the local promote sequence onto the committed
  // prefix. The rebase may reorder promote_i, so acknowledgments of
  // earlier promotes no longer say what a process can name.
  committed_ = ids;
  core_.rebase(committed_, common, msg.content);
  std::fill(ackedLen_.begin(), ackedLen_.end(), 0);
  rebaseEpoch_ = core_.promoteEpoch();
  // The indication is emitted once the local delivery sequence reflects
  // the committed prefix (it may still show an older leader's view).
  if (!isPrefix(committed_, core_.delivered())) core_.deliver(committed_, fx);
  fx.output(Payload::of(CommittedPrefix{committed_.size()}));
}

}  // namespace wfd

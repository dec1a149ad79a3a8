// ET OB with committed-prefix indications — the extension sketched in the
// paper's Concluding Remarks (§7):
//
//   "such systems sometimes produce indications when a prefix of
//    operations on the replicated service is committed, i.e., is not
//    subject to further changes. A prefix of operations can be committed,
//    e.g., in sufficiently long periods of synchrony, when a majority of
//    correct processes elect the same leader and all incoming and
//    outgoing messages of the leader to the correct majority are
//    delivered within some fixed bound. We believe that such indications
//    could easily be implemented, during the stable periods, on top of
//    ETOB."
//
// Mechanism — a layer that owns the one Algorithm 5 core (EtobAutomaton)
// and drives it through its layer hooks:
//  * followers acknowledge each adopted promote epoch back to its leader;
//  * when a majority acknowledged epoch e, the leader marks the sequence
//    it promoted at e as committed and broadcasts its ids, with content
//    only for the suffix some process may not yet name (see
//    EtobCommitMsg);
//  * every process refuses to adopt a promote that contradicts its local
//    committed prefix, and every leader rebuilds its promote sequence to
//    extend any newly learned committed prefix;
//  * a follower that keeps refusing its leader hands the commit back to
//    it (the committer may have crashed before its broadcast reached
//    everyone, which lossy links allow);
//  * CONFLICTING commits (reachable only outside the §7 proviso, when two
//    pre-stabilization leaders each gather a majority of stale
//    acknowledgments) resolve by a deterministic strength join — longer
//    wins, equal lengths tie-break to the lexicographically smaller
//    sequence — so every correct process converges on the same committed
//    prefix and eTOB's eventual agreement survives; the losing process's
//    indication is revoked, which is why commit safety is asserted only
//    for proviso runs (the scenario catalog) and not by the fuzz oracle
//    (docs/FUZZING.md).
//
// The guarantees match §7's proviso: indications are produced only while
// a majority acknowledges the same leader (they stop, rather than lie,
// when the majority is gone — benched in E10), and in the runs covered by
// the proviso a committed prefix is never revoked at any correct process
// (checked by checkCommitSafety over every test run). Omega remains the
// only failure detector input — exactly the paper's "Ω is necessary for
// such systems too".
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/types.h"
#include "etob/etob_automaton.h"
#include "sim/app_msg.h"
#include "sim/automaton.h"

namespace wfd {

/// Output event: this process learned that the first `length` entries of
/// its delivery sequence are committed (never change again under the §7
/// proviso).
struct CommittedPrefix {
  std::uint64_t length = 0;
};

/// Wire messages (update/delta/promote reuse the ETOB structures).
struct EtobAckMsg {
  std::uint64_t epoch = 0;
};
struct EtobCommitMsg {
  /// The committed sequence.
  std::vector<MsgId> ids;
  /// Bodies of ids[contentFrom()..]. A broadcast commit leaves out the
  /// prefix every process has acknowledged (since the committer's last
  /// rebase) as part of one of the committer's promotes: an acknowledged
  /// promote was adopted, adoption stashes every body it carries, and
  /// stashed bodies are never dropped — so every receiver can name
  /// everything below contentFrom(). Hand-backs and answers to them ship
  /// everything.
  std::vector<AppMsg> content;
  /// Sent by a follower whose commit guard keeps refusing the receiver's
  /// promotes (see CommitEtobAutomaton::onMessage). A receiver holding a
  /// different, stronger commit answers with its own.
  bool handBack = false;

  std::size_t contentFrom() const { return ids.size() - content.size(); }
};

/// The §7 layer: owns an EtobAutomaton (the one Algorithm 5 core) and
/// adds only the commit state and the ack/commit handlers.
class CommitEtobAutomaton final : public CloneableAutomaton<CommitEtobAutomaton> {
 public:
  explicit CommitEtobAutomaton(EtobConfig config = {}) : core_(config) {}

  void onInput(const StepContext& ctx, const Payload& input, Effects& fx) override {
    core_.onInput(ctx, input, fx);
  }
  void onMessage(const StepContext& ctx, ProcessId from, const Payload& msg,
                 Effects& fx) override;
  void onTimeout(const StepContext& ctx, Effects& fx) override;

  /// BroadcastAutomatonLike.
  const std::vector<MsgId>& delivered() const { return core_.delivered(); }
  const AppMsg* findMessage(MsgId id) const { return core_.findMessage(id); }

  const std::vector<MsgId>& committedPrefix() const { return committed_; }
  /// Conflicting committed prefixes observed (0 under the §7 proviso).
  std::uint64_t commitConflicts() const { return commitConflicts_; }
  /// Commits handed back to a leader whose promotes kept being refused
  /// (0 unless a commit was lost with its committer).
  std::uint64_t handBacks() const { return handBacks_; }

 private:
  void onAck(const StepContext& ctx, ProcessId from, std::uint64_t epoch,
             Effects& fx);
  void adoptCommit(const EtobCommitMsg& msg, Effects& fx);
  /// Sends committed_ to `to` with content from `contentFrom` on.
  void sendCommit(ProcessId to, std::size_t contentFrom, bool handBack,
                  Effects& fx) const;

  EtobAutomaton core_;
  std::vector<MsgId> committed_;
  std::map<std::uint64_t, std::vector<MsgId>> epochSeq_;  // my promoted seqs
  std::map<std::uint64_t, std::set<ProcessId>> acks_;
  /// Per process, the length of the longest of my promote sequences it has
  /// acknowledged since my last rebase (all of them prefixes of my current
  /// promote sequence): the content it can name without being sent it.
  std::vector<std::size_t> ackedLen_;
  /// My promote epoch at my last rebase; acks of older epochs name a
  /// sequence the rebase may have reordered and do not count.
  std::uint64_t rebaseEpoch_ = 0;
  std::uint64_t commitConflicts_ = 0;
  std::uint64_t handBacks_ = 0;
  /// Promotes refused by the commit guard since the last adoption or
  /// hand-back.
  std::uint64_t refusals_ = 0;
};

}  // namespace wfd

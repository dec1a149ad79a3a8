// Replicated state machine over any broadcast ordering service.
//
// Plugging EtobAutomaton gives the paper's eventually consistent
// replicated service (an "eventually linearizable universal
// construction", §6); plugging TobViaConsensusAutomaton gives the
// classical strongly consistent replica. The replica replays the
// ordering service's delivery sequence d_i into the state machine: when
// d_i grows by a suffix, the new commands are applied incrementally; when
// d_i is rewritten (possible in ETOB before τ), the machine is rebuilt
// from scratch — state = fold(apply, initial, d_i).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/ensure.h"
#include "common/types.h"
#include "rsm/state_machines.h"
#include "sim/app_msg.h"
#include "sim/automaton.h"

namespace wfd {

/// Client request: apply a command to the replicated machine.
struct ClientCommand {
  Command command;
};

template <typename Ordering, typename Machine>
class ReplicaAutomaton final
    : public CloneableAutomaton<ReplicaAutomaton<Ordering, Machine>> {
 public:
  explicit ReplicaAutomaton(Ordering ordering) : ordering_(std::move(ordering)) {}

  void onInput(const StepContext& ctx, const Payload& input, Effects& fx) override {
    const auto* cmd = input.as<ClientCommand>();
    if (cmd == nullptr) return;
    AppMsg m;
    m.id = makeMsgId(ctx.self, nextSeq_++);
    m.origin = ctx.self;
    m.body = cmd->command;
    ordering_.onInput(ctx, Payload::of(BroadcastInput{std::move(m)}), fx);
    syncDelivered(fx);
  }

  void onMessage(const StepContext& ctx, ProcessId from, const Payload& msg,
                 Effects& fx) override {
    ordering_.onMessage(ctx, from, msg, fx);
    syncDelivered(fx);
  }

  void onTimeout(const StepContext& ctx, Effects& fx) override {
    ordering_.onTimeout(ctx, fx);
    syncDelivered(fx);
  }

  const Machine& machine() const { return machine_; }
  const Ordering& ordering() const { return ordering_; }
  /// Number of full state rebuilds caused by delivery-sequence rewrites
  /// (zero under strong TOB; zero after τ under ETOB).
  std::uint64_t rebuilds() const { return rebuilds_; }

 private:
  // The replica adds no wire messages or outputs, so the ordering layer
  // writes the step's effects in place. fx is fresh for every step: a d_i
  // in it is the one the ordering layer just set.
  void syncDelivered(const Effects& fx) {
    if (fx.delivered().has_value()) syncMachine(*fx.delivered());
  }

  void syncMachine(const std::vector<MsgId>& seq) {
    std::size_t from = applied_.size();
    if (!isPrefix(applied_, seq)) {
      machine_ = Machine{};
      ++rebuilds_;
      from = 0;
    }
    for (std::size_t i = from; i < seq.size(); ++i) {
      const AppMsg* m = ordering_.findMessage(seq[i]);
      WFD_ENSURE_MSG(m != nullptr, "delivered command with unknown content");
      machine_.apply(m->body);
    }
    applied_ = seq;
  }

  Ordering ordering_;
  Machine machine_;
  std::vector<MsgId> applied_;
  std::uint32_t nextSeq_ = 0;
  std::uint64_t rebuilds_ = 0;
};

}  // namespace wfd

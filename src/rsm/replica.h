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
    Effects cfx;
    ordering_.onInput(ctx, Payload::of(BroadcastInput{std::move(m)}), cfx);
    drain(cfx, fx);
  }

  void onMessage(const StepContext& ctx, ProcessId from, const Payload& msg,
                 Effects& fx) override {
    Effects cfx;
    ordering_.onMessage(ctx, from, msg, cfx);
    drain(cfx, fx);
  }

  void onTimeout(const StepContext& ctx, Effects& fx) override {
    Effects cfx;
    ordering_.onTimeout(ctx, cfx);
    drain(cfx, fx);
  }

  const Machine& machine() const { return machine_; }
  const Ordering& ordering() const { return ordering_; }
  /// Number of full state rebuilds caused by delivery-sequence rewrites
  /// (zero under strong TOB; zero after τ under ETOB).
  std::uint64_t rebuilds() const { return rebuilds_; }

 private:
  void drain(Effects& cfx, Effects& fx) {
    // The replica adds no wire messages; ordering traffic passes through.
    for (const OutboundMsg& m : cfx.sends()) {
      if (m.to == kBroadcast) {
        fx.broadcast(m.payload, m.weight);
      } else {
        fx.send(m.to, m.payload, m.weight);
      }
    }
    for (const Payload& out : cfx.outputs()) fx.output(out);
    if (!cfx.delivered().has_value()) return;
    fx.deliverSequence(*cfx.delivered());
    syncMachine(*cfx.delivered());
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

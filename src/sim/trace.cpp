#include "sim/trace.h"

#include "common/ensure.h"

namespace wfd {

Trace::Trace(std::size_t processCount, bool keepSnapshots)
    : keepSnapshots_(keepSnapshots),
      outputs_(processCount),
      snapshots_(processCount),
      current_(processCount),
      perMsg_(processCount),
      prefixViolations_(processCount, 0),
      lastViolationAt_(processCount, 0),
      lastChangeAt_(processCount, 0),
      stepsTaken_(processCount, 0),
      recordOrder_(processCount, 0),
      repeats_(processCount, 0) {}

void Trace::recordOutput(ProcessId p, Time t, Payload value) {
  outputs_.at(p).push_back(OutputEvent{t, recordOrder_.at(p)++, std::move(value)});
}

bool Trace::recordDelivered(ProcessId p, Time t, const std::vector<MsgId>& seq) {
  std::vector<MsgId>& old = current_.at(p);
  if (seq == old) return false;  // no change; keep traces compact

  // Prefix check: old must be a prefix of seq for the update to be a pure
  // extension (no revocation or reorder).
  const bool extends = isPrefix(old, seq);
  if (!extends) {
    ++prefixViolations_.at(p);
    lastViolationAt_.at(p) = t;
  }
  lastChangeAt_.at(p) = t;

  auto& stats = perMsg_.at(p);
  if (extends && repeats_.at(p) == 0) {
    // Pure extension of a duplicate-free d_i (every eTOB step after τ):
    // no old message disappears or moves, so only the new suffix is
    // touched. A suffix id seen before lands at an index >= old.size(),
    // which the general path below counts as a move; if it is present
    // right now, the suffix repeats it.
    for (std::size_t i = old.size(); i < seq.size(); ++i) {
      auto [it, fresh] = stats.try_emplace(seq[i], MsgDeliveryStats{t, t, true});
      if (fresh) continue;
      if (it->second.presentNow) ++repeats_.at(p);
      it->second.presentNow = true;
      it->second.lastChange = t;
    }
    old.insert(old.end(), seq.begin() + static_cast<std::ptrdiff_t>(old.size()),
               seq.end());
  } else {
    reindexDelivered(p, t, seq);
  }

  if (keepSnapshots_) {
    snapshots_.at(p).push_back(DeliverySnapshot{t, recordOrder_.at(p)++, old});
  }
  return true;
}

void Trace::reindexDelivered(ProcessId p, Time t, const std::vector<MsgId>& seq) {
  std::vector<MsgId>& old = current_.at(p);
  // Per-message aggregates: detect presence/position changes.
  auto& stats = perMsg_.at(p);
  std::unordered_map<MsgId, std::size_t> newIndex;
  newIndex.reserve(seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) newIndex.emplace(seq[i], i);
  // Messages that disappeared.
  for (std::size_t i = 0; i < old.size(); ++i) {
    if (!newIndex.contains(old[i])) {
      auto it = stats.find(old[i]);
      WFD_ENSURE(it != stats.end());
      it->second.presentNow = false;
      it->second.lastChange = t;
    }
  }
  std::unordered_map<MsgId, std::size_t> oldIndex;
  oldIndex.reserve(old.size());
  for (std::size_t i = 0; i < old.size(); ++i) oldIndex.emplace(old[i], i);
  // Messages that appeared or moved.
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const MsgId m = seq[i];
    auto it = stats.find(m);
    if (it == stats.end()) {
      stats.emplace(m, MsgDeliveryStats{t, t, true});
      continue;
    }
    MsgDeliveryStats& s = it->second;
    auto oldIt = oldIndex.find(m);
    const bool moved = oldIt == oldIndex.end() || oldIt->second != i;
    if (!s.presentNow || moved) {
      s.presentNow = true;
      s.lastChange = t;
    }
  }
  repeats_.at(p) = seq.size() - newIndex.size();
  old = seq;
}

std::optional<MsgDeliveryStats> Trace::deliveryStats(ProcessId p, MsgId m) const {
  const auto& stats = perMsg_.at(p);
  auto it = stats.find(m);
  if (it == stats.end()) return std::nullopt;
  return it->second;
}

}  // namespace wfd

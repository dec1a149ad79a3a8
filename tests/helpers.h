// Shared test harness utilities.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "fd/detectors.h"
#include "sim/failure_pattern.h"
#include "sim/simulator.h"

namespace wfd::test {

/// Simulator with an Omega detector over the given pattern.
inline Simulator makeOmegaSim(SimConfig cfg, FailurePattern pattern,
                              Time stabilizeAt,
                              OmegaPreStabilization mode =
                                  OmegaPreStabilization::kSplitBrain) {
  auto omega = std::make_shared<OmegaFd>(pattern, stabilizeAt, mode);
  return Simulator(cfg, std::move(pattern), std::move(omega));
}

/// FNV-1a over 64-bit words (each folded little-endian, like the trace
/// digests). The commit-path stream pins fold what a replica observes —
/// every (p, t, d_i) change and every (p, t, committed length) — and
/// nothing that depends on wire weight.
struct StreamDigest {
  std::uint64_t value = kFnv64OffsetBasis;

  void fold(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      value ^= (w >> (8 * i)) & 0xffu;
      value *= kFnv64Prime;
    }
  }
  void fold(ProcessId p, Time t, const std::vector<MsgId>& seq) {
    fold(p);
    fold(t);
    fold(seq.size());
    for (MsgId id : seq) fold(id);
  }
  void fold(ProcessId p, Time t, std::uint64_t length) {
    fold(p);
    fold(t);
    fold(length);
  }
};

}  // namespace wfd::test

#pragma once

#include <cstdint>

#include "labels/marker.hpp"
#include "sim/protocol.hpp"
#include "sim/simulation.hpp"
#include "util/contract.hpp"

namespace ssmst {

/// Register of one Multi_Wave participant. Per-level progress is kept as
/// bitmasks over the at most ceil(log n)+1 levels — O(log n) bits.
struct MultiWaveState {
  bool global_wave = false;  ///< Multi_Wave(T, ...) received
  std::uint64_t echoed = 0;  ///< bit j: echo of Wave(F_j, j) sent
  std::uint64_t freed = 0;   ///< bit j: Wave_Free(F_j, j) received
  std::uint64_t ready = 0;   ///< naive variant: level completion convergecast
  std::uint32_t glevel = 0;  ///< naive variant: globally permitted level
};
SSMST_REGISTER_HEADER(MultiWaveState);

/// Result of one Multi_Wave execution.
struct MultiWaveResult {
  bool completed = false;
  SimulationStats sim;  ///< full engine accounting (activations, peak bits)
};

/// Runs the Multi_Wave primitive of Section 6.3.1 over the marked tree:
/// one Wave&Echo per fragment of every level of the hierarchy, where the
/// level-(j+1) echo at a node waits for the Free wave of its level-j
/// fragment. With `pipelined` (the paper's primitive) the per-level waves
/// overlap and the total ideal time is O(n) (Observation 6.8); without it,
/// a full-tree barrier separates levels and the time becomes Theta(n log n)
/// — the ablation the primitive exists to avoid.
MultiWaveResult run_multiwave(const MarkerOutput& marker,
                              bool pipelined = true);

}  // namespace ssmst

#pragma once

#include <optional>
#include <span>
#include <vector>

#include "sim/protocol.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace ssmst {

/// Picks distinct fault locations uniformly at random.
///
/// Contract: returns exactly `min(f, n)` distinct nodes — an oversized
/// request is *clamped*, never looped on and never padded with duplicates,
/// and `n == 0` yields an empty set. Callers that need to know how many
/// faults actually landed must use the returned vector's size, not `f`
/// (campaign storms request per-wave counts that can exceed small graphs).
std::vector<NodeId> pick_fault_nodes(NodeId n, std::size_t f, Rng& rng);

/// Applies the protocol's adversarial corruption to `f` random nodes of a
/// state vector. Returns the faulty node set.
///
/// Prefer the Simulation overload below when the registers live inside a
/// simulation: taking the whole vector via states() conservatively
/// re-enables all n nodes for the async activation queue, turning the
/// first post-fault unit into a full sweep.
template <typename State>
std::vector<NodeId> inject_faults(const Protocol<State>& proto,
                                  std::vector<State>& regs, std::size_t f,
                                  Rng& rng) {
  auto victims = pick_fault_nodes(static_cast<NodeId>(regs.size()), f, rng);
  for (NodeId v : victims) proto.corrupt(regs[v], v, rng);
  return victims;
}

/// Batch simulation-aware fault injection: corrupts exactly the given
/// victims, then enables all their closed neighbourhoods in one pass over
/// the list (Simulation::mutate_registers). The enabled set is identical
/// to per-victim state(v) calls — no blanket re-enable, no dense cutover —
/// so a k-fault storm on a quiescent instance wakes O(sum deg) nodes, not
/// n, and k calls' worth of bitmap bookkeeping collapses into one sweep.
/// Victims are corrupted in list order, so callers that pick victims with
/// the same Rng draw sequence get bit-identical registers either way.
template <typename State>
void inject_faults(const Protocol<State>& proto, Simulation<State>& sim,
                   std::span<const NodeId> victims, Rng& rng) {
  sim.mutate_registers(victims, [&](NodeId v, State& s) {
    proto.corrupt(s, v, rng);
  });
}

/// Simulation-aware fault injection: corrupts `f` random registers,
/// enabling exactly the victims and their neighbourhoods in the activation
/// queue (the activation-queue contract: a fault is a register write, and
/// only its closed neighbourhood can observe it). A single fault on a big
/// quiescent instance therefore wakes O(deg) nodes, not n — the sparse
/// post-stabilization detection case. Routed through the span overload,
/// so many-fault storms mark their neighbourhoods in one batch pass.
template <typename State>
std::vector<NodeId> inject_faults(const Protocol<State>& proto,
                                  Simulation<State>& sim, std::size_t f,
                                  Rng& rng) {
  auto victims = pick_fault_nodes(sim.graph().n(), f, rng);
  inject_faults(proto, sim, std::span<const NodeId>(victims), rng);
  return victims;
}

// ---- Aux-state fault injectors (total-state fault model) -------------------
//
// KKM11 promises recovery from arbitrary transient corruption of ALL memory,
// so the adversary must also reach the simulator's own bookkeeping: dirty
// bitmaps, pending queues, staleness stamps, label headers. These wrappers
// turn Simulation's raw aux_* corruption surface into batch,
// deterministically seeded injectors matching the register-fault
// layer above: victims chosen by pick_fault_nodes under an index-derived
// seed reproduce bit-identically across runs and layouts.

/// Drops the victims' pending-queue entries. clear_bits=true is the
/// *consistent* drop (bit and entry both gone — invisible to any local
/// invariant, the starvation fault the watchdog exists for);
/// clear_bits=false leaves dangling dirty bits that audit() reports as
/// enabled_not_queued. Returns how many entries were actually removed
/// (victims that were not pending are no-ops).
template <typename State>
std::size_t aux_drop_pending(Simulation<State>& sim,
                             std::span<const NodeId> victims,
                             bool clear_bits) {
  std::size_t dropped = 0;
  for (NodeId v : victims) dropped += sim.aux_drop_pending(v, clear_bits);
  return dropped;
}

/// Appends duplicate pending entries for every currently queued victim
/// (audit() reports duplicate_queue_entries). Returns duplicates added.
template <typename State>
std::size_t aux_duplicate_pending(Simulation<State>& sim,
                                  std::span<const NodeId> victims) {
  std::size_t added = 0;
  for (NodeId v : victims) added += sim.aux_duplicate_pending(v);
  return added;
}

/// Overwrites the victims' staleness stamps with `stamp`. Pair with
/// skewed_stamp() to land strictly ahead of the engine clock — the skew
/// audit() reports and the kAdversarial daemon mis-sorts on.
template <typename State>
void aux_skew_stamps(Simulation<State>& sim, std::span<const NodeId> victims,
                     std::uint32_t stamp) {
  for (NodeId v : victims) sim.aux_skew_stamp(v, stamp);
}

/// A stamp value strictly ahead of an engine clock of `now` by `lead`
/// units, saturating below the kNever sentinel (UINT32_MAX) so the skew
/// stays distinguishable from "never activated".
std::uint32_t skewed_stamp(std::uint64_t now, std::uint32_t lead);

/// Silent register mutation: applies `fn(v, reg)` through the
/// aux_corrupt_register backdoor — no queue enabling — modelling a fault
/// that strikes a register while the bookkeeping that would have noticed
/// was itself corrupted. The fault the kArenaTruncate campaign class uses
/// to shrink label headers unseen.
template <typename State, typename Fn>
void aux_silent_mutate(Simulation<State>& sim, std::span<const NodeId> victims,
                       Fn&& fn) {
  for (NodeId v : victims) fn(v, sim.aux_corrupt_register(v));
}

/// Seeded scramble of the victims' queue bookkeeping: per victim, one of
/// {consistent drop, bit-dangling drop, duplicate} chosen by `rng`.
/// Deterministic under the campaign's index-derived seeds. Returns the
/// number of mutations that landed.
template <typename State>
std::size_t aux_scramble_queue(Simulation<State>& sim,
                               std::span<const NodeId> victims, Rng& rng) {
  std::size_t landed = 0;
  for (NodeId v : victims) {
    switch (rng.below(3)) {
      case 0:
        landed += sim.aux_drop_pending(v, /*clear_bit=*/true);
        break;
      case 1:
        landed += sim.aux_drop_pending(v, /*clear_bit=*/false);
        break;
      default:
        landed += sim.aux_duplicate_pending(v);
        break;
    }
  }
  return landed;
}

/// Detection distance (Section 2.4): for each faulty node, the hop distance
/// to the nearest node that raised an alarm; the scheme's detection distance
/// is the maximum over faulty nodes. Returns nullopt when faults exist but
/// no node alarmed — there is no distance to report, and the old UINT32_MAX
/// sentinel used to leak into medians and --json aggregates as a plain
/// number. Undetected runs must be counted separately (an explicit
/// `detected=false`), never folded into distance statistics.
std::optional<std::uint32_t> detection_distance(
    const WeightedGraph& g, const std::vector<NodeId>& faulty,
    const std::vector<NodeId>& alarming);

}  // namespace ssmst

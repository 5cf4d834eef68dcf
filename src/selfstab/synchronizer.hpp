#pragma once

#include <cstdint>
#include <vector>

#include "sim/protocol.hpp"
#include "sim/simulation.hpp"
#include "util/contract.hpp"

namespace ssmst {

/// Two-slot alpha-synchronizer (the self-stabilizing synchronizer slot of
/// Section 10, cf. [10,11]): wraps a protocol written for lock-step rounds
/// and executes it under an asynchronous daemon with constant overhead.
///
/// Each register carries the inner state after the current pulse (`cur`)
/// and after the previous one (`prev`). A node at pulse k executes inner
/// round k as soon as every neighbour reached pulse k, reading each
/// neighbour's round-k state from `cur` (neighbour at pulse k) or `prev`
/// (neighbour already at k+1). Neighbouring pulses never differ by more
/// than one, so the two slots always suffice.
template <typename Inner>
struct SynchronizedState {
  std::uint64_t pulse = 0;
  Inner cur;
  Inner prev;
};
// A synchronized register is a flat header exactly when the inner one is
// (rule R5): the wrapper adds only a counter and two inner copies, so it
// must never be the reason the memcpy contract breaks.
template <typename Inner>
inline constexpr bool synchronized_state_is_flat =
    !std::is_trivially_copyable_v<Inner> ||
    std::is_trivially_copyable_v<SynchronizedState<Inner>>;
static_assert(synchronized_state_is_flat<int>);

/// Start registers of a synchronized run: every node at pulse 0 with both
/// slots holding its inner initial state.
template <typename Inner>
std::vector<SynchronizedState<Inner>> synchronized_initial_states(
    const std::vector<Inner>& inner) {
  std::vector<SynchronizedState<Inner>> init(inner.size());
  for (std::size_t v = 0; v < inner.size(); ++v) {
    init[v].cur = inner[v];
    init[v].prev = inner[v];
  }
  return init;
}

template <typename Inner>
class Synchronizer final : public Protocol<SynchronizedState<Inner>> {
 public:
  using State = SynchronizedState<Inner>;

  Synchronizer(const WeightedGraph& g, Protocol<Inner>& inner)
      : g_(&g), inner_(&inner), locals_(g.n()) {}

  // Snapshots every neighbour's round-k register into per-protocol scratch
  // before the inner step — buffered simulation by design, not a pinned
  // zero-alloc path (the zero-alloc contract covers the direct engines).
  SSMST_ALLOC_OK void step(NodeId v, State& self,
                           const NeighborReader<State>& nbr,
                           std::uint64_t) override {
    // Execute the next inner round once all neighbours caught up.
    for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
      if (nbr.at_port(p).pulse < self.pulse) return;
    }
    // Snapshot the neighbours' round-k states.
    snapshot_.clear();
    snapshot_.reserve(nbr.degree());
    for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
      const State& u = nbr.at_port(p);
      snapshot_.push_back(u.pulse == self.pulse ? u.cur : u.prev);
    }
    // Run the inner step against a local register view. Only the entries
    // for v and its neighbours are written; the reader touches no others.
    locals_[v] = self.cur;
    for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
      locals_[g_->half_edge(v, p).to] = snapshot_[p];
    }
    NeighborReader<Inner> inner_nbr(*g_, locals_, v);
    Inner next = self.cur;
    inner_->step(v, next, inner_nbr, self.pulse);
    self.prev = self.cur;
    self.cur = next;
    ++self.pulse;
  }

  /// Activation-queue change test (exact): the wrapper writes the register
  /// iff it executes a pulse (the early return leaves it untouched), and a
  /// pulse always increments `pulse`. Nodes blocked on a lagging neighbour
  /// are therefore quiescent until that neighbour's register changes.
  SSMST_HOT_PATH bool step_changed(NodeId v, State& self,
                                   const NeighborReader<State>& nbr,
                                   std::uint64_t time) override {
    const std::uint64_t before = self.pulse;
    this->step(v, self, nbr, time);
    return self.pulse != before;
  }

  /// Forwarded arena hooks: a synchronized register buffers TWO inner
  /// registers, and if the inner protocol's states hold stripe views
  /// (striped-arena labels), both copies must be rebound onto this
  /// simulation's private storage — otherwise cur/prev would keep aliasing
  /// the install source (the marker's pristine labels) and every write
  /// would leak through. The inner hook expects a flat vector, so the two
  /// slots are packed, cloned, and unpacked around one inner call.
  std::shared_ptr<void> adopt_register_file(std::vector<State>& regs) override {
    std::vector<Inner> flat;
    flat.reserve(2 * regs.size());
    for (const State& s : regs) {
      flat.push_back(s.cur);
      flat.push_back(s.prev);
    }
    auto token = inner_->adopt_register_file(flat);
    for (std::size_t i = 0; i < regs.size(); ++i) {
      regs[i].cur = flat[2 * i];
      regs[i].prev = flat[2 * i + 1];
    }
    return token;
  }

  std::size_t state_bits(const State& s, NodeId v) const override {
    // Pulse counters are bounded by the wrapped protocol's running time.
    return 2 * inner_->state_bits(s.cur, v) + 32;
  }

  std::size_t state_phys_bytes(const State& s) const override {
    return sizeof(State) - 2 * sizeof(Inner) +
           inner_->state_phys_bytes(s.cur) + inner_->state_phys_bytes(s.prev);
  }

  /// Type-valid corruption forwards to the wrapped protocol for both
  /// buffered copies (they need not agree after a fault) and randomizes the
  /// pulse, so neighbouring pulses can disagree by more than the one step
  /// the synchronizer normally maintains.
  void corrupt(State& s, NodeId v, Rng& rng) const override {
    inner_->corrupt(s.cur, v, rng);
    inner_->corrupt(s.prev, v, rng);
    s.pulse = rng.below(1u << 20);
  }

 private:
  const WeightedGraph* g_;
  Protocol<Inner>* inner_;
  // Scratch buffers (per-protocol, not per-node state).
  std::vector<Inner> snapshot_;
  std::vector<Inner> locals_;
};

}  // namespace ssmst

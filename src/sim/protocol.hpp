#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace ssmst {

/// Read-only view of neighbours' public registers, as seen by one node
/// during one activation. The paper's "ideal time" model (Section 2.1):
/// a node reads *all* of its neighbours within a single time unit.
///
/// Backed directly by the CSR adjacency span plus the raw register array,
/// so every port access is one contiguous load — no per-read indirection
/// through the graph object.
template <typename State>
class NeighborReader {
 public:
  NeighborReader(const WeightedGraph& g, const std::vector<State>& regs,
                 NodeId self)
      : links_(g.neighbors(self)), regs_(regs.data()), self_(self) {}

  NodeId self() const { return self_; }

  std::uint32_t degree() const {
    return static_cast<std::uint32_t>(links_.size());
  }

  /// Register of the neighbour behind local port `port`.
  const State& at_port(std::uint32_t port) const {
    return regs_[links_[port].to];
  }

  /// Static link information for port `port`.
  const HalfEdge& link(std::uint32_t port) const { return links_[port]; }

 private:
  std::span<const HalfEdge> links_;
  const State* regs_;
  NodeId self_;
};

/// A distributed protocol in the register model: per-node state (the public
/// register) plus a step function executed on each activation. The engine
/// drives it through two hooks only: `step` (every sync round) and
/// `step_changed` (every async unit — the activation-queue daemon);
/// everything else is metadata — register adoption, sizes, alarms, audits
/// and corruption.
///
/// Protocols must be written so that `step` only reads the provided
/// neighbour view and its own state — that is exactly the locality the
/// model grants.
///
/// Thread-safety contract (parallel sync rounds): when a Simulation has a
/// thread pool attached, `step` for *distinct* nodes of the same round
/// runs concurrently. The locality rule above is therefore also
/// the concurrency rule — an activation must be pure with respect to every
/// other node's register: it may read the (immutable, round-t) neighbour
/// view and its own previous state, and write only its own next state. In
/// addition it must not mutate protocol-object or global state without
/// internal synchronization; out-of-band side channels (e.g. alarm or
/// activity traces) must be guarded by a mutex and must tolerate
/// unspecified append order within a round. `state_bits` and `alarmed`
/// are called concurrently on freshly written states and must be safe as
/// const calls. Protocols that follow the locality rule and keep `step`
/// free of unsynchronized member writes satisfy the contract for free.
/// The one exception is `Synchronizer` (selfstab/synchronizer.hpp): its
/// step writes shared scratch, so a synchronized simulation runs as one
/// shard, without a pool.
///
/// The same contract extends to parallel *async* drains (the sharded-drain
/// engine in sim/simulation.hpp): `step_changed` for distinct drained
/// nodes may run concurrently, but only for nodes that are pairwise
/// NON-adjacent — the engine's conflict epochs guarantee no activation
/// ever reads a neighbour register that a concurrent activation is
/// writing, so in-place stepping needs no per-register synchronization
/// beyond the locality rule. What a protocol must still guarantee:
///  * `step_changed` must not mutate protocol-object or global state
///    without internal synchronization (same as `step` above); mutexed
///    side channels must tolerate unspecified append order *within one
///    drained unit* (the epoch interleaving is scheduling-dependent even
///    though the register outcome is not).
///  * The default `step_changed` (snapshot + step + compare) composes with
///    this automatically; overrides that report "changed" from internal
///    caches must make those caches per-node.
///
/// Register layout contract (the striped-arena register file): a `State`
/// is one contiguous, trivially-copyable block — by-value scalars and
/// fixed-size arrays, and for variable-length payload *stripe views*:
/// (offset, length) headers into a per-simulation LabelArena sized to the
/// live content (labels/arena.hpp), never heap containers. Copying a register is still a single flat
/// memcpy, but the memcpy transfers the header only — every copy of one
/// node's register aliases that node's single stripe payload. The rules
/// that make this sound:
///  * step functions never write stripe content (it is step-invariant
///    proof payload); they read it through borrowed views and write only
///    the inline block, so front/back buffer copies sharing a payload can
///    never disagree about it;
///  * external writes to stripe content (fault injection, tests) go
///    through Simulation::state(v)/states(), whose queue re-enabling
///    treats any such access as a full register write — the shared
///    payload makes the write visible through both buffers at once, and
///    every sync round re-seeds the back buffer from the front one;
///  * a register file adopted by a Simulation owns its payload privately:
///    the engine calls adopt_register_file() at construction and the
///    protocol clones the stripes into a pooled per-simulation arena, so
///    two simulations (or a simulation and the pristine marker labels)
///    never share mutable payload;
///  * the generic trivially-copyable byte-compare in step_changed sees the
///    header only — exact for protocols honouring the first rule; a
///    protocol whose step *does* write stripe content must override
///    step_changed with a stripe-aware test.
/// Steady-state sync rounds and async units perform zero heap allocations
/// (asserted for the verifier by tests/test_alloc_free.cpp): views are
/// borrowed, arena slabs are pooled and recycled across installs, and
/// nothing on the per-activation path touches the allocator. VerifierState
/// static_asserts the trivially-copyable half of the contract; new
/// register types should do the same.
template <typename State>
class Protocol {
 public:
  virtual ~Protocol() = default;

  /// One activation of node v, in place. In a sync round `self` is the
  /// node's slot in the back buffer, freshly seeded with its round-t
  /// register (one flat copy), while the neighbour view shows the round-t
  /// front buffer; in an async unit `self` is the live register. `time`
  /// is the current global time unit; self-stabilizing protocols must not
  /// rely on it for correctness (it is exposed for the non-self-
  /// stabilizing construction algorithms, whose model permits
  /// synchronized wake-up, and for tracing).
  virtual void step(NodeId v, State& self, const NeighborReader<State>& nbr,
                    std::uint64_t time) = 0;

  /// One *asynchronous* activation of node v, returning whether the
  /// activation changed the register. This is the hook the activation-queue
  /// daemon (Simulation::async_unit) drives: a node whose step provably
  /// left its register untouched is removed from the queue until its own or
  /// a neighbour's register changes again, so quiescent regions cost
  /// nothing per time unit.
  ///
  /// Contract: the call must be observationally identical to `step` (same
  /// register afterwards). The returned flag may over-approximate — "true"
  /// for an unchanged register only wastes re-activations — but must never
  /// under-approximate: returning false for a changed register breaks the
  /// weakly-fair schedule (neighbours would miss the change) and with it
  /// the equivalence to the classic every-node-every-unit daemon.
  ///
  /// The default detects changes generically: a byte copy + compare for
  /// flat (trivially copyable) registers, operator== where one exists, and
  /// a conservative "always changed" for anything else — which degrades to
  /// the classic every-node-every-unit daemon, never to a wrong schedule.
  /// Protocols that know their own write set override this with a cheaper
  /// exact test (e.g. the verifier: sticky alarms make alarmed nodes
  /// quiescent, every live node advances a timer).
  ///
  /// Caveat — time-gated protocols: a register compare observes what this
  /// step wrote, not what a step at a *later* time would write, so the
  /// compare-based defaults under-approximate for protocols whose step
  /// gates writes on the `time` argument (the non-self-stabilizing
  /// construction algorithms: SYNC_MST phase windows, GHS). Such protocols
  /// must not be driven by the queue daemon directly: run them under the
  /// synchronizer wrapper (whose pulse, not global time, is the clock —
  /// its step_changed is exact) as the transformer does, or override
  /// step_changed to return true while the clock can still enable a
  /// future write. Self-stabilizing protocols are unaffected: the model
  /// already forbids them from relying on `time`.
  virtual bool step_changed(NodeId v, State& self,
                            const NeighborReader<State>& nbr,
                            std::uint64_t time) {
    if constexpr (std::is_trivially_copyable_v<State> &&
                  std::is_default_constructible_v<State>) {
      State before;
      std::memcpy(static_cast<void*>(&before),
                  static_cast<const void*>(&self), sizeof(State));
      step(v, self, nbr, time);
      return std::memcmp(static_cast<const void*>(&before),
                         static_cast<const void*>(&self),
                         sizeof(State)) != 0;
    } else if constexpr (std::equality_comparable<State> &&
                         std::is_copy_constructible_v<State>) {
      const State before(self);
      step(v, self, nbr, time);
      return !(self == before);
    } else {
      step(v, self, nbr, time);
      return true;  // undetectable: stay permanently enabled (full sweep)
    }
  }

  /// Takes ownership of a freshly installed register file on behalf of one
  /// Simulation. Protocols whose registers hold stripe views into shared
  /// storage (the striped-arena label layout) override this to rebind
  /// `regs` onto simulation-private storage — clone every stripe into a
  /// pooled arena and return it as the opaque ownership token, which the
  /// Simulation keeps alive for its whole lifetime (and releases back to
  /// the pool at destruction). Called exactly once, from the Simulation
  /// constructor, before any accounting touches the states. Default: the
  /// registers own everything by value already — nothing to do.
  virtual std::shared_ptr<void> adopt_register_file(
      std::vector<State>& /*regs*/) {
    return nullptr;
  }

  /// Semantic size of the state in bits: the register's content charged
  /// at the field widths the paper's O(log n)-bit memory bound counts (ids
  /// and weights at log-size, ports at log(degree), counters at their
  /// range), independent of how the struct is laid out in memory.
  virtual std::size_t state_bits(const State& s, NodeId v) const = 0;

  /// Whether the node is currently raising an alarm ("output no").
  virtual bool alarmed(const State& /*s*/) const { return false; }

  /// Structural register audit (the total-state fault model's
  /// Simulation::audit() calls this once per node): returns true iff the
  /// register is structurally sound — every stripe-view header addresses
  /// memory inside its arena's allocation and every live length respects
  /// its install-time capacity contract. This is a *structure* check, not
  /// a semantics check: a register may be structurally sound yet carry a
  /// corrupted value the protocol itself must detect (that is the
  /// protocol's own job); conversely a structurally unsound register —
  /// e.g. a label header whose offsets or lengths were corrupted past its
  /// arena slice — can misdirect reads before any protocol check runs,
  /// which is why the auditor screens it out-of-band. Must be cheap
  /// (O(register)), const-safe and allocation-free. Default: registers
  /// that own everything by value have no structure to audit.
  virtual bool audit_state(const State& /*s*/, NodeId /*v*/) const {
    return true;
  }

  /// Adversarial corruption: replace the state by an arbitrary *type-valid*
  /// value drawn from `rng`. Only the protocol knows which bit patterns are
  /// type-valid for its register (ports must stay in range or kNoPort,
  /// stripe views must keep their arena coordinates), so every protocol
  /// that participates in fault injection MUST override this. The default
  /// fails loudly: the old value-initializing default made campaigns
  /// against a protocol that forgot to override report vacuous "detections"
  /// of a barely-perturbed (or, for zero-initialized states, untouched)
  /// register. Tests pin the throw and the per-protocol override coverage
  /// (tests/test_campaign_fuzz.cpp).
  virtual void corrupt(State& /*s*/, NodeId /*v*/, Rng& /*rng*/) const {
    throw std::logic_error(
        "Protocol::corrupt not overridden: fault injection would be a "
        "silent near-no-op; implement randomized type-valid corruption");
  }
};

}  // namespace ssmst

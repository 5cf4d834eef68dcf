#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "sim/protocol.hpp"
#include "util/contract.hpp"
#include "util/thread_pool.hpp"

namespace ssmst {

/// Activation order within one asynchronous time unit. With the activation
/// queue these are queue *disciplines*: they fix the relative order in
/// which the unit's enabled set is drained (and coincide with the classic
/// full-permutation daemons when every node is enabled).
enum class DaemonOrder {
  kRandom,      ///< shuffled drain (weakly fair random daemon)
  kRoundRobin,  ///< ascending index drain
  kReverse,     ///< descending index drain (adversarial-flavoured)
  kAdversarial, ///< stale-first drain: longest-unactivated nodes first, so
                ///< the freshest information propagates as late as possible
                ///< — the worst-case schedule for detection latency
};

/// How async_unit executes a drained unit when a thread pool is attached.
/// Both modes produce bit-identical registers, alarms and scheduling (see
/// the sharded-drain contract in Simulation); the switch only picks the
/// execution strategy. Without a pool every drain runs on the calling
/// thread — the sequential reference the parallel path is pinned to.
enum class AsyncDrain {
  kAuto,        ///< parallel when a pool is attached and the drain is large
                ///< enough to amortize the fork-join barriers (default)
  kParallel,    ///< force the sharded path even for tiny drains — the mode
                ///< the equivalence tests and TSan runs use so small graphs
                ///< still exercise real cross-thread stepping
};

/// Aggregate accounting for one simulation, maintained incrementally so
/// every query is O(1). This is the single metrology surface consumed by
/// verify/metrology.cpp, selfstab/transformer.cpp and the benches —
/// protocols and harnesses should not keep parallel ad-hoc counters. It
/// holds only scalars, so a copy never allocates, and every field except
/// cross_shard_deferrals reads the same at every pool width.
struct SimulationStats {
  std::uint64_t time = 0;         ///< current logical time
  std::uint64_t rounds = 0;       ///< synchronous rounds executed
  std::uint64_t units = 0;        ///< asynchronous units executed
  /// Daemon schedulings: nodes handed an activation. Synchronous rounds add
  /// n; asynchronous units add only the drained enabled set.
  std::uint64_t activations = 0;
  /// Activations whose step actually changed the register. Tracked only by
  /// asynchronous units (where the change test already runs for the dirty
  /// bookkeeping); synchronous rounds leave it untouched rather than guess.
  /// activations minus effective_steps is the daemon's wasted work — the
  /// quantity the activation queue drives to zero.
  std::uint64_t effective_steps = 0;
  std::uint64_t epoch = 0;        ///< time of the last alarm-history reset
  std::optional<std::uint64_t> first_alarm;  ///< earliest alarm since epoch
  std::uint64_t alarmed_nodes = 0;  ///< nodes alarmed since epoch
  std::size_t peak_bits = 0;        ///< running max register size, in bits
  /// Parallel-drain activations deferred out of the conflict-free interior
  /// epoch 0 (see the sharded-drain contract in Simulation): drained nodes
  /// with an earlier-in-discipline-order drained neighbour, i.e. the part
  /// of a drain that cannot run in the first concurrent wave. Counted only
  /// by parallel drains; the sequential path leaves it 0.
  std::uint64_t cross_shard_deferrals = 0;
  /// Total-state fault model (the invariant auditor + watchdog layer; see
  /// the Simulation class comment): audit passes run, violations they
  /// found, and watchdog repairs applied. All zero unless audit() is
  /// called or a watchdog is armed, so schedule-equivalence stats
  /// comparisons are unaffected by default.
  std::uint64_t audits = 0;
  std::uint64_t audit_violations = 0;
  std::uint64_t repairs = 0;

  /// Time units from the last epoch (construction or alarm-history reset)
  /// to the first alarm — the detection latency of the current experiment.
  std::optional<std::uint64_t> alarm_latency() const {
    if (!first_alarm) return std::nullopt;
    return *first_alarm - epoch;
  }

  friend bool operator==(const SimulationStats&,
                         const SimulationStats&) = default;
};
static_assert(std::is_trivially_copyable_v<SimulationStats>);

/// Structured result of one Simulation::audit() pass over the engine's
/// *auxiliary* state (the total-state fault model; see the Simulation
/// class comment). Each counter is one invariant class; `suspects` names
/// up to kMaxSuspects implicated nodes for diagnostics. The report is the
/// only allocation an audit makes (its scratch is a lazily sized member),
/// and a reused report re-audits allocation-free once its suspects vector
/// capacity is warm.
struct AuditReport {
  /// Caps `suspects` so a mass corruption cannot turn a report into an
  /// O(n) allocation; the counters always reflect the full damage.
  static constexpr std::size_t kMaxSuspects = 32;

  std::uint64_t time = 0;           ///< stats.time at audit
  std::uint64_t checked_nodes = 0;  ///< nodes swept (== n)
  /// Queue <-> bitmap consistency: enabled_[v] must be set iff v holds
  /// exactly one pending-queue entry. An entry naming no node at all
  /// counts as queued_not_enabled.
  std::uint32_t enabled_not_queued = 0;   ///< dirty bit set, no queue entry
  std::uint32_t queued_not_enabled = 0;   ///< queue entry, dirty bit clear
  std::uint32_t duplicate_queue_entries = 0;  ///< extra entries per node
  /// Staleness stamps claiming activations from the future: last_step_ or
  /// the full-drain floor ahead of the engine clock (modulo the legal
  /// kNever sentinel).
  std::uint32_t stamp_violations = 0;
  /// Registers failing Protocol::audit_state — structurally unsound
  /// headers (e.g. label arena offsets/lengths out of bounds, live length
  /// under the install capacity).
  std::uint32_t register_violations = 0;
  std::vector<NodeId> suspects;  ///< implicated nodes, first kMaxSuspects

  std::uint64_t total_violations() const {
    return std::uint64_t{enabled_not_queued} + queued_not_enabled +
           duplicate_queue_entries + stamp_violations + register_violations;
  }
  bool ok() const { return total_violations() == 0; }
};

/// Executes a Protocol over a WeightedGraph under either scheduler and
/// tracks alarms, elapsed time and the running maximum register size.
///
/// Shards: the nodes are split into contiguous CSR ranges, one per lane of
/// the pool given at construction, with boundaries balanced by half-edge
/// count (`compute_shards`); the layout never changes afterwards. Without
/// a pool (or with a one-lane pool) there is exactly one shard holding
/// every node. The serial engine is that one-shard case: it runs
/// the same sweep and drain code as the sharded engine, minus the pool
/// dispatch. The pending queue, the re-enable marking and the audit do not
/// depend on the shard layout at all.
///
/// Synchronous semantics: in `sync_round` every node computes its next
/// state from the *previous* round's registers (lock-step). The round is
/// double-buffered: each node's register is copied from the front buffer
/// (`regs_`) into the back buffer (`scratch_`) and stepped there in place
/// by Protocol::step, which reads neighbours from the front buffer only;
/// the buffers are swapped at the end of the round, so there is no bulk
/// register-file copy. Accounting is folded into the same pass, so one
/// round makes exactly one sweep over the registers.
///
/// Asynchronous semantics: `async_unit` is event-driven. The engine keeps a
/// per-node dirty bitmap plus a pending queue of *enabled* nodes; one unit
/// drains the queue in daemon-discipline order, each drained node reading
/// current (mixed) registers — a weakly fair central daemon in which one
/// unit is one "ideal time" unit.
///
/// Activation-queue contract (when must a node be enabled/dirty):
///  * at construction every node is enabled ("round 0 seeds all nodes");
///  * when an activation changes a node's register, the node itself and
///    all of its neighbours are enabled for the *next* unit (they read it);
///  * `state(v)` (non-const) enables v's closed neighbourhood — the
///    targeted hook fault injection uses (see sim/faults.hpp);
///  * `states()` (non-const, whole file) and every completed `sync_round`
///    conservatively re-enable all nodes: the engine cannot know what
///    changed;
///  * a node whose activation provably changed nothing (Protocol::
///    step_changed) leaves the queue until one of the rules above re-adds
///    it;
///  * enabling may over-approximate but never under-approximate: when a
///    unit changed >= 1/4 of all registers the engine re-enables everyone
///    wholesale instead of marking neighbourhoods (the next unit is a
///    near-full sweep either way; skipping the bit traffic keeps dense
///    units close to the cost of a plain every-node sweep).
/// A node enabled during unit t is activated in unit t+1, so every enabled
/// node is activated at most one unit after becoming enabled — the weakly
/// fair contract, preserved exactly. A quiescent or sparsely active unit
/// therefore costs O(active + touched neighbourhoods), not O(n). A
/// deterministic protocol's unchanged-input re-step is a no-op, so the
/// queue differs from the classic every-node-per-unit daemon only in when
/// a change is seen: the classic daemon steps every node every unit, so a
/// node sees a neighbour's change from earlier in the same unit at once;
/// the queue steps that node one unit later unless it was already
/// enabled. Where that never happens (dense units; the verifier, whose
/// live nodes change on every step and whose alarmed nodes never do) the
/// register trajectories are identical; elsewhere (a sparse reset wave)
/// they are two different weakly fair schedules. The classic daemon needs
/// no engine code of its own: a protocol whose step_changed always
/// reports a change trips the dense cutover every unit, so the queue
/// re-enables and drains all n nodes each unit. tests/full_sweep.hpp
/// wraps any protocol that way, and tests/test_async_queue.cpp pins the
/// queue against it.
///
/// Parallel synchronous rounds: with several shards, `sync_round` steps
/// each shard into the back buffer concurrently and reduces the per-shard
/// accounting deltas at the barrier in shard-index order. Because every
/// shard reads only the round-t front buffer and writes only its own slice
/// of the back buffer, and because within one round every alarm carries
/// the same stamp, the resulting registers *and* the full SimulationStats
/// are bit-identical to the one-shard sweep at any thread count. Protocols
/// driven this way must honour the thread-safety contract in protocol.hpp.
///
/// Sharded asynchronous drains (the parallel async engine): there is one
/// pending queue at every pool width, and enqueueing, claiming and
/// post-drain marking run on the calling thread. With several shards
/// `async_unit` can execute the drained unit concurrently, under a
/// determinism guarantee:
///
///  * Conflict epochs. Two drained activations commute iff the nodes are
///    non-adjacent (a step reads only the closed neighbourhood and writes
///    only its own register — protocol.hpp's locality contract). A serial
///    classification pass over the drain in discipline order pi assigns
///    epoch(v) = 1 + max{epoch(u) : u drained, u adjacent to v, pi(u) <
///    pi(v)} (0 when there is no such u). Epochs execute in order with a
///    pool barrier between them; within an epoch no two nodes are adjacent,
///    so they may step concurrently in any interleaving.
///  * Determinism. Adjacent drained pairs retain their exact discipline
///    order across epochs and non-adjacent pairs commute, so the parallel
///    drain is bit-identical to the sequential drain — registers, alarms,
///    stats and the next unit's enabled set — for every DaemonOrder
///    (including kAdversarial's stale-first stamps) at every thread count:
///    the epoch structure is a function of the discipline order and the
///    graph alone, never of the pool width. Pinned by
///    tests/test_async_queue.cpp across 1/2/4/7 threads.
///  * Epoch 0 is the lock-free interior (typically the vast majority of a
///    sparse fault storm: conflicts require *adjacent* simultaneous
///    activations); later epochs are the deferred boundary work, counted
///    in SimulationStats::cross_shard_deferrals.
///  * Re-enable rules are unchanged: both drains end in the same tail,
///    which enables exactly the changed nodes' closed neighbourhoods
///    (dense change sets take the blanket re-enable). A fault injected
///    *between* units via state()/mutate lands in the pending queue and is
///    drained next unit exactly as in the sequential engine.
///  * `set_async_drain` picks between kAuto (parallel only when the drain
///    is large enough to amortize the barriers) and kParallel (forced).
///    Drains that stay on the calling thread — every drain of a one-shard
///    engine — are the sequential reference.
///  * Nested-pool rule: a drain borrows the same pool as sync rounds, and
///    ThreadPool is not re-entrant — do not drive async_unit from inside a
///    job running on that same pool (sim/batch.hpp spells out the
///    BatchRunner interplay: give sims their own pool or none).
/// Steady-state parallel units allocate nothing: the classification
/// scratch is sized once (lazily, on the first parallel drain) and every
/// pool task fits std::function's inline buffer (pinned by
/// tests/test_alloc_free.cpp).
///
/// Total-state fault model (the KKM guarantee is recovery from arbitrary
/// corruption of ALL memory, not just protocol registers — so the engine's
/// own auxiliary state is corruptible too):
///
///  * Fault surface. The aux_* methods model adversarial corruption of the
///    engine's bookkeeping: dirty-bit flips, pending-queue entry drops and
///    duplicates, staleness-stamp skew, and silent register writes that
///    bypass the queue-enabling bookkeeping entirely (sim/faults.hpp wraps
///    these into deterministic seeded injectors). They deliberately break
///    the invariants normal mutations maintain; the engine must never crash or
///    scribble out of bounds under them (the ASan CI job), but its
///    *schedule* may silently go wrong — that is the failure mode the
///    auditor and watchdog exist to bound.
///  * Invariant auditor. audit() sweeps the aux state and returns a
///    structured AuditReport: queue <-> bitmap consistency (enabled_[v]
///    iff exactly one queue entry), staleness stamps (and the full-drain
///    floor) never ahead of the engine clock, and per-register structural
///    soundness via Protocol::audit_state (label arena offset/length
///    bounds). Audits are O(n + pending), allocate only their report, and
///    count into SimulationStats::audits / audit_violations.
///  * Bounded-staleness watchdog + repair. set_watchdog(budget) arms a
///    fairness floor: whenever `budget` time units elapse since the last
///    watchdog window, the engine audits and then applies the trivially
///    correct repair — the round-0 reseed (re-enable every node, reset all
///    staleness stamps and the full-drain floor). The reseed is
///    unconditional on expiry: under the total-state model a clean audit
///    cannot certify quiescence (a consistently dropped queue entry — bit
///    cleared AND entry removed — is invisible to any local check), so the
///    blanket re-enable is what restores the weakly fair schedule within
///    one budget window no matter what the aux corruption hid. Every node
///    is therefore activated at least once per budget + 1 units —
///    detection latency of any register fault is bounded by budget + the
///    protocol's own detection bound. Repairs count into
///    SimulationStats::repairs. Damage in state the reseed cannot rewrite
///    (e.g. a structurally corrupt register) fails every trip's audit
///    (last_watchdog_report()); only the caller can rewrite those
///    registers, e.g. by re-marking the instance — VerificationService
///    quarantines such a tenant instead. The watchdog is off by default
///    (budget 0) and costs one predictable branch per round/unit when
///    off, so the zero-allocation and bit-identical-parallel pins are
///    unaffected unless armed.
template <typename State>
class Simulation {
 public:
  /// `pool` (optional, not owned; must outlive the simulation) fixes the
  /// shard layout for the simulation's lifetime: it shards the
  /// construction-time accounting pass, sync rounds and async drains.
  /// nullptr, like a one-lane pool, gives one shard. Results are
  /// bit-identical at every width.
  Simulation(const WeightedGraph& g, Protocol<State>& proto,
             std::vector<State> init, ThreadPool* pool = nullptr)
      : g_(&g),
        proto_(&proto),
        regs_(std::move(init)),
        scratch_(regs_.size()),
        alarm_time_(g.n(), kNever),
        enabled_(g.n(), 0),
        last_step_(g.n(), kNever32),
        pool_(pool) {
    // Rebind stripe-view registers onto simulation-private storage before
    // anything reads them; the token pins that storage for our lifetime.
    state_backing_ = proto.adopt_register_file(regs_);
    compute_shards();
    record_pass(/*stamp=*/0);
  }

  const WeightedGraph& graph() const { return *g_; }

  /// Selects the async drain execution strategy (see AsyncDrain). Purely a
  /// performance switch: every mode yields bit-identical results. kAuto
  /// (default) goes parallel only when a pool is attached and the drain is
  /// large enough to amortize the fork-join barriers.
  void set_async_drain(AsyncDrain mode) { async_drain_ = mode; }

  std::uint64_t time() const { return stats_.time; }
  const SimulationStats& stats() const { return stats_; }
  /// Mutable register access. Any non-const access may rewrite registers
  /// behind the engine's back, so it conservatively re-enables every node
  /// for the next async unit. Do NOT retain the returned reference across
  /// a sync_round: it dangles across the buffer swap — re-fetch per
  /// mutation instead.
  std::vector<State>& states() {
    enable_all_pending_ = true;
    return regs_;
  }
  const std::vector<State>& states() const { return regs_; }
  /// Single-register mutable access: enables only v's closed neighbourhood
  /// for the async queue — the targeted hook for point mutations (fault
  /// injection, probes that write one register). Read-only call sites
  /// should use cstate() instead.
  State& state(NodeId v) {
    mark_dirty(v);
    return regs_[v];
  }
  /// Read-only register access that never touches the activation queue
  /// (the const state() overload is unreachable through a non-const
  /// simulation reference — use this in probes).
  const State& cstate(NodeId v) const { return regs_[v]; }

  /// Enables node v and all of its neighbours for the next async unit.
  /// Call after mutating v's register through a retained reference; state(v)
  /// already calls it. O(deg v); duplicates are suppressed by the bitmap.
  void mark_dirty(NodeId v) {
    if (enable_all_pending_) return;  // superseded by a blanket re-enable
    enqueue(v);
    for (const HalfEdge& e : g_->neighbors(v)) enqueue(e.to);
  }

  /// Batch form of mark_dirty: enables the closed neighbourhoods of every
  /// listed node in one pass over the list (duplicates suppressed by the
  /// bitmap, so overlapping neighbourhoods cost nothing extra). Produces
  /// exactly the same enabled set as per-node mark_dirty calls — no dense
  /// cutover, no over-approximation — so multi-fault storms stay sparse
  /// and schedule-equivalence across injection styles is preserved.
  void mark_dirty(std::span<const NodeId> nodes) {
    if (enable_all_pending_) return;
    for (NodeId v : nodes) {
      enqueue(v);
      for (const HalfEdge& e : g_->neighbors(v)) enqueue(e.to);
    }
  }

  /// Batch register mutation: applies fn(v, register&) to every listed
  /// node, then enables all their closed neighbourhoods in one pass — the
  /// many-fault analogue of per-node state(v) access (sim/faults.hpp's
  /// span-taking inject_faults is the canonical caller).
  template <typename Fn>
  void mutate_registers(std::span<const NodeId> nodes, Fn&& fn) {
    for (NodeId v : nodes) fn(v, regs_[v]);
    mark_dirty(nodes);
  }

  /// True when no node is enabled: every further async unit is a no-op
  /// until a register mutation (or sync round) re-enables something. The
  /// queue-driven daemon's quiescence point.
  bool async_quiescent() const {
    return !enable_all_pending_ && pending_.empty();
  }

  /// One synchronous round: a single fused sweep that steps every node
  /// into the back buffer and records accounting on the fresh states,
  /// then swaps the buffers. With several shards the sweep runs on the
  /// pool (see the class comment); the result is bit-identical.
  SSMST_HOT_PATH void sync_round() {
    watchdog_poll();
    // Round context travels via members so the shard task fits
    // std::function's small-object buffer: a round allocates nothing.
    sweep_stamp_ = stats_.time + 1;
    each_shard([this](std::uint32_t s) { sweep_shard(s); });
    // Deterministic reduction: fold the shard deltas in shard order. All
    // alarms of one round share the stamp, so the merged stats are
    // independent of the shard layout.
    for (const SweepAcc& acc : shard_accs_) fold(acc, sweep_stamp_);
    regs_.swap(scratch_);
    // A lock-step round rewrote the whole register file; the async queue
    // cannot know what changed, so the next unit re-seeds every node.
    enable_all_pending_ = true;
    stats_.time = sweep_stamp_;
    ++stats_.rounds;
    stats_.activations += g_->n();
  }

  /// One asynchronous time unit: drains the enabled set (the nodes whose
  /// closed neighbourhood changed since their last activation) in daemon
  /// order, in place.
  SSMST_HOT_PATH void async_unit(Rng& rng,
                                 DaemonOrder order = DaemonOrder::kRandom) {
    watchdog_poll();
    const std::uint64_t stamp = stats_.time;
    // Claim the pending queue (nodes enabled before this unit; nodes
    // enabled mid-unit run next unit — weak fairness).
    take_enabled();
    // Both paths are bit-identical (the sharded-drain contract in the
    // class comment); the switch is purely an execution strategy.
    discipline(order, rng);
    if (use_parallel_drain()) {
      drain_parallel(stamp);
    } else {
      drain_sequential(stamp);
    }
    ++stats_.time;
    ++stats_.units;
  }

  /// Time of the earliest alarm seen so far, if any. O(1).
  std::optional<std::uint64_t> first_alarm_time() const {
    return stats_.first_alarm;
  }

  /// Per-node time of first alarm (nullopt = never alarmed so far).
  std::vector<std::optional<std::uint64_t>> alarm_times() const {
    std::vector<std::optional<std::uint64_t>> out(alarm_time_.size());
    for (std::size_t v = 0; v < alarm_time_.size(); ++v) {
      if (alarm_time_[v] != kNever) out[v] = alarm_time_[v];
    }
    return out;
  }

  std::vector<NodeId> alarmed_nodes() const {
    std::vector<NodeId> out;
    out.reserve(stats_.alarmed_nodes);
    for (NodeId v = 0; v < g_->n(); ++v) {
      if (alarm_time_[v] != kNever) out.push_back(v);
    }
    return out;
  }

  /// Clears alarm history (e.g. after re-marking) without touching states,
  /// and starts a new latency epoch at the current time.
  void reset_alarm_history() {
    std::fill(alarm_time_.begin(), alarm_time_.end(), kNever);
    stats_.first_alarm.reset();
    stats_.alarmed_nodes = 0;
    stats_.epoch = stats_.time;
  }

  // ---- Invariant auditor (total-state fault model; class comment) ----

  /// Sweeps the engine's auxiliary state and returns a structured report
  /// (see AuditReport for the invariant classes). O(n + pending); the
  /// report is the only allocation (scratch is a lazily sized member).
  /// Counts into stats().audits / audit_violations.
  AuditReport audit() {
    AuditReport r;
    audit_into(r);
    return r;
  }

  /// In-place audit for callers that reuse a report across passes (the
  /// watchdog trip path): once the report's suspects capacity is warm,
  /// repeated audits allocate nothing.
  SSMST_HOT_PATH void audit_into(AuditReport& r) {
    if (r.suspects.capacity() < AuditReport::kMaxSuspects) {
      // ssmst-lint: allow(R1): cold first-use ramp — capacity-guarded, so
      // warm reuse (the watchdog-trip path) never re-enters this branch.
      r.suspects.reserve(AuditReport::kMaxSuspects);
    }
    r.suspects.clear();
    run_audit(r);
    ++stats_.audits;
    stats_.audit_violations += r.total_violations();
  }

  // ---- Bounded-staleness watchdog + repair (class comment) ----

  /// Arms the watchdog: every `budget_units` time units the engine audits
  /// and applies the round-0 reseed repair (unconditionally — see the
  /// class comment for why a clean audit cannot certify quiescence under
  /// the total-state model). budget_units == 0 disarms. The budget
  /// should be derived from the instance's stabilization bound — wide
  /// enough that a healthy run quiesces well inside one window
  /// (verify/metrology.hpp's watchdog_budget_for gives the verifier's
  /// O(log^2 n) default).
  void set_watchdog(std::uint64_t budget_units) {
    watchdog_budget_ = budget_units;
    watchdog_window_start_ = stats_.time;
  }
  /// Report of the most recent watchdog-trip audit (valid after the first
  /// trip; tests read violation classes and suspects off it).
  const AuditReport& last_watchdog_report() const { return wd_report_; }

  // ---- Total-state fault surface (class comment; sim/faults.hpp wraps
  // these into deterministic seeded injectors). These methods MODEL
  // CORRUPTION of the engine's own auxiliary state: they deliberately
  // bypass the bookkeeping that keeps the activation queue and staleness
  // stamps sound, so the schedule may silently go wrong afterwards —
  // which is the point. Never call them outside fault experiments. ----

  /// Silent register access: returns the mutable register WITHOUT the
  /// queue enabling that states()/state(v) perform — a write through this
  /// reference is invisible to the event-driven engine, exactly like a
  /// transient fault striking memory between activations while the
  /// bookkeeping bits were also corrupted.
  State& aux_corrupt_register(NodeId v) { return regs_[v]; }
  /// Flips v's dirty bit without touching any queue (either direction
  /// breaks the queue <-> bitmap invariant; audit() reports it).
  void aux_flip_enabled_bit(NodeId v) { enabled_[v] ^= 1; }
  /// Removes one pending-queue entry for v. clear_bit=true also clears the
  /// dirty bit — the *consistent* drop that no local invariant can see
  /// (the starvation fault the watchdog's fairness floor exists for);
  /// clear_bit=false leaves the bit set, an auditable inconsistency.
  /// Returns whether an entry was removed.
  bool aux_drop_pending(NodeId v, bool clear_bit) {
    const auto it = std::find(pending_.begin(), pending_.end(), v);
    if (it == pending_.end()) return false;
    pending_.erase(it);
    if (clear_bit) enabled_[v] = 0;
    return true;
  }
  /// Appends a duplicate pending entry for an already-queued v (audit
  /// reports the duplicate; an un-audited engine would drain v twice in
  /// one unit). Returns false when v is not currently queued.
  bool aux_duplicate_pending(NodeId v) {
    if (!enabled_[v]) return false;
    pending_.push_back(v);
    return true;
  }
  /// Consistent drop of the ENTIRE pending set: clears the blanket
  /// re-enable flag, every dirty bit and every queue entry, leaving a
  /// spotless-looking quiescent engine that has forgotten whatever the
  /// entries were guarding. Returns the number of suppressed activations
  /// (n for a pending blanket). The aux-queue-drop campaign fault.
  std::size_t aux_suppress_pending() {
    std::size_t dropped = 0;
    if (enable_all_pending_) {
      enable_all_pending_ = false;
      dropped += g_->n();
    }
    for (NodeId v : pending_) enabled_[v] = 0;
    dropped += pending_.size();
    pending_.clear();
    return dropped;
  }
  /// Overwrites v's staleness stamp (a value ahead of the engine clock —
  /// "activated in the future" — is the auditable skew; it also makes the
  /// kAdversarial discipline treat v as maximally fresh).
  void aux_skew_stamp(NodeId v, std::uint32_t stamp) { last_step_[v] = stamp; }
  std::uint32_t aux_stamp(NodeId v) const { return last_step_[v]; }

  /// Snapshot of the currently pending nodes (ascending): the queued set,
  /// or all n under a pending blanket re-enable. Diagnostic/experiment
  /// helper — allocates; not for hot paths.
  std::vector<NodeId> pending_nodes() const {
    if (enable_all_pending_) {
      std::vector<NodeId> all(g_->n());
      std::iota(all.begin(), all.end(), NodeId{0});
      return all;
    }
    std::vector<NodeId> out = pending_;
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  static constexpr std::uint64_t kNever =
      std::numeric_limits<std::uint64_t>::max();
  static constexpr std::uint32_t kNever32 =
      std::numeric_limits<std::uint32_t>::max();
  /// Registers per sweep_shard seed chunk: about 16 KiB.
  static constexpr NodeId kSeedChunk =
      static_cast<NodeId>(std::max<std::size_t>(1, 16384 / sizeof(State)));

  /// Accounting delta of one sweep over a node range. Kept local to the
  /// sweeping thread and folded into `stats_` at the barrier, so the
  /// parallel path writes no shared counters inside the sweep.
  struct SweepAcc {
    std::size_t peak_bits = 0;
    std::uint64_t newly_alarmed = 0;
  };

  /// Computes the contiguous shard boundaries for the pool, once, from the
  /// constructor: balanced by half-edge count (+1 per node for the fixed
  /// per-activation cost), derived from the CSR degrees. One shard without
  /// a pool (or with a one-lane pool).
  void compute_shards() {
    const NodeId n = g_->n();
    const std::uint32_t shards =
        pool_ == nullptr
            ? 1
            : std::min<std::uint32_t>(pool_->threads(), std::max<NodeId>(n, 1));
    shard_starts_.assign(1, 0);
    if (shards > 1) {
      std::uint64_t total = n;
      for (NodeId v = 0; v < n; ++v) total += g_->degree(v);
      std::uint64_t acc = 0;
      NodeId v = 0;
      for (std::uint32_t s = 1; s < shards; ++s) {
        const std::uint64_t target = total * s / shards;
        while (v < n && acc < target) acc += 1 + g_->degree(v++);
        shard_starts_.push_back(v);
      }
    }
    shard_starts_.push_back(n);
    shard_accs_.assign(shards, SweepAcc{});
  }

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shard_starts_.size() - 1);
  }

  /// Runs fn(s) for every shard s: directly on the calling thread when
  /// there is one shard, across the pool otherwise. `fn` must fit
  /// std::function's small-object buffer so that neither path allocates.
  template <typename Fn>
  void each_shard(const Fn& fn) {
    if (shard_count() == 1) {
      fn(0);
    } else {
      pool_->run(shard_count(), fn);
    }
  }

  /// A node's effective last-activation stamp, +1 so the kNever32
  /// sentinel wraps to 0 (never-activated nodes are stalest). Full drains
  /// record one scalar floor instead of n per-node stores; a node's last
  /// activation is the later of its own stamp and that floor.
  std::uint32_t staleness_key(NodeId v) const {
    return std::max<std::uint32_t>(last_step_[v] + 1,
                                   full_drain_stamp_ + 1);
  }

  /// Adds v to the pending queue unless it is already there. O(1).
  void enqueue(NodeId v) {
    if (!enabled_[v]) {
      enabled_[v] = 1;
      pending_.push_back(v);
    }
  }

  /// Claims the enabled set into drain_ in ascending node order — the
  /// canonical base order the disciplines build on — and clears the
  /// pending queue and its dirty bits. A blanket re-enable materializes as
  /// a full iota. A dense queue is claimed by a bitmap scan, which yields
  /// the set bits in ascending order without a sort; drain_ grows by
  /// push_back because corrupted bookkeeping can leave more bits set than
  /// the queue holds entries. A sparse queue is sorted.
  void take_enabled() {
    if (enable_all_pending_) {
      enable_all_pending_ = false;
      // enabled_[v] is set iff v is queued, so clearing the queued bits
      // restores the all-clear invariant in O(pending), not O(n) — in
      // dense steady state the queue is empty and this is free.
      for (NodeId v : pending_) enabled_[v] = 0;
      pending_.clear();
      drain_.resize(g_->n());
      std::iota(drain_.begin(), drain_.end(), NodeId{0});
      return;
    }
    drain_.clear();
    if (pending_.size() * 16 >= g_->n()) {
      for (NodeId v = 0; v < g_->n(); ++v) {
        if (enabled_[v]) {
          enabled_[v] = 0;
          drain_.push_back(v);
        }
      }
    } else {
      std::sort(pending_.begin(), pending_.end());
      for (NodeId v : pending_) enabled_[v] = 0;
      drain_.assign(pending_.begin(), pending_.end());
    }
    pending_.clear();
  }

  /// Applies the daemon discipline to the ascending drain_. Starting from
  /// the canonical ascending order makes every discipline independent of
  /// queue insertion order, and bit-identical to the classic full
  /// permutation daemons whenever every node is enabled.
  void discipline(DaemonOrder order, Rng& rng) {
    switch (order) {
      case DaemonOrder::kRandom:
        rng.shuffle(drain_);
        break;
      case DaemonOrder::kRoundRobin:
        break;  // already ascending
      case DaemonOrder::kReverse:
        std::reverse(drain_.begin(), drain_.end());
        break;
      case DaemonOrder::kAdversarial:
        // Stale-first: longest-unactivated nodes run first, so every node
        // acts on the oldest neighbourhood information the schedule can
        // arrange. kNever+1 wraps to 0: never-activated nodes are stalest.
        std::sort(drain_.begin(), drain_.end(), [this](NodeId a, NodeId b) {
          const std::uint32_t sa = staleness_key(a);
          const std::uint32_t sb = staleness_key(b);
          return sa != sb ? sa < sb : a < b;
        });
        break;
    }
  }

  /// Whether this unit's drain runs on the pool. Requires several shards;
  /// kAuto additionally requires the drain to be large enough that the
  /// stepping work amortizes the epoch barriers.
  bool use_parallel_drain() const {
    if (shard_count() == 1 || drain_.empty()) return false;
    return async_drain_ == AsyncDrain::kParallel ||
           drain_.size() >= kAutoParallelDrainMin;
  }

  /// Executes the disciplined drain on the calling thread — the reference
  /// semantics the parallel path must reproduce bit-for-bit.
  /// always_inline: extracted from async_unit for the parallel split but
  /// still the per-unit hot path — keep it fused exactly as before.
  __attribute__((always_inline)) inline void drain_sequential(
      std::uint64_t stamp) {
    // The changed list is collected through a raw cursor (changed_list
    // ensures the capacity) because a push_back's size/capacity traffic is
    // measurable inside this loop.
    const std::uint32_t stamp32 = static_cast<std::uint32_t>(stamp);
    NodeId* const list = changed_list();
    NodeId* coll = list;
    NodeId* const coll_end = list + dense_cut();
    std::uint64_t changed_n = 0;
    if (drain_.size() == regs_.size()) {
      // Full drain: every node's last activation is this unit, recorded
      // as one scalar floor instead of n stores (a per-node streaming
      // store costs ~15% of a dense unit; staleness() folds the floor
      // back in, so kAdversarial ordering is unaffected).
      for (NodeId v : drain_) {
        NeighborReader<State> nbr(*g_, regs_, v);
        if (proto_->step_changed(v, regs_[v], nbr, stamp)) {
          ++changed_n;
          if (coll != coll_end) *coll++ = v;
        }
      }
      full_drain_stamp_ = stamp32;
    } else {
      for (NodeId v : drain_) {
        NeighborReader<State> nbr(*g_, regs_, v);
        if (proto_->step_changed(v, regs_[v], nbr, stamp)) {
          ++changed_n;
          if (coll != coll_end) *coll++ = v;
        }
        last_step_[v] = stamp32;
      }
    }
    // Accounting in a second tight pass over the drain (not interleaved
    // with the steps): a node is drained at most once per unit and only
    // its own step writes its register, so the post-drain state equals
    // the post-step state, and keeping the virtual state_bits/alarmed
    // calls out of the stepping loop keeps dense units at sweep
    // throughput.
    SweepAcc acc;
    for (NodeId v : drain_) record_state(v, regs_[v], stamp, acc);
    fold(acc, stamp);
    finish_drain(static_cast<std::size_t>(coll - list), changed_n);
  }

  /// Executes the disciplined drain across the pool under the sharded-
  /// drain contract (class comment): classify into conflict epochs in
  /// discipline order, step each epoch concurrently (no two nodes in an
  /// epoch are adjacent), fold the accounting in chunks, rebuild the
  /// changed list in discipline order, and end in finish_drain like the
  /// sequential drain. Bit-identical to drain_sequential at every thread
  /// count for every discipline.
  __attribute__((noinline)) void drain_parallel(std::uint64_t stamp) {
    const std::uint32_t shards = shard_count();
    ensure_parallel_scratch();
    const bool forced = async_drain_ == AsyncDrain::kParallel;

    // --- 1. Conflict classification, serial, in discipline order. ---
    // epoch(v) = 1 + max epoch of v's already-classified drained
    // neighbours (0 if none): adjacent pairs keep their discipline order
    // across epoch barriers, non-adjacent pairs commute.
    const std::uint32_t gen = next_drain_gen();
    for (NodeId v : drain_) {
      drain_gen_[v] = gen;
      drain_epoch_[v] = kUnassignedEpoch;
      changed_mark_[v] = 0;
    }
    epoch_counts_.clear();
    for (NodeId v : drain_) {
      std::uint32_t e = 0;
      for (const HalfEdge& he : g_->neighbors(v)) {
        const NodeId u = he.to;
        if (drain_gen_[u] == gen && drain_epoch_[u] != kUnassignedEpoch &&
            drain_epoch_[u] >= e) {
          e = drain_epoch_[u] + 1;
        }
      }
      drain_epoch_[v] = e;
      if (e >= epoch_counts_.size()) epoch_counts_.resize(e + 1, 0);
      ++epoch_counts_[e];
    }
    stats_.cross_shard_deferrals += drain_.size() - epoch_counts_[0];

    // --- 2. Stable counting sort of the drain by epoch (discipline order
    // preserved within each epoch). ---
    epoch_offsets_.resize(epoch_counts_.size() + 1);
    epoch_offsets_[0] = 0;
    for (std::size_t e = 0; e < epoch_counts_.size(); ++e) {
      epoch_offsets_[e + 1] = epoch_offsets_[e] + epoch_counts_[e];
    }
    epoch_order_.resize(drain_.size());
    for (std::size_t e = 0; e < epoch_counts_.size(); ++e) {
      epoch_counts_[e] = epoch_offsets_[e];  // reuse as scatter cursors
    }
    for (NodeId v : drain_) {
      epoch_order_[epoch_counts_[drain_epoch_[v]]++] = v;
    }

    // --- 3. Epoch execution with pool barriers in between. Task context
    // travels via members so every closure fits std::function's inline
    // buffer — a steady-state parallel unit allocates nothing. ---
    const bool full = drain_.size() == regs_.size();
    sweep_stamp_ = stamp;
    ep_stamp32_ = static_cast<std::uint32_t>(stamp);
    ep_partial_ = !full;
    for (std::size_t e = 0; e < epoch_offsets_.size() - 1; ++e) {
      const std::uint32_t lo = epoch_offsets_[e];
      const std::uint32_t hi = epoch_offsets_[e + 1];
      if (!forced && hi - lo <= kInlineEpochMax) {
        // Tiny epoch: the barrier costs more than the steps.
        step_epoch_range(lo, hi);
      } else {
        ep_lo_ = lo;
        pool_->parallel_for(hi - lo, kEpochGrain,
                            [this](std::uint32_t a, std::uint32_t b) {
                              step_epoch_range(ep_lo_ + a, ep_lo_ + b);
                            });
      }
    }
    if (full) full_drain_stamp_ = ep_stamp32_;

    // --- 4. Accounting: chunked second pass over the drain, per-chunk
    // deltas folded in chunk order. Chunk boundaries depend on the lane
    // count, but record_state writes only per-node slots and every alarm
    // of the unit carries the same stamp, so the folded stats are
    // independent of the chunking — and equal to the sequential single
    // fold. ---
    acc_chunk_ = (drain_.size() + shards - 1) / shards;
    pool_->run(shards, [this](std::uint32_t c) {
      const std::size_t lo = std::size_t{c} * acc_chunk_;
      const std::size_t hi = std::min(drain_.size(), lo + acc_chunk_);
      SweepAcc acc;
      for (std::size_t i = lo; i < hi; ++i) {
        record_state(drain_[i], regs_[drain_[i]], sweep_stamp_, acc);
      }
      shard_accs_[c] = acc;
    });
    for (const SweepAcc& acc : shard_accs_) fold(acc, stamp);

    // --- 5. Changed list in discipline order, cursor capped at the dense
    // cutover — exactly the sequential collection semantics. ---
    NodeId* const list = changed_list();
    NodeId* coll = list;
    NodeId* const coll_end = list + dense_cut();
    std::uint64_t changed_n = 0;
    for (NodeId v : drain_) {
      if (changed_mark_[v]) {
        ++changed_n;
        if (coll != coll_end) *coll++ = v;
      }
    }
    finish_drain(static_cast<std::size_t>(coll - list), changed_n);
  }

  /// The dense cutover: a unit that changed at least this many registers
  /// (1/4 of them) ends in the blanket re-enable, so the drains stop
  /// collecting the changed list there.
  std::size_t dense_cut() const { return (regs_.size() + 3) / 4; }

  /// The changed-list buffer, with room for dense_cut() entries.
  NodeId* changed_list() {
    if (changed_.size() < dense_cut()) changed_.resize(dense_cut());
    return changed_.data();
  }

  /// The shared tail of both drains: activation stats, then the dirty
  /// propagation for the next unit, deferred to the unit's end (the same
  /// next-unit enabled set as inline marking). changed_[0, listed) holds
  /// the unit's register-changing steps in discipline order, capped at
  /// dense_cut(); changed_n counts all of them. A dense change set takes
  /// the blanket re-enable — the next unit is a full sweep either way, and
  /// skipping the per-neighbourhood bit traffic keeps full-activity units
  /// cheap. A sparse one marks exact closed neighbourhoods so activity can
  /// collapse to quiescence.
  void finish_drain(std::size_t listed, std::uint64_t changed_n) {
    stats_.activations += drain_.size();
    stats_.effective_steps += changed_n;
    if (changed_n >= dense_cut()) {
      enable_all_pending_ = true;
    } else {
      mark_dirty(std::span<const NodeId>(changed_.data(), listed));
    }
  }

  /// Steps epoch_order_[lo, hi) against the current registers. Within one
  /// epoch no two nodes are adjacent, so concurrent invocations on
  /// disjoint ranges touch disjoint closed neighbourhoods' *written*
  /// registers (reads of unwritten neighbours are racefree by locality).
  void step_epoch_range(std::uint32_t lo, std::uint32_t hi) {
    for (std::uint32_t i = lo; i < hi; ++i) {
      const NodeId v = epoch_order_[i];
      NeighborReader<State> nbr(*g_, regs_, v);
      if (proto_->step_changed(v, regs_[v], nbr, sweep_stamp_)) {
        changed_mark_[v] = 1;
      }
      if (ep_partial_) last_step_[v] = ep_stamp32_;
    }
  }

  /// Sizes the parallel-drain scratch for the current graph; no-op (and
  /// allocation-free) once warm.
  void ensure_parallel_scratch() {
    if (drain_gen_.size() != regs_.size()) {
      drain_gen_.assign(regs_.size(), 0);
      drain_epoch_.assign(regs_.size(), 0);
      changed_mark_.assign(regs_.size(), 0);
      drain_gen_ctr_ = 0;
    }
  }

  /// Next drain generation tag; on the (2^32nd) wrap the tag array is
  /// re-zeroed so stale tags can never alias.
  std::uint32_t next_drain_gen() {
    if (++drain_gen_ctr_ == 0) {
      std::fill(drain_gen_.begin(), drain_gen_.end(), 0);
      drain_gen_ctr_ = 1;
    }
    return drain_gen_ctr_;
  }

  /// Steps shard s of the current round into the back buffer — a seed
  /// copy of each node's register, then the in-place step — and leaves the
  /// shard's accounting delta in shard_accs_[s]. The seed copies are made
  /// one chunk at a time as a single block copy; a chunk is small enough
  /// to stay in L1 until its nodes are stepped, and the block copy is
  /// cheaper than one copy per register. Reads only the front buffer (plus
  /// the disjoint alarm_time_ slots of its own range), so distinct shards
  /// may sweep concurrently.
  void sweep_shard(std::uint32_t s) {
    const NodeId hi = shard_starts_[s + 1];
    const std::uint64_t time = stats_.time;
    const std::uint64_t stamp = sweep_stamp_;
    SweepAcc acc;
    for (NodeId lo = shard_starts_[s]; lo < hi;) {
      const NodeId end = hi - lo > kSeedChunk ? lo + kSeedChunk : hi;
      std::copy(regs_.begin() + lo, regs_.begin() + end, scratch_.begin() + lo);
      for (NodeId v = lo; v < end; ++v) {
        NeighborReader<State> nbr(*g_, regs_, v);
        proto_->step(v, scratch_[v], nbr, time);
        record_state(v, scratch_[v], stamp, acc);
      }
      lo = end;
    }
    shard_accs_[s] = acc;
  }

  void record_state(NodeId v, const State& s, std::uint64_t stamp,
                    SweepAcc& acc) {
    const std::size_t b = proto_->state_bits(s, v);
    if (b > acc.peak_bits) acc.peak_bits = b;
    if (alarm_time_[v] == kNever && proto_->alarmed(s)) {
      alarm_time_[v] = stamp;
      ++acc.newly_alarmed;
    }
  }

  void fold(const SweepAcc& acc, std::uint64_t stamp) {
    if (acc.peak_bits > stats_.peak_bits) stats_.peak_bits = acc.peak_bits;
    if (acc.newly_alarmed > 0) {
      stats_.alarmed_nodes += acc.newly_alarmed;
      if (!stats_.first_alarm) stats_.first_alarm = stamp;
    }
  }

  /// Full accounting pass over the current registers at construction, one
  /// shard per lane. record_state touches only per-node slots and the
  /// per-shard deltas fold in shard order, so the result is independent
  /// of the shard layout.
  void record_pass(std::uint64_t stamp) {
    sweep_stamp_ = stamp;
    each_shard([this](std::uint32_t s) {
      SweepAcc acc;
      for (NodeId v = shard_starts_[s]; v < shard_starts_[s + 1]; ++v) {
        record_state(v, regs_[v], sweep_stamp_, acc);
      }
      shard_accs_[s] = acc;
    });
    for (const SweepAcc& acc : shard_accs_) fold(acc, stamp);
  }

  /// The audit sweep behind audit()/audit_into (class comment: queue <->
  /// bitmap, stamp and register invariants).
  /// Scratch is the lazily sized audit_seen_ member; the caller's report
  /// is the only allocation.
  __attribute__((noinline)) void run_audit(AuditReport& r) {
    const NodeId n = g_->n();
    r.time = stats_.time;
    r.checked_nodes = n;
    if (audit_seen_.size() != n) audit_seen_.assign(n, 0);
    std::fill(audit_seen_.begin(), audit_seen_.end(), 0);
    auto suspect = [&r](NodeId v) {
      if (r.suspects.size() < AuditReport::kMaxSuspects) {
        // ssmst-lint: allow(R1): bounded by kMaxSuspects and pre-reserved
        // in audit_into; a warm audit never reallocates.
        r.suspects.push_back(v);
      }
    };
    for (NodeId v : pending_) {
      if (v >= n) {  // defensive: a corrupted entry must not index OOB
        ++r.queued_not_enabled;
        continue;
      }
      if (audit_seen_[v]++ != 0) {
        ++r.duplicate_queue_entries;
        suspect(v);
      }
      if (!enabled_[v]) {
        ++r.queued_not_enabled;
        suspect(v);
      }
    }
    const bool clock32_valid = stats_.time < kNever32;
    const auto now32 = static_cast<std::uint32_t>(
        clock32_valid ? stats_.time : std::uint64_t{kNever32});
    for (NodeId v = 0; v < n; ++v) {
      if (enabled_[v] && audit_seen_[v] == 0) {
        ++r.enabled_not_queued;
        suspect(v);
      }
      if (clock32_valid && last_step_[v] != kNever32 &&
          last_step_[v] > now32) {
        ++r.stamp_violations;
        suspect(v);
      }
      if (!proto_->audit_state(regs_[v], v)) {
        ++r.register_violations;
        suspect(v);
      }
    }
    if (clock32_valid && full_drain_stamp_ != kNever32 &&
        full_drain_stamp_ > now32) {
      ++r.stamp_violations;
    }
  }

  /// Watchdog budget gate: one predictable branch per round/unit when
  /// disarmed; trips to the audit + reseed slow path on window expiry.
  void watchdog_poll() {
    if (watchdog_budget_ != 0 &&
        stats_.time - watchdog_window_start_ >= watchdog_budget_) {
      watchdog_trip();
    }
  }

  /// One watchdog trip: audit (reusing wd_report_, so warm trips allocate
  /// nothing), then the trivially correct repair — the round-0 reseed
  /// (class comment: unconditional, because a clean audit cannot certify
  /// quiescence under the total-state model).
  __attribute__((noinline)) void watchdog_trip() {
    audit_into(wd_report_);
    // Round-0 reseed: every node re-enabled, queue bookkeeping rebuilt
    // from scratch (a dangling dirty bit or stray entry would survive a
    // bare blanket re-enable), staleness history erased.
    enable_all_pending_ = true;
    std::fill(enabled_.begin(), enabled_.end(), 0);
    pending_.clear();
    std::fill(last_step_.begin(), last_step_.end(), kNever32);
    full_drain_stamp_ = kNever32;
    ++stats_.repairs;
    watchdog_window_start_ = stats_.time;
  }

  const WeightedGraph* g_;
  Protocol<State>* proto_;
  /// Opaque ownership token from Protocol::adopt_register_file — the
  /// per-simulation arena behind stripe-view registers. Declared before
  /// the register vectors so it is destroyed after them.
  std::shared_ptr<void> state_backing_;
  std::vector<State> regs_;
  std::vector<State> scratch_;
  std::vector<std::uint64_t> alarm_time_;  ///< kNever = not alarmed
  SimulationStats stats_;

  // Activation-queue state (see the class comment for the contract).
  std::vector<std::uint8_t> enabled_;   ///< dirty bitmap: node is pending
  std::vector<NodeId> pending_;         ///< enabled nodes, unordered
  std::vector<NodeId> drain_;           ///< the unit in flight / last unit
  std::vector<NodeId> changed_;         ///< register-changing steps, per unit
  /// Unit of each node's last *sparse* activation, truncated to 32 bits
  /// (only staleness order matters, and only for kAdversarial). Full
  /// drains bump full_drain_stamp_ instead; staleness_key() merges the
  /// two views.
  std::vector<std::uint32_t> last_step_;
  std::uint32_t full_drain_stamp_ = kNever32;  ///< unit of last full drain
  /// Blanket re-enable requested (construction, sync rounds, states());
  /// materialized lazily by the next async unit so sync-only runs never
  /// pay for queue bookkeeping.
  bool enable_all_pending_ = true;

  ThreadPool* const pool_;              ///< not owned; nullptr = one shard
  std::vector<NodeId> shard_starts_;    ///< shards + 1 boundaries
  std::vector<SweepAcc> shard_accs_;    ///< per-shard deltas of one pass
  std::uint64_t sweep_stamp_ = 0;       ///< pass context for the shard task

  // Parallel async drain (see the sharded-drain contract). Tuning
  // thresholds only pick the execution strategy — results are identical
  // on either side of every threshold.
  AsyncDrain async_drain_ = AsyncDrain::kAuto;
  static constexpr std::uint32_t kUnassignedEpoch =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::size_t kAutoParallelDrainMin = 1024;
  static constexpr std::uint32_t kInlineEpochMax = 32;
  static constexpr std::uint32_t kEpochGrain = 16;
  /// Classification scratch, all n-sized and allocated lazily by the
  /// first parallel drain (sequential-only sims never pay for them).
  std::vector<std::uint32_t> drain_gen_;    ///< tag: drained this unit
  std::vector<std::uint32_t> drain_epoch_;  ///< conflict epoch of the node
  std::vector<std::uint8_t> changed_mark_;  ///< per-node changed flag
  std::uint32_t drain_gen_ctr_ = 0;
  std::vector<std::uint32_t> epoch_counts_;   ///< per-epoch sizes / cursors
  std::vector<std::uint32_t> epoch_offsets_;  ///< prefix sums of the above
  std::vector<NodeId> epoch_order_;  ///< drain sorted by (epoch, discipline)
  // Per-call task context (members so the pool closures stay inline-sized).
  std::uint32_t ep_lo_ = 0;          ///< epoch slice base in epoch_order_
  std::uint32_t ep_stamp32_ = 0;     ///< truncated unit stamp
  bool ep_partial_ = false;          ///< partial drain: store last_step_
  std::size_t acc_chunk_ = 0;        ///< accounting chunk length

  // Invariant auditor + watchdog (total-state fault model; class comment).
  std::vector<std::uint8_t> audit_seen_;  ///< per-node queue-entry counts
  AuditReport wd_report_;            ///< reused trip report (warm = no alloc)
  std::uint64_t watchdog_budget_ = 0;        ///< 0 = disarmed
  std::uint64_t watchdog_window_start_ = 0;  ///< stats_.time at window open
};

}  // namespace ssmst

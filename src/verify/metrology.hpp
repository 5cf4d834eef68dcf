#pragma once

#include <memory>
#include <optional>

#include "sim/faults.hpp"
#include "util/thread_pool.hpp"
#include "verify/verifier.hpp"

namespace ssmst {

/// Outcome of a detection experiment. `detected` is the authoritative
/// flag: when false, `detection_time` and `distance` carry no information
/// (distance is nullopt rather than the old UINT32_MAX sentinel, which
/// used to flow into medians and --json aggregates as a plain number) and
/// aggregators must count the run as undetected instead of folding it into
/// latency/distance statistics.
struct DetectionResult {
  bool detected = false;
  std::uint64_t detection_time = 0;  ///< units from injection to first alarm
  std::vector<NodeId> alarming;      ///< all nodes alarmed by that time + slack
  /// Detection distance (Section 2.4); nullopt when no node alarmed.
  std::optional<std::uint32_t> distance;
  SimulationStats sim;               ///< engine accounting at measurement end
};

/// Drives one verifier instance end to end: mark, warm up, corrupt,
/// measure. The scheduler follows the config: lock-step rounds in sync
/// mode, a weakly fair random daemon otherwise. With cfg.threads > 1 the
/// harness owns a pool of that width; combining it with an outer
/// BatchRunner fan-out is safe but multiplies live lanes — keep
/// batch-width x threads near the core count (bench_table1 splits its
/// lanes that way).
class VerifierHarness {
 public:
  /// Marks the graph's MST (correct instance).
  VerifierHarness(const WeightedGraph& g, VerifierConfig cfg,
                  std::uint64_t daemon_seed);

  /// Marks an arbitrary given spanning tree (possibly non-MST); pieces
  /// claim the tree's own candidate weights — the "best lie" an adversary
  /// marker can tell.
  VerifierHarness(const WeightedGraph& g, VerifierConfig cfg,
                  std::uint64_t daemon_seed,
                  const std::vector<bool>& in_tree);

  const MarkerOutput& marker() const { return marker_; }
  VerifierProtocol& protocol() { return *proto_; }
  VerifierSim& sim() { return *sim_; }

  /// Runs `units` time units; returns the first alarm time, if any.
  std::optional<std::uint64_t> run(std::uint64_t units);

  /// Injects adversarial corruption at `f` random nodes (protocol-level
  /// corruption covering labels, components and runtime state).
  std::vector<NodeId> inject_random(std::size_t f, Rng& rng);

  /// Tampers one *load-bearing* permanent piece: a stored copy whose
  /// fragment intersects the part that circulates it, so some node's
  /// C1/C2/equality check must eventually fire. (Copies of fragments that
  /// do not intersect their part are ballast — corrupting them changes no
  /// verified statement and is correctly ignored.) Returns the node whose
  /// register was corrupted, or nullopt if none qualifies.
  std::optional<NodeId> tamper_loadbearing_piece(std::uint64_t salt);

  /// Runs until the first alarm (or max_units), then keeps running for
  /// `slack` more units to collect co-alarming nodes, and reports the
  /// detection distance w.r.t. `faulty`.
  DetectionResult measure_detection(const std::vector<NodeId>& faulty,
                                    std::uint64_t max_units,
                                    std::uint64_t slack = 0);

 private:
  void init(const WeightedGraph& g);

  VerifierConfig cfg_;
  MarkerOutput marker_;
  std::unique_ptr<VerifierProtocol> proto_;
  std::unique_ptr<VerifierSim> sim_;
  std::unique_ptr<ThreadPool> pool_;  ///< owned; cfg_.threads > 1 only
  Rng daemon_;
};

/// Default bounded-staleness watchdog budget for an n-node verifier
/// instance: a quarter of the campaign detection budget (which tracks the
/// O(log^2 n) stabilization bound), so a watchdog trip plus the post-reseed
/// detection window both fit inside one episode budget. Pass to
/// Simulation::set_watchdog for total-state fault experiments.
std::uint64_t watchdog_budget_for(NodeId n);

/// Result of one scale-bench probe (the shared core of the 2^20 sections
/// of bench_detection_sync and bench_table1).
struct ScaleProbeResult {
  bool ok = false;          ///< steady state reached and the fault detected
  const char* error = "";   ///< "false alarm" / "not detected" when !ok
  double items_per_s = 0;   ///< steady-state sweep throughput (warm rounds)
  std::uint64_t detect_rounds = 0;
  std::size_t peak_state_bits = 0;
  /// Physical register-file cost per node: both double-buffer headers plus
  /// the (shared, counted once) live label stripes — the bytes the compact
  /// arena layout drives down (SimulationStats::peak_register_bytes is one
  /// header + stripes; the second buffered header is added here).
  std::size_t register_file_bytes_per_node = 0;
};

/// Drives `h` through the scale experiment: `warm_rounds` synchronous
/// rounds that must not false-alarm (their wall time yields items/s), then
/// a NumK label fault (subtree_count, caught by a 1-round check) at node
/// n/2 and the detection measurement. The piece-tamper experiment measures
/// the O(log^2 n) train path instead and lives in the classic-size E2
/// sweep — its ~80(log n)^2-round constant is model cost, not simulator
/// cost, and is hours of single-core wall clock at 2^20.
ScaleProbeResult run_scale_probe(VerifierHarness& h,
                                 std::uint64_t warm_rounds = 16);

}  // namespace ssmst

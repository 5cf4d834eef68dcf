#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace ssmst {

/// Which checker the transformer plugs in (Section 10.1): the paper's
/// train-based verifier, the KKP 1-round verifier, or verification by
/// recomputation (the checker that is "Pi itself", also from [15]).
enum class CheckerKind {
  kTrainVerifier,  ///< this paper: O(log n) bits, polylog detection
  kKkpVerifier,    ///< [17]-style: O(log^2 n) bits, 1-round detection
  kRecompute,      ///< O(log n) bits, Theta(n) detection
};

std::string to_string(CheckerKind kind);

/// Per-phase and total costs of one stabilization episode.
struct StabilizationReport {
  bool stabilized = false;
  bool output_is_mst = false;
  std::uint64_t detect_time = 0;  ///< units until some node raised an alarm
  std::uint64_t reset_time = 0;   ///< reset wave settle time
  std::uint64_t build_time = 0;   ///< distributed (re)construction time
  std::uint64_t mark_time = 0;    ///< distributed marker schedule time
  /// Checking that found nothing to repair: the post-rebuild closure
  /// probe, or a first detect that ran out of budget without an alarm.
  /// Not part of total_time.
  std::uint64_t verify_quiet_time = 0;
  std::uint64_t total_time = 0;
  std::size_t max_state_bits = 0;  ///< across all phases
  std::uint32_t iterations = 0;    ///< transformer loop iterations
};

/// Options for one experiment. Every asynchronous phase (checker, reset
/// wave, synchronized rebuild) runs under the weakly fair random daemon,
/// and the closure probe after a rebuild is a 64-unit quiet window.
struct TransformerOptions {
  CheckerKind checker = CheckerKind::kTrainVerifier;
  bool synchronous = true;     ///< async uses the fair daemon (+synchronizer)
  std::uint64_t seed = 1;      ///< daemon & corruption randomness
  /// Shards the checker's synchronous rounds across this many threads
  /// (1 = serial). Results are bit-identical at any value; asynchronous
  /// phases are unaffected.
  unsigned threads = 1;
};

/// The enhanced Resynchronizer (Theorems 10.1-10.3) driven end to end:
///
///   1. run the plugged-in checker on the current (arbitrary) configuration;
///   2. on an alarm, flood a reset wave from the alarming nodes;
///   3. re-run the construction module (SYNC_MST; under the two-slot
///      synchronizer when the network is asynchronous);
///   4. re-run the marker, install the labels, and return to checking.
///
/// Every phase is executed as a distributed protocol on the scheduler and
/// *measured*; the per-phase costs and the O(n) total are what the Table-1
/// bench reports. Phase hand-off signalling (alarm -> reset seeds ->
/// restart) is orchestrated by this harness; a fully inlined hand-off adds
/// O(diam) per phase, which the reset measurement already dominates: the
/// reset wave itself must flood and acknowledge across the whole graph.
class SelfStabilizingMst {
 public:
  SelfStabilizingMst(const WeightedGraph& g, TransformerOptions opt);
  ~SelfStabilizingMst();
  SelfStabilizingMst(const SelfStabilizingMst&) = delete;
  SelfStabilizingMst& operator=(const SelfStabilizingMst&) = delete;

  /// Starts from an adversarial arbitrary configuration (every node's
  /// state corrupted) and runs the transformer until stabilized.
  StabilizationReport stabilize_from_arbitrary();

  /// Starting from a stabilized configuration, injects f faults and runs
  /// until re-stabilized. Also reports the fault-detection time, which is
  /// the checker's headline property.
  StabilizationReport recover_from_faults(std::size_t f);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ssmst

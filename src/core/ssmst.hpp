#pragma once

/// \file
/// Umbrella header: the public API of the library.
///
/// The library reproduces Korman, Kutten & Masuzawa, "Fast and compact
/// self-stabilizing verification, computation, and fault detection of an
/// MST" (PODC 2011 / Distributed Computing 2015). The main entry points:
///
///  * run_sync_mst()            — Section 4's O(n)-time, O(log n)-bit
///                                synchronous MST construction. The
///                                O(n log n) GHS baseline
///                                (run_ghs_boruvka) shares its fragment
///                                stages, and run_rounds_to_done runs
///                                either, or SYNC_MST under the two-slot
///                                synchronizer, to termination. Neither
///                                overrides Protocol::corrupt: they are
///                                not self-stabilizing, and the
///                                transformer restarts them from
///                                initial_states().
///  * make_labels()             — the marker: hierarchy, partitions, and
///                                all proof labels (Sections 5-6).
///  * VerifierHarness           — the self-stabilizing verifier with
///                                trains and comparisons (Sections 7-8),
///                                plus detection-time/distance metrology.
///  * SelfStabilizingMst        — the transformer of Section 10: the
///                                O(log n)-bit, O(n)-time self-stabilizing
///                                MST construction, with pluggable
///                                checkers for baseline comparisons.
///  * tau_transform()           — the lower-bound reduction of Section 9.
///
/// Substrate (the layers every PR builds on):
///
///  * WeightedGraph is a compressed-sparse-row graph: adjacency lives in
///    one flat half-edge array indexed by an offsets array, neighbors(v)
///    is a contiguous std::span (port == position in the span), port_to()
///    is a linear scan for low degrees and a sorted per-hub index above
///    WeightedGraph::kHubDegree, and node_of_id() is O(log n). Build
///    graphs with the two-pass bulk WeightedGraph::from_edges().
///
///  * Simulation<State> is double-buffered: sync_round() copies each
///    node's register into the back buffer and steps it there in one fused
///    sweep (accounting included), then swaps — no bulk register-file
///    copy. Protocols implement Protocol::step; the engine has no other
///    sync path.
///
///  * SimulationStats (Simulation::stats()) is the single metrology
///    surface: time, rounds/units, activations, first-alarm time and
///    latency epoch, alarmed-node count, and the running peak register
///    size in bits. Run reports (SyncMstRun, GhsRun, MultiWaveResult,
///    DetectionResult) embed it; do not grow parallel ad-hoc counters.

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/mst.hpp"
#include "graph/tree.hpp"
#include "hierarchy/checker.hpp"
#include "hierarchy/fragment.hpp"
#include "labels/labels.hpp"
#include "labels/marker.hpp"
#include "labels/verify1.hpp"
#include "lowerbound/transform.hpp"
#include "mstalgo/ghs_boruvka.hpp"
#include "mstalgo/reference_hierarchy.hpp"
#include "mstalgo/sync_mst.hpp"
#include "partition/multiwave.hpp"
#include "partition/partitions.hpp"
#include "selfstab/baselines.hpp"
#include "selfstab/reset.hpp"
#include "selfstab/synchronizer.hpp"
#include "selfstab/transformer.hpp"
#include "sim/faults.hpp"
#include "sim/protocol.hpp"
#include "sim/simulation.hpp"
#include "verify/metrology.hpp"
#include "verify/verifier.hpp"

namespace ssmst {

/// End-to-end convenience: construct, mark and verify a graph's MST,
/// returning a short human-readable report. Used by the quickstart.
struct InstanceReport {
  NodeId n = 0;
  std::size_t m = 0;
  Weight mst_weight = 0;
  std::uint64_t construction_rounds = 0;
  std::uint64_t construction_activations = 0;
  std::size_t construction_bits = 0;
  int hierarchy_height = 0;
  std::size_t fragment_count = 0;
  std::size_t top_parts = 0;
  std::size_t bottom_parts = 0;
  std::size_t max_label_bits = 0;
  bool verifier_quiet = false;  ///< no alarm during the probe window
};

InstanceReport analyze_instance(const WeightedGraph& g,
                                std::uint64_t probe_units = 512);

}  // namespace ssmst

#pragma once

#include "labels/labels.hpp"
#include "labels/marker.hpp"
#include "sim/protocol.hpp"
#include "sim/simulation.hpp"
#include "util/contract.hpp"

namespace ssmst {

/// Register of the KKP-label verifier baseline ([17]-style): the component
/// plus the full O(log^2 n)-bit label, checked in one round.
struct KkpState {
  std::uint32_t parent_port = kNoPort;
  KkpLabels labels;
  bool alarm = false;
};

/// The 1-round verifier of [54,55] run as a protocol: detection time 1,
/// memory Theta(log^2 n). Used as the Table-1 comparison row and inside
/// the transformer as an alternative checker.
// ssmst-lint: allow(R5): KkpState is deliberately heap-backed (per-level
// piece tables, Theta(log^2 n) bits) — the baseline is compared by value,
// never register-memcpy'd, so the flat-header contract does not apply.
class KkpVerifierProtocol final : public Protocol<KkpState> {
 public:
  explicit KkpVerifierProtocol(const WeightedGraph& g)
      : g_(&g), widths_(g) {}

  SSMST_HOT_PATH void step(NodeId v, KkpState& self,
                           const NeighborReader<KkpState>& nbr,
                           std::uint64_t time) override;

  /// Activation-queue change test (exact): the step writes only the sticky
  /// alarm bit, so a node changes exactly when it newly alarms. A clean
  /// stabilized instance is fully quiescent after one unit — the
  /// KKM-regime sparse-activity case the queue-driven daemon targets.
  /// (The generic byte-compare default would not apply: KkpLabels is
  /// heap-backed, so KkpState is not trivially copyable.)
  SSMST_HOT_PATH bool step_changed(NodeId v, KkpState& self,
                                   const NeighborReader<KkpState>& nbr,
                                   std::uint64_t time) override {
    const bool before = self.alarm;
    step(v, self, nbr, time);
    return self.alarm != before;
  }

  /// Per-simulation label storage for the *base* labels (the stripe-view
  /// part of KkpLabels); the per-level piece tables are heap vectors and
  /// deep-copy on their own.
  std::shared_ptr<void> adopt_register_file(
      std::vector<KkpState>& regs) override;

  std::size_t state_bits(const KkpState& s, NodeId v) const override;
  std::size_t state_phys_bytes(const KkpState& s) const override;
  bool alarmed(const KkpState& s) const override { return s.alarm; }
  void corrupt(KkpState& s, NodeId v, Rng& rng) const override;

  std::vector<KkpState> initial_states(const MarkerOutput& marker) const;

 private:
  const WeightedGraph* g_;
  // state_bits runs after every activation; its widths are fixed at
  // construction.
  LabelWidths widths_;
};

}  // namespace ssmst

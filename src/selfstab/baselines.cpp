#include "selfstab/baselines.hpp"

#include "labels/verify1.hpp"
#include "util/bits.hpp"

namespace ssmst {

void KkpVerifierProtocol::step(NodeId v, KkpState& self,
                               const NeighborReader<KkpState>& nbr,
                               std::uint64_t /*time*/) {
  if (self.alarm) return;
  self.alarm = verify_kkp_1round(*g_, v, self.labels, self.parent_port,
                                 RegisterReader{nbr}) != LabelViolation::kNone;
}

std::shared_ptr<void> KkpVerifierProtocol::adopt_register_file(
    std::vector<KkpState>& regs) {
  return adopt_labels_into_pooled_arena(
      regs, [](KkpState& s) -> NodeLabels& { return s.labels.base; });
}

std::size_t KkpVerifierProtocol::state_bits(const KkpState& s,
                                            NodeId v) const {
  return bits_for_values(g_->degree(v) + 2) +
         kkp_label_bits(s.labels, widths_) + 1;
}

void KkpVerifierProtocol::corrupt(KkpState& s, NodeId v, Rng& rng) const {
  const auto len = s.labels.base.string_length();
  switch (rng.below(4)) {
    case 0:
      if (len > 0) {
        s.labels.base.roots()[rng.below(len)] =
            static_cast<RootsEntry>(rng.below(3));
      }
      break;
    case 1:
      for (auto& p : s.labels.pieces) {
        if (p) {
          p->min_out_w = rng.below(1 << 20);
          break;
        }
      }
      break;
    case 2:
      s.parent_port =
          static_cast<std::uint32_t>(rng.below(g_->degree(v) + 1));
      if (s.parent_port == g_->degree(v)) s.parent_port = kNoPort;
      break;
    case 3:
      s.labels.base.subtree_count =
          static_cast<std::uint32_t>(rng.below(1 << 16));
      break;
  }
}

std::vector<KkpState> KkpVerifierProtocol::initial_states(
    const MarkerOutput& marker) const {
  std::vector<KkpState> init(g_->n());
  const auto ports = marker.parent_ports();
  for (NodeId v = 0; v < g_->n(); ++v) {
    init[v].parent_port = ports[v];
    init[v].labels = marker.kkp_label(v);
  }
  return init;
}

}  // namespace ssmst

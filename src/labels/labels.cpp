#include "labels/labels.hpp"

#include "util/bits.hpp"

namespace ssmst {

LabelWidths::LabelWidths(const WeightedGraph& g)
    : id_bits(bits_for_values(std::max<NodeId>(g.n(), 2))),
      n_bits(bits_for_counter(g.n())),
      lvl_bits(bits_for_counter(ceil_log2(std::max<NodeId>(g.n(), 2)) + 1)),
      piece_bits(id_bits + lvl_bits) {
  Weight max_weight = 0;
  for (const Edge& e : g.edges()) max_weight = std::max(max_weight, e.w);
  piece_bits += bits_for_counter(max_weight | 1);
}

std::size_t label_bits(const NodeLabels& l, const LabelWidths& w) {
  std::size_t bits = 0;
  bits += 3 * w.id_bits + w.n_bits;        // SP
  bits += 2 * w.n_bits;                    // NumK
  // Live lengths come straight from the label header — per-entry costs are
  // uniform, so this never needs to touch the arena stripes.
  const std::size_t len = l.string_length();
  bits += len * 2;                         // Roots entries
  bits += len * 2;                         // EndP entries
  bits += len * 1;                         // Parents bits
  bits += len * 2;                         // counting sub-scheme
  bits += 2 * w.id_bits + 2 * w.n_bits;    // part roots + depths
  bits += 2 * w.lvl_bits + w.lvl_bits;     // piece counts + delimiter
  bits += w.lvl_bits;                      // packing constant
  bits += (std::size_t{l.top_n} + l.bot_n) * w.piece_bits;
  return bits;
}

std::size_t kkp_label_bits(const KkpLabels& l, const LabelWidths& w) {
  std::size_t bits = label_bits(l.base, w);
  for (const auto& p : l.pieces) {
    bits += 1;  // presence bit
    if (p) bits += w.piece_bits;
  }
  return bits;
}

}  // namespace ssmst

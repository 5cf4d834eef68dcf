#include "partition/multiwave.hpp"

#include <stdexcept>

#include "util/bits.hpp"

namespace ssmst {

namespace {

class MultiWaveProtocol final : public Protocol<MultiWaveState> {
 public:
  MultiWaveProtocol(const MarkerOutput& marker, bool pipelined)
      : g_(&marker.tree->graph()),
        marker_(&marker),
        pipelined_(pipelined),
        len_(static_cast<std::uint32_t>(
            marker.labels.empty() ? 1 : marker.labels[0].string_length())) {}

  void step(NodeId v, MultiWaveState& self,
            const NeighborReader<MultiWaveState>& nbr,
            std::uint64_t /*time*/) override {
    const NodeLabels& l = marker_->labels[v];
    const bool is_tree_root = v == marker_->tree->root();
    const std::uint32_t parent_port =
        is_tree_root ? kNoPort : marker_->tree->parent_port(v);

    // Global start wave down the tree.
    if (!self.global_wave) {
      if (is_tree_root) {
        self.global_wave = true;
      } else if (nbr.at_port(parent_port).global_wave) {
        self.global_wave = true;
      } else {
        return;
      }
    }

    auto tree_children = [&](auto&& fn) {
      for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
        const NodeId u = g_->half_edge(v, p).to;
        if (u != marker_->tree->root() &&
            marker_->tree->parent(u) == v) {
          fn(p, u);
        }
      }
    };

    for (std::uint32_t j = 0; j < len_; ++j) {
      const std::uint64_t bit = 1ULL << j;
      const bool in_fragment = l.roots()[j] != RootsEntry::kStar;
      if (!in_fragment) {
        // Trivially complete at this node.
        self.echoed |= bit;
        self.freed |= bit;
        continue;
      }
      // Freedom to echo level j: the previous level this node belongs to
      // must have been freed (the paper's Wave_Free chain).
      bool free = true;
      for (std::uint32_t i = j; i-- > 0;) {
        if (marker_->labels[v].roots()[i] != RootsEntry::kStar) {
          free = (self.freed & (1ULL << i)) != 0;
          break;
        }
      }
      if (!pipelined_ && j > self.glevel) free = false;
      // Echo of Wave(F_j, j): all children inside F_j must have echoed.
      if (free && (self.echoed & bit) == 0) {
        bool kids_done = true;
        tree_children([&](std::uint32_t p, NodeId u) {
          if (marker_->labels[u].roots()[j] == RootsEntry::kZero &&
              (nbr.at_port(p).echoed & bit) == 0) {
            kids_done = false;
          }
        });
        if (kids_done) self.echoed |= bit;
      }
      // Free wave of F_j: starts at the fragment root once it echoed, and
      // flows down the fragment.
      if ((self.freed & bit) == 0) {
        if (l.roots()[j] == RootsEntry::kOne) {
          if (self.echoed & bit) self.freed |= bit;
        } else if (parent_port != kNoPort &&
                   (nbr.at_port(parent_port).freed & bit)) {
          self.freed |= bit;
        }
      }
    }

    if (!pipelined_) {
      // Naive variant: a full-tree barrier per level. `ready` converges the
      // completion of level `glevel` to the tree root, which then advances
      // the permitted level via a broadcast counter.
      if (!is_tree_root) {
        self.glevel = nbr.at_port(parent_port).glevel;
      }
      const std::uint32_t j = std::min(self.glevel, len_ - 1);
      const std::uint64_t bit = 1ULL << j;
      if ((self.freed & bit) != 0 && (self.ready & bit) == 0) {
        bool kids_ready = true;
        tree_children([&](std::uint32_t p, NodeId) {
          if ((nbr.at_port(p).ready & bit) == 0) kids_ready = false;
        });
        if (kids_ready) self.ready |= bit;
      }
      if (is_tree_root && (self.ready & bit) != 0 &&
          self.glevel + 1 < len_) {
        ++self.glevel;
      }
    }
  }

  std::size_t state_bits(const MultiWaveState&, NodeId) const override {
    return 1 + 3 * len_ + bits_for_counter(len_);
  }

 private:
  const WeightedGraph* g_;
  const MarkerOutput* marker_;
  bool pipelined_;
  std::uint32_t len_;
};

}  // namespace

MultiWaveResult run_multiwave(const MarkerOutput& marker, bool pipelined) {
  const WeightedGraph& g = marker.tree->graph();
  MultiWaveProtocol proto(marker, pipelined);
  Simulation<MultiWaveState> sim(g, proto,
                                 std::vector<MultiWaveState>(g.n()));
  const auto len = static_cast<std::uint32_t>(
      marker.labels.empty() ? 1 : marker.labels[0].string_length());
  const std::uint64_t bound = 64ULL * g.n() * (len + 1) + 256;
  const NodeId root = marker.tree->root();
  const std::uint64_t top_bit = 1ULL << (len - 1);
  MultiWaveResult res;
  while (!(sim.cstate(root).echoed & top_bit)) {
    if (sim.time() > bound) {
      res.sim = sim.stats();
      return res;  // not completed
    }
    sim.sync_round();
  }
  res.sim = sim.stats();
  res.completed = true;
  return res;
}

}  // namespace ssmst

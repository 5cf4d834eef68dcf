#include "mstalgo/ghs_boruvka.hpp"

#include <tuple>

#include "mstalgo/sync_mst.hpp"
#include "util/bits.hpp"

namespace ssmst {

namespace {
using EdgeKey = std::tuple<Weight, std::uint64_t, std::uint64_t>;
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
}  // namespace

GhsBoruvkaProtocol::GhsBoruvkaProtocol(const WeightedGraph& g)
    : g_(&g), window_(std::max<std::uint64_t>(g.n(), 1)) {
  std::uint64_t max_id = 0;
  Weight max_w = 0;
  for (NodeId v = 0; v < g.n(); ++v) max_id = std::max(max_id, g.id(v));
  for (const Edge& e : g.edges()) max_w = std::max(max_w, e.w);
  id_bits_ = bits_for_counter(max_id);
  weight_bits_ = bits_for_counter(max_w);
}

std::vector<GhsState> GhsBoruvkaProtocol::initial_states() const {
  std::vector<GhsState> init(g_->n());
  for (NodeId v = 0; v < g_->n(); ++v) init[v].root_id = g_->id(v);
  return init;
}

void GhsBoruvkaProtocol::step(NodeId v, GhsState& self,
                              const NeighborReader<GhsState>& nbr,
                              std::uint64_t time) {
  if (!self.done && self.parent_port != kNone &&
      nbr.at_port(self.parent_port).done) {
    self.done = true;
  }
  if (self.done) return;

  // Level i occupies rounds [7*window*i, 7*window*(i+1)):
  //   find wave [0,2w), selection at 2w, echo [2w,4w), transfer [4w,6w),
  //   hook at 6w.
  const std::uint64_t w = window_;
  const int i = static_cast<int>(time / (7 * w));
  const std::uint64_t off = time % (7 * w);
  const bool is_root = self.parent_port == kNone;

  auto for_each_child = [&](auto&& fn) {
    for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
      const GhsState& u = nbr.at_port(p);
      if (u.parent_port == nbr.link(p).rev_port) fn(p, u);
    }
  };

  if (off < 2 * w) {
    if (is_root && self.find_phase < i) {
      self.find_phase = i;
      self.root_id = g_->id(v);
    } else if (!is_root && self.find_phase < i) {
      const GhsState& p = nbr.at_port(self.parent_port);
      if (p.find_phase == i) {
        self.find_phase = i;
        self.root_id = p.root_id;
      }
    }
  }

  if (off == 2 * w && self.find_phase == i) {
    self.own_cand_exists = false;
    for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
      const GhsState& u = nbr.at_port(p);
      if (u.root_id == self.root_id) continue;
      const HalfEdge& he = nbr.link(p);
      const std::uint64_t ia = g_->id(v);
      const std::uint64_t ib = g_->id(he.to);
      const EdgeKey k{he.w, std::min(ia, ib), std::max(ia, ib)};
      if (!self.own_cand_exists ||
          k < EdgeKey{self.own_cand_w, self.own_cand_idmin,
                      self.own_cand_idmax}) {
        self.own_cand_exists = true;
        self.own_cand_w = he.w;
        self.own_cand_idmin = std::min(ia, ib);
        self.own_cand_idmax = std::max(ia, ib);
        self.own_cand_port = p;
      }
    }
  }

  if (off >= 2 * w && off < 4 * w && self.find_phase == i &&
      self.found_phase < i) {
    bool ready = true;
    bool best_exists = self.own_cand_exists;
    EdgeKey best{self.own_cand_w, self.own_cand_idmin, self.own_cand_idmax};
    bool best_is_own = true;
    std::uint32_t best_port = self.own_cand_port;
    for_each_child([&](std::uint32_t p, const GhsState& u) {
      if (u.found_phase != i) {
        ready = false;
        return;
      }
      if (!u.cand_exists) return;
      const EdgeKey k{u.cand_w, u.cand_idmin, u.cand_idmax};
      if (!best_exists || k < best) {
        best_exists = true;
        best = k;
        best_is_own = false;
        best_port = p;
      }
    });
    if (ready) {
      self.cand_exists = best_exists;
      if (best_exists) {
        self.cand_w = std::get<0>(best);
        self.cand_idmin = std::get<1>(best);
        self.cand_idmax = std::get<2>(best);
        self.cand_is_own = best_is_own;
        self.cand_src_port = best_port;
      }
      self.found_phase = i;
    }
  }

  if (off >= 4 * w && off < 6 * w && self.find_phase == i &&
      self.transfer_phase < i) {
    if (is_root && self.found_phase == i) {
      if (!self.cand_exists) {
        self.done = true;  // spans the graph
        return;
      }
      self.transfer_phase = i;
      if (!self.cand_is_own) self.parent_port = self.cand_src_port;
    } else if (!is_root) {
      const GhsState& p = nbr.at_port(self.parent_port);
      if (p.transfer_phase == i &&
          p.parent_port == nbr.link(self.parent_port).rev_port) {
        self.transfer_phase = i;
        if (self.cand_is_own) {
          self.parent_port = kNone;
        } else {
          self.parent_port = self.cand_src_port;
        }
      }
    }
  }

  if (off == 6 * w && self.transfer_phase == i && self.parent_port == kNone &&
      self.cand_is_own && self.cand_exists) {
    const std::uint32_t p = self.cand_src_port;
    const GhsState& x = nbr.at_port(p);
    const bool mutual = x.transfer_phase == i && x.parent_port == kNone &&
                        x.cand_is_own &&
                        x.cand_src_port == nbr.link(p).rev_port;
    const bool we_win = mutual && g_->id(nbr.link(p).to) < g_->id(v);
    if (!we_win) self.parent_port = p;
  }
}

void GhsBoruvkaProtocol::corrupt(GhsState& s, NodeId v, Rng& rng) const {
  const std::uint32_t deg = g_->degree(v);
  auto any_port = [&] {
    const auto p = static_cast<std::uint32_t>(rng.below(deg + 1));
    return p == deg ? kNoPort : p;
  };
  auto any_id = [&] { return rng.below(2ULL * g_->n() + 2); };
  auto any_phase = [&] {
    return static_cast<std::int32_t>(rng.below(ceil_log2(g_->n() + 1) + 2)) -
           1;
  };
  auto any_w = [&] { return static_cast<Weight>(rng.below(3ULL * g_->m() + 3)); };
  s.parent_port = any_port();
  s.root_id = any_id();
  s.find_phase = any_phase();
  s.own_cand_exists = rng.chance(0.5);
  s.own_cand_w = any_w();
  s.own_cand_idmin = any_id();
  s.own_cand_idmax = any_id();
  s.own_cand_port = any_port();
  s.found_phase = any_phase();
  s.cand_exists = rng.chance(0.5);
  s.cand_is_own = rng.chance(0.5);
  s.cand_w = any_w();
  s.cand_idmin = any_id();
  s.cand_idmax = any_id();
  s.cand_src_port = any_port();
  s.transfer_phase = any_phase();
  s.done = rng.chance(0.5);
}

std::size_t GhsBoruvkaProtocol::state_bits(const GhsState& s, NodeId v) const {
  const std::size_t port_bits = bits_for_values(g_->degree(v) + 2);
  const std::size_t phase_bits =
      bits_for_counter(ceil_log2(g_->n() + 1) + 2);
  std::size_t bits = 0;
  bits += port_bits + id_bits_;
  bits += phase_bits;                                       // find_phase
  bits += 1 + weight_bits_ + 2 * id_bits_ + port_bits;      // own cand
  bits += phase_bits + 2 + weight_bits_ + 2 * id_bits_ + port_bits;
  bits += phase_bits + 1;  // transfer, done
  (void)s;
  return bits;
}

GhsRun run_ghs_boruvka(const WeightedGraph& g) {
  GhsBoruvkaProtocol proto(g);
  Simulation<GhsState> sim(g, proto, proto.initial_states());
  const std::uint64_t max_rounds =
      7ULL * std::max<std::uint64_t>(g.n(), 1) *
          (static_cast<std::uint64_t>(ceil_log2(g.n() + 1)) + 2) +
      64;
  GhsRun run;
  run.tree = std::make_unique<RootedTree>(run_rounds_to_done(
      sim, max_rounds, "GHS baseline exceeded its schedule",
      "GHS baseline finished with two roots"));
  run.sim = sim.stats();
  return run;
}

}  // namespace ssmst

#include "mstalgo/sync_mst.hpp"

#include <stdexcept>

#include "util/bits.hpp"

namespace ssmst {

namespace {

using EdgeKey = std::tuple<Weight, std::uint64_t, std::uint64_t>;

}  // namespace

SyncMstProtocol::SyncMstProtocol(const WeightedGraph& g) : g_(&g) {
  std::uint64_t max_id = 0;
  Weight max_w = 0;
  for (NodeId v = 0; v < g.n(); ++v) max_id = std::max(max_id, g.id(v));
  for (const Edge& e : g.edges()) max_w = std::max(max_w, e.w);
  id_bits_ = bits_for_counter(max_id);
  weight_bits_ = bits_for_counter(max_w);
}

SyncMstProtocol::PhaseView SyncMstProtocol::phase_of(std::uint64_t round) {
  PhaseView pv;
  if (round < 11) return pv;
  // Largest i with 11*2^i <= round; phases abut exactly (22*2^i == 11*2^(i+1)).
  int i = 0;
  while ((22ULL << i) <= round) ++i;
  pv.phase = i;
  pv.base = 1ULL << i;
  pv.offset = round - (11ULL << i);
  return pv;
}

std::vector<SyncMstState> SyncMstProtocol::initial_states() const {
  std::vector<SyncMstState> init(g_->n());
  for (NodeId v = 0; v < g_->n(); ++v) {
    init[v].root_id = g_->id(v);
  }
  return init;
}

void SyncMstProtocol::step(NodeId v, SyncMstState& self,
                           const NeighborReader<SyncMstState>& nbr,
                           std::uint64_t time) {
  // Termination propagates down the final tree at all times.
  if (!self.done && self.parent_port != kNoPort &&
      nbr.at_port(self.parent_port).done) {
    self.done = true;
  }
  if (self.done) return;

  const PhaseView pv = phase_of(time);
  if (pv.phase < 0) return;
  const int i = pv.phase;
  const std::uint64_t b = pv.base;
  const std::uint32_t cap =
      static_cast<std::uint32_t>((2ULL << i) - 1);  // 2^(i+1)-1

  const bool is_root = self.parent_port == kNoPort;

  auto for_each_child = [&](auto&& fn) {
    for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
      const SyncMstState& u = nbr.at_port(p);
      if (u.parent_port == nbr.link(p).rev_port) fn(p, u);
    }
  };

  // --- Count_Size window: offset in [0, 4b) --------------------------------
  if (pv.offset == 0 && is_root) {
    self.level = static_cast<std::uint32_t>(i);
    self.active = false;
    self.count_done = false;
    self.count_phase = i;
    self.count_ttl = cap;
  }
  if (pv.offset < 4 * b) {
    // Wave reception (non-roots).
    if (!is_root && self.count_phase < i) {
      const SyncMstState& p = nbr.at_port(self.parent_port);
      if (p.count_phase == i && p.count_ttl > 0) {
        self.count_phase = i;
        self.count_ttl = p.count_ttl - 1;
        self.root_id = p.root_id;
        self.level = p.level;
      }
    }
    // Echo (non-roots).
    if (!is_root && self.count_phase == i && self.count_echo_phase < i) {
      if (self.count_ttl == 0) {
        self.count_echo = 1;
        self.count_echo_phase = i;
      } else {
        std::uint32_t total = 1;
        bool ready = true;
        for_each_child([&](std::uint32_t, const SyncMstState& u) {
          if (u.count_echo_phase == i) {
            total += u.count_echo;
          } else {
            ready = false;
          }
        });
        if (ready) {
          self.count_echo = total;
          self.count_echo_phase = i;
        }
      }
    }
    // Root decision.
    if (is_root && self.count_phase == i && !self.count_done) {
      std::uint32_t total = 1;
      bool ready = true;
      for_each_child([&](std::uint32_t, const SyncMstState& u) {
        if (u.count_echo_phase == i) {
          total += u.count_echo;
        } else {
          ready = false;
        }
      });
      if (ready) {
        self.count_done = true;
        self.active = total <= cap;
        if (self.active) {
          std::lock_guard<std::mutex> lk(trace_mu_);
          trace_.emplace_back(i, v, total);
        } else {
          self.level = static_cast<std::uint32_t>(i) + 1;
        }
      }
    }
  }

  // --- Find_Min_Out_Edge wave: offset in [4b, 6b) --------------------------
  if (pv.offset >= 4 * b && pv.offset < 6 * b) {
    if (is_root && self.active && self.find_phase < i) {
      if (!self.count_done) {
        throw std::logic_error("SYNC_MST: count did not finish in time");
      }
      self.find_phase = i;
    }
    if (!is_root && self.find_phase < i) {
      const SyncMstState& p = nbr.at_port(self.parent_port);
      if (p.find_phase == i) {
        self.find_phase = i;
        self.root_id = p.root_id;
        self.level = p.level;
      }
    }
  }

  // --- Selection at offset == 6b -------------------------------------------
  if (pv.offset == 6 * b && self.find_phase == i) {
    self.own_cand_exists = false;
    for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
      const SyncMstState& u = nbr.at_port(p);
      if (u.root_id == self.root_id) continue;  // same fragment
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

  // --- "Found" echo: offset in [6b, 8b) ------------------------------------
  if (pv.offset >= 6 * b && pv.offset < 8 * b && self.find_phase == i &&
      self.found_phase < i) {
    bool ready = true;
    bool best_exists = self.own_cand_exists;
    EdgeKey best{self.own_cand_w, self.own_cand_idmin, self.own_cand_idmax};
    bool best_is_own = true;
    std::uint32_t best_port = self.own_cand_port;
    for_each_child([&](std::uint32_t p, const SyncMstState& u) {
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

  // --- Root transfer: offset in [8b, 10b) ----------------------------------
  if (pv.offset >= 8 * b && pv.offset < 10 * b && self.find_phase == i &&
      self.transfer_phase < i) {
    if (is_root && self.active && self.found_phase == i) {
      if (!self.cand_exists) {
        // No outgoing edge: the fragment spans the graph. Terminate.
        self.spans_root = true;
        self.done = true;
        return;
      }
      self.transfer_phase = i;
      if (!self.cand_is_own) self.parent_port = self.cand_src_port;
    } else if (!is_root) {
      // Did my parent just reverse its pointer toward me?
      const SyncMstState& p = nbr.at_port(self.parent_port);
      if (p.transfer_phase == i &&
          p.parent_port == nbr.link(self.parent_port).rev_port) {
        self.transfer_phase = i;
        if (self.cand_is_own) {
          self.parent_port = kNoPort;  // I am w, the temporary root
        } else {
          self.parent_port = self.cand_src_port;
        }
      }
    }
  }

  // --- Handshake & hook at offset == 10b -----------------------------------
  if (pv.offset == 10 * b && self.transfer_phase == i &&
      self.parent_port == kNoPort && self.cand_is_own && self.cand_exists) {
    const std::uint32_t p = self.cand_src_port;
    const SyncMstState& x = nbr.at_port(p);
    const bool mutual = x.transfer_phase == i && x.parent_port == kNoPort &&
                        x.cand_is_own &&
                        x.cand_src_port == nbr.link(p).rev_port;
    const bool we_win = mutual && g_->id(nbr.link(p).to) < g_->id(v);
    if (!we_win) self.parent_port = p;
  }
}

void SyncMstProtocol::corrupt(SyncMstState& s, NodeId v, Rng& rng) const {
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
  s.level = static_cast<std::uint32_t>(rng.below(ceil_log2(g_->n() + 1) + 1));
  s.count_phase = any_phase();
  s.count_ttl = static_cast<std::uint32_t>(rng.below(2ULL * g_->n() + 2));
  s.count_echo_phase = any_phase();
  s.count_echo = static_cast<std::uint32_t>(rng.below(g_->n() + 1));
  s.count_done = rng.chance(0.5);
  s.active = rng.chance(0.5);
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
  s.spans_root = rng.chance(0.5);
  s.done = rng.chance(0.5);
}

std::size_t SyncMstProtocol::state_bits(const SyncMstState& s,
                                        NodeId v) const {
  const std::size_t port_bits = bits_for_values(g_->degree(v) + 2);
  const std::size_t n_bits = bits_for_counter(2ULL * g_->n() + 2);
  const std::size_t phase_bits =
      bits_for_counter(ceil_log2(g_->n() + 1) + 2);
  std::size_t bits = 0;
  bits += port_bits;                    // parent_port
  bits += id_bits_;                     // root_id
  bits += phase_bits;                   // level
  bits += 2 * phase_bits + n_bits * 2;  // count wave fields
  bits += 2;                            // count_done, active
  bits += phase_bits;                   // find_phase
  bits += 1 + weight_bits_ + 2 * id_bits_ + port_bits;  // own candidate
  bits += phase_bits;                                   // found_phase
  bits += 2 + weight_bits_ + 2 * id_bits_ + port_bits;  // merged candidate
  bits += phase_bits;                                   // transfer_phase
  bits += 2;                                            // spans_root, done
  (void)s;
  return bits;
}

SyncMstRun run_sync_mst(const WeightedGraph& g) {
  SyncMstProtocol proto(g);
  Simulation<SyncMstState> sim(g, proto, proto.initial_states());
  SyncMstRun run;
  run.tree = std::make_unique<RootedTree>(run_rounds_to_done(
      sim, 44ULL * g.n() + 64, "SYNC_MST exceeded its O(n) schedule",
      "SYNC_MST finished with two roots"));
  run.sim = sim.stats();
  run.active_trace = proto.active_trace();
  return run;
}

}  // namespace ssmst

#include "mstalgo/sync_mst.hpp"

#include <stdexcept>

#include "util/bits.hpp"

namespace ssmst {

ConstructionWidths::ConstructionWidths(const WeightedGraph& g) {
  std::uint64_t max_id = 0;
  Weight max_w = 0;
  for (NodeId v = 0; v < g.n(); ++v) max_id = std::max(max_id, g.id(v));
  for (const Edge& e : g.edges()) max_w = std::max(max_w, e.w);
  id_bits = bits_for_counter(max_id);
  weight_bits = bits_for_counter(max_w);
}

SyncMstProtocol::SyncMstProtocol(const WeightedGraph& g)
    : g_(&g), widths_(g) {}

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
  if (propagate_done(self, nbr)) return;

  const PhaseView pv = phase_of(time);
  if (pv.phase < 0) return;
  const int i = pv.phase;
  const std::uint64_t b = pv.base;
  const std::uint32_t cap =
      static_cast<std::uint32_t>((2ULL << i) - 1);  // 2^(i+1)-1

  const bool is_root = self.parent_port == kNoPort;

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
        for_each_child(nbr, [&](std::uint32_t, const SyncMstState& u) {
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
      for_each_child(nbr, [&](std::uint32_t, const SyncMstState& u) {
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

  // --- Selection at 6b, "found" echo, root transfer from 8b, hook at 10b ---
  // Only an active fragment's root starts the transfer.
  run_merge_stages(*g_, self, nbr, i, pv.offset, 6 * b, b, [&] {
    if (!self.active) return;
    if (!self.cand_exists) {
      // No outgoing edge: the fragment spans the graph. Terminate.
      self.spans_root = true;
      self.done = true;
      return;
    }
    self.transfer_phase = i;
    if (!self.cand_is_own) self.parent_port = self.cand_src_port;
  });
}

std::size_t SyncMstProtocol::state_bits(const SyncMstState& s,
                                        NodeId v) const {
  const std::size_t port_bits = bits_for_values(g_->degree(v) + 2);
  const std::size_t n_bits = bits_for_counter(2ULL * g_->n() + 2);
  const std::size_t phase_bits =
      bits_for_counter(ceil_log2(g_->n() + 1) + 2);
  const std::size_t key_bits = widths_.weight_bits + 2 * widths_.id_bits;
  std::size_t bits = 0;
  bits += port_bits;                    // parent_port
  bits += widths_.id_bits;              // root_id
  bits += phase_bits;                   // level
  bits += 2 * phase_bits + n_bits * 2;  // count wave fields
  bits += 2;                            // count_done, active
  bits += phase_bits;                   // find_phase
  bits += 1 + key_bits + port_bits;     // own candidate
  bits += phase_bits;                   // found_phase
  bits += 2 + key_bits + port_bits;     // merged candidate
  bits += phase_bits;                   // transfer_phase
  bits += 2;                            // spans_root, done
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

#include "verify/metrology.hpp"

#include <chrono>

#include "util/bits.hpp"

namespace ssmst {

VerifierHarness::VerifierHarness(const WeightedGraph& g, VerifierConfig cfg,
                                 std::uint64_t daemon_seed)
    : cfg_(cfg), marker_(make_labels(g, cfg.pack)), daemon_(daemon_seed) {
  init(g);
}

VerifierHarness::VerifierHarness(const WeightedGraph& g, VerifierConfig cfg,
                                 std::uint64_t daemon_seed,
                                 const std::vector<bool>& in_tree)
    : cfg_(cfg), marker_(make_labels_for_tree(g, in_tree, cfg.pack)),
      daemon_(daemon_seed) {
  init(g);
}

void VerifierHarness::init(const WeightedGraph& g) {
  proto_ = std::make_unique<VerifierProtocol>(g, cfg_);
  // The pool is created before the simulation so the construction-time
  // accounting pass is already sharded (cfg_.threads > 1).
  if (cfg_.threads > 1) pool_ = std::make_unique<ThreadPool>(cfg_.threads);
  sim_ = std::make_unique<VerifierSim>(g, *proto_,
                                       proto_->initial_states(marker_),
                                       pool_.get());
}

std::optional<std::uint64_t> VerifierHarness::run(std::uint64_t units) {
  for (std::uint64_t i = 0; i < units; ++i) {
    if (cfg_.sync_mode) {
      sim_->sync_round();
    } else {
      sim_->async_unit(daemon_, cfg_.daemon);
    }
    if (auto t = sim_->first_alarm_time()) return t;
  }
  return sim_->first_alarm_time();
}

std::optional<NodeId> VerifierHarness::tamper_loadbearing_piece(
    std::uint64_t salt) {
  const WeightedGraph& g = sim_->graph();
  const FragmentHierarchy& h = *marker_.hierarchy;
  const Partitions& parts = marker_.partitions;

  auto fragment_of_piece = [&](const Piece& p) -> std::uint32_t {
    const NodeId root = g.node_of_id(p.root_id);
    if (root == kNoNode) return kNoFragment;
    return h.fragment_at(root, static_cast<int>(p.level));
  };
  auto intersects = [&](std::uint32_t f, const std::vector<NodeId>& nodes) {
    if (f == kNoFragment) return false;
    const Fragment& frag = h.fragment(f);
    for (NodeId w : nodes) {
      if (frag.contains(w)) return true;
    }
    return false;
  };

  for (NodeId i = 0; i < g.n(); ++i) {
    const NodeId x = static_cast<NodeId>((i + salt) % g.n());
    // Scan read-only (cstate): only the node actually tampered goes through
    // the mutating state() accessor, so the activation queue wakes exactly
    // one closed neighbourhood — the sparse-detection scenario.
    const auto& labels = sim_->cstate(x).labels;
    for (int which = 0; which < 2; ++which) {
      const auto perm = which == 0 ? labels.top_perm() : labels.bot_perm();
      const auto& part_nodes =
          which == 0 ? parts.top_parts[parts.top_part_of[x]].nodes
                     : parts.bot_parts[parts.bot_part_of[x]].nodes;
      for (std::size_t pi = 0; pi < perm.size(); ++pi) {
        const Piece& p = perm[pi];
        if (p.min_out_w == Piece::kNoOutgoing) continue;  // the top fragment
        if (!intersects(fragment_of_piece(p), part_nodes)) continue;
        auto& mut = sim_->state(x).labels;
        (which == 0 ? mut.top_perm() : mut.bot_perm())[pi].min_out_w +=
            1 + salt % 5;
        return x;
      }
    }
  }
  return std::nullopt;
}

DetectionResult VerifierHarness::measure_detection(
    const std::vector<NodeId>& faulty, std::uint64_t max_units,
    std::uint64_t slack) {
  const std::uint64_t start = sim_->time();
  DetectionResult res;
  const auto first = run(max_units);
  if (!first) {
    res.sim = sim_->stats();
    return res;
  }
  res.detected = true;
  // Units run, not the alarm stamp: an async alarm carries the clock
  // before its unit, a sync one the clock after its round.
  res.detection_time = sim_->time() - start;
  for (std::uint64_t i = 0; i < slack; ++i) {
    if (cfg_.sync_mode) {
      sim_->sync_round();
    } else {
      sim_->async_unit(daemon_, cfg_.daemon);
    }
  }
  res.alarming = sim_->alarmed_nodes();
  res.distance = detection_distance(sim_->graph(), faulty, res.alarming);
  res.sim = sim_->stats();
  return res;
}

std::uint64_t watchdog_budget_for(NodeId n) {
  // A quarter of the campaign episode budget 160*logn^2 + 2000 (see
  // sim/campaign.cpp): the trip fires well inside an episode and leaves
  // three quarters of the budget for the post-reseed O(log^2 n) detection.
  const std::uint64_t logn = ceil_log2(std::max<NodeId>(n, 2)) + 2;
  return 40 * logn * logn + 500;
}

ScaleProbeResult run_scale_probe(VerifierHarness& h,
                                 std::uint64_t warm_rounds) {
  // ssmst-lint: allow(R4): wall-clock metrology — elapsed time is the
  // measurand here, not an input to any protocol result.
  using Clock = std::chrono::steady_clock;
  const NodeId n = h.sim().graph().n();
  ScaleProbeResult out;

  const auto t0 = Clock::now();
  if (h.run(warm_rounds).has_value()) {
    out.error = "false alarm";
    return out;
  }
  const double warm_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  out.items_per_s = double(warm_rounds) * n / warm_s;

  const NodeId victim = n / 2;
  h.sim().state(victim).labels.subtree_count += 1;
  const auto res = h.measure_detection({victim}, /*max_units=*/64);
  if (!res.detected) {
    out.error = "not detected";
    return out;
  }
  out.ok = true;
  out.detect_rounds = res.detection_time;
  out.peak_state_bits = res.sim.peak_bits;
  std::size_t stripe_bytes = 0;
  for (NodeId v = 0; v < n; ++v) {
    stripe_bytes =
        std::max(stripe_bytes, h.sim().cstate(v).labels.live_stripe_bytes());
  }
  out.register_file_bytes_per_node = 2 * sizeof(VerifierState) + stripe_bytes;
  return out;
}

}  // namespace ssmst

#include "selfstab/transformer.hpp"

#include <stdexcept>

#include "graph/mst.hpp"
#include "labels/marker.hpp"
#include "sim/faults.hpp"
#include "mstalgo/sync_mst.hpp"
#include "selfstab/baselines.hpp"
#include "selfstab/reset.hpp"
#include "selfstab/synchronizer.hpp"
#include "util/bits.hpp"
#include "util/thread_pool.hpp"
#include "verify/verifier.hpp"

namespace ssmst {

std::string to_string(CheckerKind kind) {
  switch (kind) {
    case CheckerKind::kTrainVerifier:
      return "this-paper";
    case CheckerKind::kKkpVerifier:
      return "kkp-labels";
    case CheckerKind::kRecompute:
      return "recompute";
  }
  return "?";
}

struct SelfStabilizingMst::Impl {
  const WeightedGraph& g;
  TransformerOptions opt;
  Rng rng;

  // Checker instances (created lazily per kind).
  VerifierConfig vcfg;
  std::unique_ptr<VerifierProtocol> train_proto;
  std::unique_ptr<VerifierSim> train_sim;
  std::unique_ptr<KkpVerifierProtocol> kkp_proto;
  std::unique_ptr<Simulation<KkpState>> kkp_sim;
  std::vector<std::uint32_t> recompute_ports;  // component-only checker

  std::size_t max_bits = 0;
  bool have_config = false;
  std::unique_ptr<ThreadPool> pool;  ///< checker round sharding (opt.threads)

  Impl(const WeightedGraph& graph, TransformerOptions options)
      : g(graph), opt(options), rng(options.seed) {
    vcfg.sync_mode = opt.synchronous;
  }

  /// Lazily created on first install of a sim-backed checker: only the
  /// synchronous scheduler shards rounds, and kRecompute runs no checker
  /// sim at all, so eager creation would just park idle OS threads.
  ThreadPool* round_pool() {
    if (opt.threads <= 1 || !opt.synchronous) return nullptr;
    if (!pool) pool = std::make_unique<ThreadPool>(opt.threads);
    return pool.get();
  }

  void note_bits(std::size_t b) { max_bits = std::max(max_bits, b); }
  void note_sim(const SimulationStats& s) { note_bits(s.peak_bits); }

  std::uint64_t detect_budget() const {
    const std::uint64_t base =
        top_threshold(g.n()) + ceil_log2(std::max<NodeId>(g.n(), 2)) + 4;
    switch (opt.checker) {
      case CheckerKind::kTrainVerifier:
        return 64 * base * base *
                   (opt.synchronous ? 1 : (g.max_degree() + 2)) +
               4096;
      case CheckerKind::kKkpVerifier:
        return 8;
      case CheckerKind::kRecompute:
        return 44ULL * g.n() + 64;
    }
    return 0;
  }

  /// Installs a freshly marked configuration for the current checker.
  void install(const MarkerOutput& marker) {
    switch (opt.checker) {
      case CheckerKind::kTrainVerifier:
        train_proto = std::make_unique<VerifierProtocol>(g, vcfg);
        train_sim = std::make_unique<VerifierSim>(
            g, *train_proto, train_proto->initial_states(marker));
        train_sim->set_thread_pool(round_pool());
        break;
      case CheckerKind::kKkpVerifier:
        kkp_proto = std::make_unique<KkpVerifierProtocol>(g);
        kkp_sim = std::make_unique<Simulation<KkpState>>(
            g, *kkp_proto, kkp_proto->initial_states(marker));
        kkp_sim->set_thread_pool(round_pool());
        break;
      case CheckerKind::kRecompute:
        recompute_ports = marker.parent_ports();
        break;
    }
    have_config = true;
  }

  std::vector<std::uint32_t> current_ports() const {
    switch (opt.checker) {
      case CheckerKind::kTrainVerifier: {
        std::vector<std::uint32_t> p(g.n());
        for (NodeId v = 0; v < g.n(); ++v) {
          // cstate: read-only extraction must not re-enable the
          // activation queue.
          p[v] = train_sim->cstate(v).parent_port;
        }
        return p;
      }
      case CheckerKind::kKkpVerifier: {
        std::vector<std::uint32_t> p(g.n());
        for (NodeId v = 0; v < g.n(); ++v) {
          p[v] = kkp_sim->cstate(v).parent_port;
        }
        return p;
      }
      case CheckerKind::kRecompute:
        return recompute_ports;
    }
    return {};
  }

  bool components_form_mst() const {
    const auto ports = current_ports();
    std::vector<bool> in_tree(g.m(), false);
    std::size_t roots = 0;
    for (NodeId v = 0; v < g.n(); ++v) {
      if (ports[v] == kNoPort) {
        ++roots;
      } else if (ports[v] < g.degree(v)) {
        in_tree[g.half_edge(v, ports[v]).edge_index] = true;
      } else {
        return false;
      }
    }
    return roots == 1 && is_mst(g, in_tree);
  }

  void corrupt_everything() {
    switch (opt.checker) {
      case CheckerKind::kTrainVerifier:
        for (NodeId v = 0; v < g.n(); ++v) {
          train_proto->corrupt(train_sim->state(v), v, rng);
        }
        train_sim->reset_alarm_history();
        train_proto->clear_trace();
        break;
      case CheckerKind::kKkpVerifier:
        for (NodeId v = 0; v < g.n(); ++v) {
          kkp_proto->corrupt(kkp_sim->state(v), v, rng);
        }
        kkp_sim->reset_alarm_history();
        break;
      case CheckerKind::kRecompute:
        for (NodeId v = 0; v < g.n(); ++v) {
          recompute_ports[v] =
              static_cast<std::uint32_t>(rng.below(g.degree(v) + 1));
          if (recompute_ports[v] == g.degree(v)) recompute_ports[v] = kNoPort;
        }
        break;
    }
  }

  void corrupt_some(std::size_t f, std::vector<NodeId>& victims) {
    victims = pick_fault_nodes(g.n(), f, rng);
    for (NodeId v : victims) {
      switch (opt.checker) {
        case CheckerKind::kTrainVerifier:
          train_proto->corrupt(train_sim->state(v), v, rng);
          break;
        case CheckerKind::kKkpVerifier:
          kkp_proto->corrupt(kkp_sim->state(v), v, rng);
          break;
        case CheckerKind::kRecompute:
          recompute_ports[v] =
              static_cast<std::uint32_t>(rng.below(g.degree(v) + 1));
          if (recompute_ports[v] == g.degree(v)) recompute_ports[v] = kNoPort;
          break;
      }
    }
  }

  /// Phase 1: run the checker; returns (alarm fired, time spent, seeds).
  struct DetectOutcome {
    bool alarmed = false;
    std::uint64_t time = 0;
    std::vector<NodeId> seeds;
  };
  DetectOutcome detect() {
    DetectOutcome out;
    const std::uint64_t budget = detect_budget();
    switch (opt.checker) {
      case CheckerKind::kTrainVerifier: {
        const std::uint64_t start = train_sim->time();
        train_sim->reset_alarm_history();
        for (std::uint64_t i = 0; i < budget; ++i) {
          if (opt.synchronous) {
            train_sim->sync_round();
          } else {
            train_sim->async_unit(rng, opt.daemon);
          }
          if (train_sim->stats().first_alarm) break;
        }
        note_sim(train_sim->stats());
        out.time = train_sim->time() - start;
        out.alarmed = train_sim->stats().first_alarm.has_value();
        out.seeds = train_sim->alarmed_nodes();
        return out;
      }
      case CheckerKind::kKkpVerifier: {
        const std::uint64_t start = kkp_sim->time();
        kkp_sim->reset_alarm_history();
        for (std::uint64_t i = 0; i < budget; ++i) {
          if (opt.synchronous) {
            kkp_sim->sync_round();
          } else {
            kkp_sim->async_unit(rng, opt.daemon);
          }
          if (kkp_sim->stats().first_alarm) break;
        }
        note_sim(kkp_sim->stats());
        out.time = kkp_sim->time() - start;
        out.alarmed = kkp_sim->stats().first_alarm.has_value();
        out.seeds = kkp_sim->alarmed_nodes();
        return out;
      }
      case CheckerKind::kRecompute: {
        // Checking is re-running the construction and comparing outputs;
        // the detection time is the construction time.
        auto run = run_sync_mst(g);
        note_sim(run.sim);
        out.time = run.sim.rounds;
        const auto ports = current_ports();
        for (NodeId v = 0; v < g.n(); ++v) {
          const bool is_root = v == run.tree->root();
          const std::uint32_t want =
              is_root ? kNoPort : run.tree->parent_port(v);
          if (ports[v] != want) {
            out.alarmed = true;
            out.seeds.push_back(v);
          }
        }
        return out;
      }
    }
    return out;
  }

  /// Phases 2-4: reset, rebuild, re-mark. Returns the installed marker.
  MarkerOutput rebuild(StabilizationReport& rep,
                       const std::vector<NodeId>& seeds) {
    rep.reset_time +=
        run_reset(g, seeds.empty() ? std::vector<NodeId>{0} : seeds,
                  opt.synchronous, rng, opt.daemon);
    if (opt.synchronous) {
      auto run = run_sync_mst(g);
      note_sim(run.sim);
      rep.build_time += run.sim.rounds;
    } else {
      SyncMstProtocol inner(g);
      Synchronizer<SyncMstState> wrapper(g, inner);
      Simulation<SynchronizedState<SyncMstState>> sim(
          g, wrapper,
          [&] {
            std::vector<SynchronizedState<SyncMstState>> init(g.n());
            auto inner_init = inner.initial_states();
            for (NodeId v = 0; v < g.n(); ++v) {
              init[v].cur = inner_init[v];
              init[v].prev = inner_init[v];
            }
            return init;
          }());
      const std::uint64_t bound = 10ULL * (44ULL * g.n() + 64) + 64;
      for (;;) {
        bool all_done = true;
        for (NodeId v = 0; v < g.n(); ++v) {
          if (!sim.cstate(v).cur.done) {
            all_done = false;
            break;
          }
        }
        if (all_done) break;
        if (sim.time() > bound) {
          throw std::logic_error("synchronized SYNC_MST did not finish");
        }
        sim.async_unit(rng, opt.daemon);
      }
      note_sim(sim.stats());
      rep.build_time += sim.time();
    }
    auto marker = make_labels(g);
    rep.mark_time += marker.schedule_rounds;
    install(marker);
    return marker;
  }

  /// Closure probe: runs the checker for the quiet window; true if silent.
  bool quiet_check(StabilizationReport& rep) {
    switch (opt.checker) {
      case CheckerKind::kTrainVerifier: {
        train_sim->reset_alarm_history();
        for (std::uint64_t i = 0; i < opt.quiet_units; ++i) {
          if (opt.synchronous) {
            train_sim->sync_round();
          } else {
            train_sim->async_unit(rng, opt.daemon);
          }
        }
        rep.verify_quiet_time += opt.quiet_units;
        note_sim(train_sim->stats());
        return !train_sim->stats().first_alarm.has_value();
      }
      case CheckerKind::kKkpVerifier: {
        kkp_sim->reset_alarm_history();
        for (std::uint64_t i = 0; i < opt.quiet_units; ++i) {
          if (opt.synchronous) {
            kkp_sim->sync_round();
          } else {
            kkp_sim->async_unit(rng, opt.daemon);
          }
        }
        rep.verify_quiet_time += opt.quiet_units;
        note_sim(kkp_sim->stats());
        return !kkp_sim->stats().first_alarm.has_value();
      }
      case CheckerKind::kRecompute:
        return true;  // components_form_mst() is the closure statement
    }
    return true;
  }

  StabilizationReport run_loop() {
    StabilizationReport rep;
    auto det = detect();
    rep.detect_time = det.time;
    rep.iterations = 0;
    bool need_rebuild = det.alarmed;
    while (need_rebuild && rep.iterations < 4) {
      ++rep.iterations;
      rebuild(rep, det.seeds);
      // After a rebuild the configuration is legitimate; the closure probe
      // (steady-state checking, not billed as stabilization time) confirms.
      need_rebuild = !quiet_check(rep);
      if (need_rebuild) det = detect();
    }
    rep.output_is_mst = components_form_mst();
    rep.stabilized = rep.output_is_mst && !need_rebuild;
    rep.total_time =
        rep.detect_time + rep.reset_time + rep.build_time + rep.mark_time;
    rep.max_state_bits = max_bits;
    return rep;
  }
};

SelfStabilizingMst::SelfStabilizingMst(const WeightedGraph& g,
                                       TransformerOptions opt)
    : impl_(std::make_unique<Impl>(g, opt)) {}

SelfStabilizingMst::~SelfStabilizingMst() = default;

StabilizationReport SelfStabilizingMst::stabilize_from_arbitrary() {
  // Arbitrary initial configuration: start from a valid one and corrupt
  // every node's entire register adversarially.
  impl_->install(make_labels(impl_->g));
  impl_->corrupt_everything();
  impl_->max_bits = 0;
  return impl_->run_loop();
}

StabilizationReport SelfStabilizingMst::recover_from_faults(std::size_t f) {
  if (!impl_->have_config) {
    impl_->install(make_labels(impl_->g));  // reach the stabilized state
  }
  std::vector<NodeId> victims;
  impl_->corrupt_some(f, victims);
  impl_->max_bits = 0;
  return impl_->run_loop();
}

}  // namespace ssmst

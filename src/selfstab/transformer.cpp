#include "selfstab/transformer.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

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

namespace {

/// Post-rebuild closure window of a sim-backed checker, in time units.
constexpr std::uint64_t kQuietUnits = 64;

/// Phase 1's result: whether an alarm fired, the time spent, and the
/// alarming nodes that seed the reset wave.
struct DetectOutcome {
  bool alarmed = false;
  std::uint64_t time = 0;
  std::vector<NodeId> seeds;
};

/// The checker slot of the Resynchronizer (Section 10.1). The transformer
/// drives every checker through these calls in one fixed order, so the
/// draws from its random stream do not depend on the checker kind.
class Checker {
 public:
  virtual ~Checker() = default;
  /// Installs a freshly marked configuration.
  virtual void install(const MarkerOutput& marker) = 0;
  /// The component c(v) the checker's registers currently hold.
  virtual std::uint32_t port(NodeId v) const = 0;
  /// Adversarial corruption of v's whole register.
  virtual void corrupt(NodeId v, Rng& rng) = 0;
  /// Runs the checker until an alarm or the detection budget runs out.
  virtual DetectOutcome detect(Rng& rng) = 0;
  /// Closure probe after a rebuild: true if the checker stays silent.
  virtual bool quiet(StabilizationReport& rep, Rng& rng) = 0;

  void note(const SimulationStats& s) {
    max_bits = std::max(max_bits, s.peak_bits);
  }
  std::size_t max_bits = 0;  ///< peak state bits across every phase
};

/// A checker that runs as a protocol on the scheduler: the train verifier
/// or the KKP 1-round baseline. Each install builds a fresh protocol from
/// `args` and a fresh simulation over it.
template <typename Proto, typename State>
class SimChecker final : public Checker {
 public:
  template <typename... Args>
  SimChecker(const WeightedGraph& g, bool synchronous, std::uint64_t budget,
             ThreadPool* pool, Args... args)
      : g_(&g),
        synchronous_(synchronous),
        budget_(budget),
        pool_(pool),
        make_proto_([&g, args...] {
          return std::make_unique<Proto>(g, args...);
        }) {}

  void install(const MarkerOutput& marker) override {
    auto proto = make_proto_();
    auto sim = std::make_unique<Simulation<State>>(
        *g_, *proto, proto->initial_states(marker), pool_);
    // The old simulation goes before the old protocol it steps.
    sim_ = std::move(sim);
    proto_ = std::move(proto);
  }

  std::uint32_t port(NodeId v) const override {
    // cstate: read-only extraction must not re-enable the activation queue.
    return sim_->cstate(v).parent_port;
  }

  void corrupt(NodeId v, Rng& rng) override {
    proto_->corrupt(sim_->state(v), v, rng);
  }

  DetectOutcome detect(Rng& rng) override {
    const std::uint64_t start = sim_->time();
    sim_->reset_alarm_history();
    for (std::uint64_t i = 0; i < budget_ && !sim_->stats().first_alarm;
         ++i) {
      advance(rng);
    }
    note(sim_->stats());
    return {sim_->stats().first_alarm.has_value(), sim_->time() - start,
            sim_->alarmed_nodes()};
  }

  bool quiet(StabilizationReport& rep, Rng& rng) override {
    sim_->reset_alarm_history();
    for (std::uint64_t i = 0; i < kQuietUnits; ++i) advance(rng);
    rep.verify_quiet_time += kQuietUnits;
    note(sim_->stats());
    return !sim_->stats().first_alarm.has_value();
  }

 private:
  void advance(Rng& rng) {
    if (synchronous_) {
      sim_->sync_round();
    } else {
      sim_->async_unit(rng);
    }
  }

  const WeightedGraph* g_;
  bool synchronous_;
  std::uint64_t budget_;
  ThreadPool* pool_;
  std::function<std::unique_ptr<Proto>()> make_proto_;
  std::unique_ptr<Proto> proto_;
  std::unique_ptr<Simulation<State>> sim_;
};

/// Verification by recomputation: the registers hold only the component,
/// and checking re-runs the construction and compares outputs, so the
/// detection time is the construction time.
class RecomputeChecker final : public Checker {
 public:
  explicit RecomputeChecker(const WeightedGraph& g) : g_(&g) {}

  void install(const MarkerOutput& marker) override {
    ports_ = marker.parent_ports();
  }

  std::uint32_t port(NodeId v) const override { return ports_[v]; }

  void corrupt(NodeId v, Rng& rng) override {
    ports_[v] = static_cast<std::uint32_t>(rng.below(g_->degree(v) + 1));
    if (ports_[v] == g_->degree(v)) ports_[v] = kNoPort;
  }

  DetectOutcome detect(Rng&) override {
    auto run = run_sync_mst(*g_);
    note(run.sim);
    DetectOutcome out;
    out.time = run.sim.rounds;
    for (NodeId v = 0; v < g_->n(); ++v) {
      const std::uint32_t want =
          v == run.tree->root() ? kNoPort : run.tree->parent_port(v);
      if (ports_[v] != want) {
        out.alarmed = true;
        out.seeds.push_back(v);
      }
    }
    return out;
  }

  /// components_form_mst() is the closure statement.
  bool quiet(StabilizationReport&, Rng&) override { return true; }

 private:
  const WeightedGraph* g_;
  std::vector<std::uint32_t> ports_;
};

std::unique_ptr<Checker> make_checker(const WeightedGraph& g,
                                      const TransformerOptions& opt,
                                      ThreadPool* pool) {
  switch (opt.checker) {
    case CheckerKind::kTrainVerifier: {
      const std::uint64_t base =
          top_threshold(g.n()) + ceil_log2(std::max<NodeId>(g.n(), 2)) + 4;
      const std::uint64_t budget =
          64 * base * base * (opt.synchronous ? 1 : (g.max_degree() + 2)) +
          4096;
      VerifierConfig vcfg;
      vcfg.sync_mode = opt.synchronous;
      return std::make_unique<SimChecker<VerifierProtocol, VerifierState>>(
          g, opt.synchronous, budget, pool, vcfg);
    }
    case CheckerKind::kKkpVerifier:
      return std::make_unique<SimChecker<KkpVerifierProtocol, KkpState>>(
          g, opt.synchronous, /*budget=*/8, pool);
    case CheckerKind::kRecompute:
      return std::make_unique<RecomputeChecker>(g);
  }
  throw std::invalid_argument("unknown checker kind");
}

}  // namespace

struct SelfStabilizingMst::Impl {
  const WeightedGraph& g;
  TransformerOptions opt;
  Rng rng;
  /// Shards the checker's rounds; only a synchronous, sim-backed checker
  /// has rounds to shard, so no other one parks idle OS threads.
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<Checker> checker;
  bool have_config = false;

  Impl(const WeightedGraph& graph, TransformerOptions options)
      : g(graph),
        opt(options),
        rng(options.seed),
        pool(opt.threads > 1 && opt.synchronous &&
                     opt.checker != CheckerKind::kRecompute
                 ? std::make_unique<ThreadPool>(opt.threads)
                 : nullptr),
        checker(make_checker(g, opt, pool.get())) {}

  void install(const MarkerOutput& marker) {
    checker->install(marker);
    have_config = true;
  }

  bool components_form_mst() const {
    std::vector<bool> in_tree(g.m(), false);
    std::size_t roots = 0;
    for (NodeId v = 0; v < g.n(); ++v) {
      const std::uint32_t port = checker->port(v);
      if (port == kNoPort) {
        ++roots;
      } else if (port < g.degree(v)) {
        in_tree[g.half_edge(v, port).edge_index] = true;
      } else {
        return false;
      }
    }
    return roots == 1 && is_mst(g, in_tree);
  }

  /// Phases 2-4: reset, rebuild, re-mark, then install the new labels.
  void rebuild(StabilizationReport& rep, const std::vector<NodeId>& seeds) {
    rep.reset_time +=
        run_reset(g, seeds.empty() ? std::vector<NodeId>{0} : seeds,
                  opt.synchronous, rng);
    if (opt.synchronous) {
      auto run = run_sync_mst(g);
      checker->note(run.sim);
      rep.build_time += run.sim.rounds;
    } else {
      SyncMstProtocol inner(g);
      Synchronizer<SyncMstState> wrapper(g, inner);
      Simulation<SynchronizedState<SyncMstState>> sim(
          g, wrapper, synchronized_initial_states(inner.initial_states()));
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
        sim.async_unit(rng);
      }
      checker->note(sim.stats());
      rep.build_time += sim.time();
    }
    auto marker = make_labels(g);
    rep.mark_time += marker.schedule_rounds;
    install(marker);
  }

  StabilizationReport run_loop() {
    StabilizationReport rep;
    auto det = checker->detect(rng);
    rep.detect_time = det.time;
    rep.iterations = 0;
    bool need_rebuild = det.alarmed;
    while (need_rebuild && rep.iterations < 4) {
      ++rep.iterations;
      rebuild(rep, det.seeds);
      // After a rebuild the configuration is legitimate; the closure probe
      // (steady-state checking, not billed as stabilization time) confirms.
      need_rebuild = !checker->quiet(rep, rng);
      if (need_rebuild) det = checker->detect(rng);
    }
    rep.output_is_mst = components_form_mst();
    rep.stabilized = rep.output_is_mst && !need_rebuild;
    rep.total_time =
        rep.detect_time + rep.reset_time + rep.build_time + rep.mark_time;
    rep.max_state_bits = checker->max_bits;
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
  for (NodeId v = 0; v < impl_->g.n(); ++v) {
    impl_->checker->corrupt(v, impl_->rng);
  }
  impl_->checker->max_bits = 0;
  return impl_->run_loop();
}

StabilizationReport SelfStabilizingMst::recover_from_faults(std::size_t f) {
  if (!impl_->have_config) {
    impl_->install(make_labels(impl_->g));  // reach the stabilized state
  }
  for (NodeId v : pick_fault_nodes(impl_->g.n(), f, impl_->rng)) {
    impl_->checker->corrupt(v, impl_->rng);
  }
  impl_->checker->max_bits = 0;
  return impl_->run_loop();
}

}  // namespace ssmst

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "graph/generators.hpp"
#include "graph/mst.hpp"
#include "mstalgo/sync_mst.hpp"
#include "selfstab/baselines.hpp"
#include "selfstab/reset.hpp"
#include "selfstab/synchronizer.hpp"
#include "selfstab/transformer.hpp"

namespace ssmst {
namespace {

TEST(Reset, SettlesWithinLinearTime) {
  Rng rng(1);
  auto g = gen::random_connected(64, 40, rng);
  Rng daemon(2);
  const auto t = run_reset(g, {5}, /*sync=*/true, daemon);
  EXPECT_LE(t, static_cast<std::uint64_t>(g.hop_diameter()) + 3);
}

TEST(Reset, AsyncAlsoSettles) {
  Rng rng(3);
  auto g = gen::grid(6, 6, rng);
  Rng daemon(4);
  const auto t = run_reset(g, {0, 35}, /*sync=*/false, daemon);
  EXPECT_GT(t, 0u);
  EXPECT_LE(t, 4ULL * g.n() + 16);
}

TEST(Synchronizer, RunsSyncMstUnderAsyncDaemon) {
  Rng rng(5);
  auto g = gen::random_connected(48, 30, rng);
  SyncMstProtocol inner(g);
  Synchronizer<SyncMstState> wrapper(g, inner);
  Simulation<SynchronizedState<SyncMstState>> sim(
      g, wrapper, synchronized_initial_states(inner.initial_states()));
  Rng daemon(6);
  const RootedTree tree = run_rounds_to_done(
      sim, 10ULL * (44ULL * g.n() + 64), "synchronized run did not finish",
      "synchronized run finished with two roots", &daemon);
  EXPECT_TRUE(is_mst(tree));
  // Golden schedule, captured before this run went through the shared
  // driver. All pulses start equal, so every unit drains all 48 nodes and
  // every activation advances a pulse.
  EXPECT_EQ(sim.time(), 616u);
  EXPECT_EQ(sim.stats().activations, 29568u);
  EXPECT_EQ(sim.stats().effective_steps, 29568u);
}

TEST(Synchronizer, PulsesNeverDivergeByMoreThanOne) {
  Rng rng(7);
  auto g = gen::path(20, rng);
  SyncMstProtocol inner(g);
  Synchronizer<SyncMstState> wrapper(g, inner);
  Simulation<SynchronizedState<SyncMstState>> sim(
      g, wrapper, synchronized_initial_states(inner.initial_states()));
  Rng daemon(8);
  for (int i = 0; i < 200; ++i) {
    sim.async_unit(daemon);
    for (NodeId v = 0; v + 1 < g.n(); ++v) {
      const auto a = sim.state(v).pulse;
      const auto b = sim.state(v + 1).pulse;
      ASSERT_LE(a > b ? a - b : b - a, 1u);
    }
  }
}

TEST(Transformer, StabilizesFromArbitraryStates) {
  Rng rng(9);
  auto g = gen::random_connected(40, 26, rng);
  for (CheckerKind kind : {CheckerKind::kTrainVerifier,
                           CheckerKind::kKkpVerifier,
                           CheckerKind::kRecompute}) {
    TransformerOptions opt;
    opt.checker = kind;
    opt.seed = 10;
    SelfStabilizingMst ss(g, opt);
    auto rep = ss.stabilize_from_arbitrary();
    EXPECT_TRUE(rep.stabilized) << to_string(kind);
    EXPECT_TRUE(rep.output_is_mst) << to_string(kind);
    EXPECT_GT(rep.total_time, 0u) << to_string(kind);
  }
}

TEST(Transformer, StabilizationTimeLinearInN) {
  // Total time must scale ~O(n) (the paper's Theorem 10.2 headline).
  Rng rng(10);
  std::vector<double> ns, ts;
  for (NodeId n : {32u, 128u, 512u}) {
    auto g = gen::random_connected(n, n / 2, rng);
    TransformerOptions opt;
    opt.checker = CheckerKind::kTrainVerifier;
    opt.seed = 11;
    SelfStabilizingMst ss(g, opt);
    auto rep = ss.stabilize_from_arbitrary();
    ASSERT_TRUE(rep.stabilized);
    ns.push_back(n);
    ts.push_back(static_cast<double>(rep.total_time));
  }
  // 16x more nodes must cost less than ~64x more time (clearly sub-quadratic,
  // consistent with O(n) up to polylog detection terms).
  EXPECT_LT(ts[2] / ts[0], 64.0);
}

TEST(Transformer, RecoversFromFewFaults) {
  Rng rng(11);
  auto g = gen::random_connected(36, 24, rng);
  TransformerOptions opt;
  opt.checker = CheckerKind::kTrainVerifier;
  opt.seed = 12;
  SelfStabilizingMst ss(g, opt);
  auto rep = ss.recover_from_faults(3);
  EXPECT_TRUE(rep.stabilized);
  EXPECT_TRUE(rep.output_is_mst);
}

TEST(Transformer, KkpDetectsInOneRound) {
  Rng rng(12);
  auto g = gen::random_connected(40, 30, rng);
  TransformerOptions opt;
  opt.checker = CheckerKind::kKkpVerifier;
  opt.seed = 13;
  SelfStabilizingMst ss(g, opt);
  auto rep = ss.stabilize_from_arbitrary();
  EXPECT_TRUE(rep.stabilized);
  // Detection with the 1-round scheme is O(1) per transformer iteration
  // (the final iteration runs its whole small no-alarm budget).
  EXPECT_LE(rep.detect_time, 8u * (rep.iterations + 1) + 4);
}

TEST(Transformer, AsyncStabilizes) {
  Rng rng(13);
  auto g = gen::random_connected(28, 16, rng);
  TransformerOptions opt;
  opt.checker = CheckerKind::kTrainVerifier;
  opt.synchronous = false;
  opt.seed = 14;
  SelfStabilizingMst ss(g, opt);
  auto rep = ss.stabilize_from_arbitrary();
  EXPECT_TRUE(rep.stabilized);
  EXPECT_TRUE(rep.output_is_mst);
}

// report_fields writes stabilized and output_is_mst as two digits, then
// the detect, reset, build, mark, quiet-window and total times, the peak
// state bits and the iteration count.
std::string report_fields(const StabilizationReport& r) {
  std::ostringstream os;
  os << r.stabilized << r.output_is_mst << " d=" << r.detect_time
     << " r=" << r.reset_time << " b=" << r.build_time
     << " m=" << r.mark_time << " q=" << r.verify_quiet_time
     << " t=" << r.total_time << " bits=" << r.max_state_bits
     << " it=" << r.iterations;
  return os.str();
}

// Every StabilizationReport field of one small instance, for each checker,
// scheduler and entry point: stabilize_from_arbitrary() on one object, then
// recover_from_faults(3) and recover_from_faults(2) on a second. The pins
// move if the transformer changes its random-number draw order or its
// per-phase accounting. Sync rows also run at threads = 2, whose sharded
// checker rounds must not change a single field.
TEST(Transformer, ReportsPinned) {
  struct Pin {
    CheckerKind kind;
    bool synchronous;
    const char* arbitrary;
    const char* recover3;
    const char* then2;
  };
  const Pin pins[] = {
      {CheckerKind::kTrainVerifier, true,
       "11 d=1 r=2 b=621 m=704 q=64 t=1328 bits=528 it=1",
       "11 d=1 r=5 b=621 m=704 q=64 t=1331 bits=528 it=1",
       "11 d=60 r=6 b=621 m=704 q=64 t=1391 bits=528 it=1"},
      {CheckerKind::kTrainVerifier, false,
       "11 d=1 r=2 b=621 m=704 q=64 t=1328 bits=528 it=1",
       "11 d=1 r=5 b=621 m=704 q=64 t=1331 bits=528 it=1",
       "11 d=1 r=4 b=621 m=704 q=64 t=1330 bits=528 it=1"},
      {CheckerKind::kKkpVerifier, true,
       "11 d=1 r=2 b=621 m=704 q=64 t=1328 bits=229 it=1",
       "11 d=1 r=5 b=621 m=704 q=64 t=1331 bits=229 it=1",
       "11 d=1 r=5 b=621 m=704 q=64 t=1331 bits=229 it=1"},
      {CheckerKind::kKkpVerifier, false,
       "11 d=1 r=2 b=621 m=704 q=64 t=1328 bits=230 it=1",
       "11 d=1 r=4 b=621 m=704 q=64 t=1330 bits=230 it=1",
       "11 d=0 r=0 b=0 m=0 q=8 t=0 bits=229 it=0"},
      {CheckerKind::kRecompute, true,
       "11 d=621 r=2 b=621 m=704 q=0 t=1948 bits=99 it=1",
       "11 d=621 r=5 b=621 m=704 q=0 t=1951 bits=99 it=1",
       "11 d=621 r=5 b=621 m=704 q=0 t=1951 bits=99 it=1"},
      {CheckerKind::kRecompute, false,
       "11 d=621 r=2 b=621 m=704 q=0 t=1948 bits=230 it=1",
       "11 d=621 r=4 b=621 m=704 q=0 t=1950 bits=230 it=1",
       "11 d=621 r=4 b=621 m=704 q=0 t=1950 bits=230 it=1"},
  };
  Rng rng(11);
  auto g = gen::random_connected(39, 19, rng);
  for (const Pin& pin : pins) {
    for (unsigned threads : {1u, 2u}) {
      if (!pin.synchronous && threads > 1) continue;
      TransformerOptions opt;
      opt.checker = pin.kind;
      opt.synchronous = pin.synchronous;
      opt.threads = threads;
      const std::string tag = to_string(pin.kind) +
                              (pin.synchronous ? " sync" : " async") +
                              " threads " + std::to_string(threads);
      SelfStabilizingMst fresh(g, opt);
      EXPECT_EQ(report_fields(fresh.stabilize_from_arbitrary()),
                pin.arbitrary)
          << tag;
      SelfStabilizingMst ss(g, opt);
      EXPECT_EQ(report_fields(ss.recover_from_faults(3)), pin.recover3)
          << tag;
      EXPECT_EQ(report_fields(ss.recover_from_faults(2)), pin.then2) << tag;
    }
  }
}

class TransformerSweep
    : public ::testing::TestWithParam<std::tuple<NodeId, std::uint64_t>> {};

TEST_P(TransformerSweep, AlwaysReachesAnMst) {
  auto [n, seed] = GetParam();
  Rng rng(seed);
  auto g = gen::random_connected(n, n / 3 + 2, rng);
  TransformerOptions opt;
  opt.checker = CheckerKind::kTrainVerifier;
  opt.seed = seed;
  SelfStabilizingMst ss(g, opt);
  auto rep = ss.stabilize_from_arbitrary();
  EXPECT_TRUE(rep.stabilized);
  EXPECT_TRUE(rep.output_is_mst);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TransformerSweep,
    ::testing::Combine(::testing::Values(8, 24, 64),
                       ::testing::Values(21, 22, 23)));

}  // namespace
}  // namespace ssmst

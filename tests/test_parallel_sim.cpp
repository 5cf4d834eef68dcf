// Schedule-equivalence harness for the parallel execution layer.
//
// The sharded sync_round promises bit-identical registers and identical
// SimulationStats to the one-shard sweep at every thread count;
// BatchRunner promises per-job results independent of thread count and
// execution order. These tests are what makes the threaded simulator
// trustworthy — they are the ones CI also runs under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "graph/generators.hpp"
#include "labels/marker.hpp"
#include "mstalgo/sync_mst.hpp"
#include "sim/batch.hpp"
#include "sim/simulation.hpp"
#include "util/thread_pool.hpp"
#include "verify/verifier.hpp"

namespace ssmst {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 4, 7};

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(97);
  pool.run(97, [&](std::uint32_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, IsReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int job = 0; job < 50; ++job) {
    pool.run(10, [&](std::uint32_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPool, TaskExceptionsPropagateAndPoolSurvives) {
  for (unsigned threads : {1u, 4u}) {  // serial and parallel paths agree
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.run(20,
                          [&](std::uint32_t i) {
                            ran.fetch_add(1);
                            if (i == 7) throw std::runtime_error("boom");
                          }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 20);  // the barrier still completed every task
    std::atomic<int> after{0};
    pool.run(10, [&](std::uint32_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 10);  // and the pool is reusable afterwards
  }
}

TEST(ThreadPool, SingleLaneAndEmptyJobsWork) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  int calls = 0;
  pool.run(0, [&](std::uint32_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.run(5, [&](std::uint32_t) { ++calls; });  // serial: no races possible
  EXPECT_EQ(calls, 5);
}

// ------------------------------------------------- generic equivalence rig

/// Runs a serial and a pool-sharded simulation from the same initial
/// configuration in lock-step for `rounds` rounds and asserts bit-equal
/// registers plus identical SimulationStats after the sharded
/// construction-time accounting pass and after every round, for every
/// tested thread count. The factory returns a fresh protocol per sim so
/// any protocol-internal bookkeeping cannot couple the twins.
template <typename State, typename MakeProto>
void ExpectScheduleEquivalence(const WeightedGraph& g,
                               const std::vector<State>& init,
                               MakeProto make_proto, int rounds) {
  for (unsigned t : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << t);
    auto serial_proto = make_proto();
    auto sharded_proto = make_proto();
    ThreadPool pool(t);  // declared first: must outlive the simulation
    Simulation<State> serial(g, *serial_proto, init);
    Simulation<State> sharded(g, *sharded_proto, init, &pool);
    ASSERT_TRUE(serial.stats() == sharded.stats())
        << "stats diverged in the construction pass";
    for (int r = 0; r < rounds; ++r) {
      serial.sync_round();
      sharded.sync_round();
      ASSERT_TRUE(serial.states() == sharded.states())
          << "registers diverged at round " << r;
      ASSERT_TRUE(serial.stats() == sharded.stats())
          << "stats diverged at round " << r;
    }
    ASSERT_EQ(serial.stats().first_alarm, sharded.stats().first_alarm);
    ASSERT_EQ(serial.stats().peak_bits, sharded.stats().peak_bits);
    ASSERT_EQ(serial.alarm_times(), sharded.alarm_times());
  }
}

// -------------------------------------------------------------- toy protocol

/// Toy protocol with data-dependent state_bits and a late alarm,
/// so the peak-bits and alarm reductions are genuinely exercised.
struct ToyState {
  std::uint64_t value = 0;
  bool alarm = false;

  friend bool operator==(const ToyState&, const ToyState&) = default;
};

class SeededToy final : public Protocol<ToyState> {
 public:
  void step(NodeId v, ToyState& self, const NeighborReader<ToyState>& nbr,
            std::uint64_t) override {
    std::uint64_t m = self.value;
    for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
      m = std::max(m, nbr.at_port(p).value);
    }
    self.value = m + 1;
    if (self.value > 40 && v % 5 == 0) self.alarm = true;
  }
  std::size_t state_bits(const ToyState& s, NodeId) const override {
    return 8 + static_cast<std::size_t>(s.value % 57);
  }
  bool alarmed(const ToyState& s) const override { return s.alarm; }
  void corrupt(ToyState& s, NodeId, Rng& rng) const override {
    s.value = rng.next() % 97;
    s.alarm = rng.chance(0.5);
  }
};

std::vector<WeightedGraph> equivalence_graphs() {
  Rng rng(17);
  std::vector<WeightedGraph> gs;
  gs.push_back(gen::random_connected(48, 40, rng));
  gs.push_back(gen::star(33, rng));
  gs.push_back(gen::path(40, rng));
  return gs;
}

TEST(ParallelSim, SeededPathMatchesSerial) {
  for (const auto& g : equivalence_graphs()) {
    SCOPED_TRACE(g.summary());
    std::vector<ToyState> init(g.n());
    init[0].value = 3;
    ExpectScheduleEquivalence<ToyState>(
        g, init, [] { return std::make_unique<SeededToy>(); }, 100);
  }
}

// ------------------------------------------------------- VerifierProtocol

void ExpectVerifierEquivalence(const WeightedGraph& g, bool corrupted) {
  VerifierConfig cfg;
  const MarkerOutput marker = make_labels(g, cfg.pack);
  VerifierProtocol ref(g, cfg);
  std::vector<VerifierState> init = ref.initial_states(marker);
  if (corrupted) {
    // Deterministic adversarial start so alarms (first_alarm, alarmed
    // node sets, trace-triggering paths) are exercised under sharding.
    Rng crng(99);
    ref.corrupt(init[0], 0, crng);
    ref.corrupt(init[g.n() / 2], g.n() / 2, crng);
  }
  ExpectScheduleEquivalence<VerifierState>(
      g, init,
      [&] { return std::make_unique<VerifierProtocol>(g, cfg); }, 110);
}

TEST(ParallelSim, VerifierMatchesSerialOnRandomGraph) {
  Rng rng(21);
  auto g = gen::random_connected(40, 30, rng);
  ExpectVerifierEquivalence(g, false);
  ExpectVerifierEquivalence(g, true);
}

TEST(ParallelSim, VerifierMatchesSerialOnStar) {
  Rng rng(22);
  auto g = gen::star(25, rng);
  ExpectVerifierEquivalence(g, false);
  ExpectVerifierEquivalence(g, true);
}

TEST(ParallelSim, VerifierMatchesSerialOnPath) {
  Rng rng(23);
  auto g = gen::path(32, rng);
  ExpectVerifierEquivalence(g, false);
  ExpectVerifierEquivalence(g, true);
}

// ------------------------------------------------------------- SyncMst

void ExpectSyncMstEquivalence(const WeightedGraph& g) {
  SyncMstProtocol ref(g);
  ExpectScheduleEquivalence<SyncMstState>(
      g, ref.initial_states(),
      [&] { return std::make_unique<SyncMstProtocol>(g); }, 120);
}

TEST(ParallelSim, SyncMstMatchesSerial) {
  Rng rng(31);
  ExpectSyncMstEquivalence(gen::random_connected(36, 24, rng));
  ExpectSyncMstEquivalence(gen::star(20, rng));
  ExpectSyncMstEquivalence(gen::path(28, rng));
}

// ---------------------------------------------------------- BatchRunner

/// A sweep cell with rng-driven work of job-dependent length: runs a
/// small async simulation under the job's daemon rng and fingerprints
/// the trajectory. Any leakage of execution order into seeding or any
/// cross-job state would change the fingerprint.
std::uint64_t sweep_cell(const WeightedGraph& g, std::size_t i, Rng& rng) {
  class Flood final : public Protocol<ToyState> {
   public:
    void step(NodeId, ToyState& self, const NeighborReader<ToyState>& nbr,
              std::uint64_t) override {
      for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
        self.value = std::max(self.value, nbr.at_port(p).value);
      }
    }
    std::size_t state_bits(const ToyState&, NodeId) const override {
      return 64;
    }
  };
  Flood proto;
  std::vector<ToyState> init(g.n());
  init[i % g.n()].value = 1000 + i;
  Simulation<ToyState> sim(g, proto, init);
  const int units = 2 + static_cast<int>(i % 5);
  for (int u = 0; u < units; ++u) sim.async_unit(rng);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (NodeId v = 0; v < g.n(); ++v) {
    h = (h ^ sim.state(v).value) * 0x100000001b3ULL;
  }
  h = (h ^ rng.next()) * 0x100000001b3ULL;  // rng position matters too
  return h;
}

TEST(BatchRunner, SweepIsDeterministicAcrossThreadCountsAndReruns) {
  Rng grng(55);
  auto g = gen::random_connected(30, 25, grng);
  auto sweep = [&](unsigned threads) {
    BatchRunner runner(threads);
    return runner.map<std::uint64_t>(
        23, /*sweep_seed=*/0xfeedULL,
        [&](std::size_t i, Rng& rng) { return sweep_cell(g, i, rng); });
  };
  const auto base = sweep(1);
  ASSERT_EQ(base.size(), 23u);
  for (unsigned t : {2u, 4u, 7u}) {
    EXPECT_EQ(base, sweep(t)) << "threads=" << t;
  }
  EXPECT_EQ(base, sweep(4)) << "rerun at the same width";
}

TEST(BatchRunner, ResultsLandInJobOrder) {
  BatchRunner runner(4);
  const auto out = runner.map<std::size_t>(
      50, 1, [](std::size_t i, Rng&) { return i * 3 + 1; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 3 + 1);
}

TEST(BatchRunner, JobRngDependsOnlyOnSeedAndIndex) {
  Rng a = BatchRunner::job_rng(7, 0);
  Rng b = BatchRunner::job_rng(7, 0);
  Rng c = BatchRunner::job_rng(7, 1);
  Rng d = BatchRunner::job_rng(8, 0);
  const std::uint64_t a0 = a.next();
  EXPECT_EQ(a0, b.next());
  EXPECT_NE(a0, c.next());
  EXPECT_NE(a0, d.next());
}

// ----------------------------------- sharding respects tiny/odd graphs

TEST(ParallelSim, MoreThreadsThanNodes) {
  Rng rng(61);
  auto g = gen::path(3, rng);
  std::vector<ToyState> init(g.n());
  init[0].value = 5;
  SeededToy serial_proto, sharded_proto;
  ThreadPool pool(7);  // declared first: must outlive the simulation
  Simulation<ToyState> serial(g, serial_proto, init);
  Simulation<ToyState> sharded(g, sharded_proto, init, &pool);
  ASSERT_TRUE(serial.stats() == sharded.stats());
  for (int r = 0; r < 20; ++r) {
    serial.sync_round();
    sharded.sync_round();
    ASSERT_TRUE(serial.states() == sharded.states()) << "round " << r;
    ASSERT_TRUE(serial.stats() == sharded.stats()) << "round " << r;
  }
}

TEST(BatchRunner, ThrowingJobIsContainedPerSlot) {
  // Satellite of the fleet-service PR: one bad sweep cell records its
  // error in its own slot; the other N-1 results are bit-identical to a
  // sweep where nothing threw (same index-derived rngs, any thread count).
  Rng grng(56);
  auto g = gen::random_connected(30, 25, grng);
  BatchRunner runner(4);
  const std::size_t kJobs = 16;
  const std::size_t kBad = 5;
  const auto clean = runner.map<std::uint64_t>(
      kJobs, 90, [&](std::size_t i, Rng& rng) { return sweep_cell(g, i, rng); });
  const auto outcomes = runner.map_outcomes<std::uint64_t>(
      kJobs, 90, [&](std::size_t i, Rng& rng) -> std::uint64_t {
        if (i == kBad) throw std::runtime_error("cell 5 exploded");
        return sweep_cell(g, i, rng);
      });
  ASSERT_EQ(outcomes.size(), kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    if (i == kBad) {
      EXPECT_FALSE(outcomes[i].ok());
      EXPECT_EQ(outcomes[i].error, "cell 5 exploded");
    } else {
      ASSERT_TRUE(outcomes[i].ok()) << "job " << i << ": " << outcomes[i].error;
      EXPECT_EQ(*outcomes[i].value, clean[i]) << "job " << i;
    }
  }
}

TEST(BatchRunner, MapRethrowsTheLowestIndexFailureAndPoolSurvives) {
  BatchRunner runner(4);
  // Two failures: map must rethrow job 2's (the lowest index) at every
  // thread count — not whichever the scheduler happened to finish first.
  try {
    runner.map<int>(10, 7, [](std::size_t i, Rng&) -> int {
      if (i == 2) throw std::runtime_error("first");
      if (i == 8) throw std::runtime_error("second");
      return static_cast<int>(i);
    });
    FAIL() << "map must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("job 2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("first"), std::string::npos)
        << e.what();
  }
  // The whole sweep ran to the barrier before the rethrow: the pool is
  // immediately reusable.
  const auto out = runner.map<std::size_t>(
      12, 7, [](std::size_t i, Rng&) { return i + 1; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + 1);
}

TEST(BatchRunner, ThreadsFromArgvRejectsGarbageLoudly) {
  const unsigned hw = ThreadPool::hardware_threads();
  auto probe = [](const char* arg1) {
    char prog[] = "bench";
    // threads_from_argv takes char** (main's signature), so the probe
    // needs writable storage.
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s", arg1);
    char* argv[] = {prog, buf, nullptr};
    return threads_from_argv(2, argv);
  };
  char prog[] = "bench";
  char* no_args[] = {prog, nullptr};
  EXPECT_EQ(threads_from_argv(1, no_args), hw);
  EXPECT_EQ(probe("7"), 7u);
  EXPECT_EQ(probe("1"), 1u);
  // Garbage used to go through atoi() -> 0 -> silently floored to 1,
  // serializing the bench; now it falls back to the hardware default.
  EXPECT_EQ(probe("abc"), hw);
  EXPECT_EQ(probe("12x"), hw);
  EXPECT_EQ(probe("0"), hw);
  EXPECT_EQ(probe("9999999"), hw);
  // A leading --flag is not a thread count: positional default applies.
  EXPECT_EQ(probe("--json=out.json"), hw);
}

}  // namespace
}  // namespace ssmst

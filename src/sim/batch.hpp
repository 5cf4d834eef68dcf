#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ssmst {

/// Shared bench knob: thread count from argv[1], defaulting to the
/// hardware concurrency when absent or when argv[1] is a `--flag` (the
/// drivers keep the thread count positional and add flags after it).
///
/// A non-numeric positional used to go through atoi() -> 0 -> floored to
/// 1, so a typo'd argument quietly serialized the whole bench run. It now
/// rejects anything that is not a plain positive decimal with a loud
/// stderr message and falls back to the hardware default instead.
inline unsigned threads_from_argv(int argc, char** argv) {
  if (argc <= 1 || argv[1][0] == '-') return ThreadPool::hardware_threads();
  char* end = nullptr;
  const unsigned long v = std::strtoul(argv[1], &end, 10);
  if (end == argv[1] || *end != '\0' || v == 0 || v > 4096) {
    std::fprintf(stderr,
                 "threads_from_argv: '%s' is not a valid thread count; "
                 "falling back to the hardware default (%u)\n",
                 argv[1], ThreadPool::hardware_threads());
    return ThreadPool::hardware_threads();
  }
  return static_cast<unsigned>(v);
}

/// Per-slot outcome of a contained fan-out (BatchRunner::map_outcomes):
/// either the job's value or the message of the exception that destroyed
/// it. A throwing job is recorded in its own slot and every other slot is
/// unaffected — one bad sweep cell can no longer take down the batch.
template <typename R>
struct JobOutcome {
  std::optional<R> value;  ///< engaged iff the job returned normally
  std::string error;       ///< exception message when it threw
  bool ok() const { return value.has_value(); }
};

/// Fans out many *independent* simulation jobs (one parameter-sweep cell
/// each) across a thread pool, with deterministic per-job seeding and
/// stable result ordering.
///
/// The detection benches run thousands of independent sims; this is the
/// batching axis of the parallel engine (the other axis — sharding one
/// big sim's sync rounds *and* async drains — is the pool a Simulation
/// takes at construction).
///
/// Nested-pool rules: ThreadPool is not re-entrant, so a simulation driven
/// from inside a BatchRunner job must NOT have this runner's pool attached
/// — its sync rounds and parallel async drains would re-enter the pool the
/// job itself is running on. Give such sims no pool (their drains fall
/// back to the bit-identical sequential path) or a separate pool; give
/// the shared pool only to sims driven from the thread that owns the
/// runner, between map() calls.
///
/// Determinism contract: job i receives an Rng derived only from
/// (sweep_seed, i), never from execution order or thread identity, and
/// its result lands in slot i of the returned vector. Re-running the same
/// sweep — at any thread count — therefore yields identical results,
/// provided the job function itself is deterministic in (i, rng).
///
/// Exception contract: jobs are contained per slot (map_outcomes). map()
/// rethrows the lowest-index failure — deterministically, unlike the old
/// path that let exceptions propagate through the pool barrier (which
/// rethrew a scheduling-dependent one and left the result slots it then
/// moved through empty).
class BatchRunner {
 public:
  explicit BatchRunner(unsigned threads = ThreadPool::hardware_threads())
      : pool_(threads == 0 ? 1 : threads) {}

  unsigned threads() const { return pool_.threads(); }
  ThreadPool& pool() { return pool_; }

  /// The per-job seed. Rng's constructor already whitens its seed through
  /// splitmix64, so a golden-ratio stride over the job index is enough for
  /// independent streams across jobs and nearby sweep seeds.
  static std::uint64_t job_seed(std::uint64_t sweep_seed, std::size_t job) {
    return sweep_seed + 0x9e3779b97f4a7c15ULL * (job + 1);
  }

  /// The per-job generator, seeded with job_seed.
  static Rng job_rng(std::uint64_t sweep_seed, std::size_t job) {
    return Rng(job_seed(sweep_seed, job));
  }

  /// Runs job(i, rng) for i in [0, jobs) across the pool with per-job
  /// exception containment: slot i records either the job's value or the
  /// error that killed it, and the other jobs' slots are bit-identical to
  /// a run where job i did not throw (same index-derived rngs, any thread
  /// count).
  template <typename R, typename Fn>
  std::vector<JobOutcome<R>> map_outcomes(std::size_t jobs,
                                          std::uint64_t sweep_seed, Fn&& job) {
    std::vector<JobOutcome<R>> slots(jobs);
    pool_.run(static_cast<std::uint32_t>(jobs), [&](std::uint32_t i) {
      Rng rng = job_rng(sweep_seed, i);
      try {
        slots[i].value.emplace(job(static_cast<std::size_t>(i), rng));
      } catch (const std::exception& e) {
        slots[i].error = e.what();
      } catch (...) {
        slots[i].error = "non-std::exception thrown";
      }
      if (!slots[i].ok() && slots[i].error.empty()) {
        slots[i].error = "job threw with an empty message";
      }
    });
    return slots;
  }

  /// Runs job(i, rng) for i in [0, jobs) across the pool and returns the
  /// results in job-index order. R must be movable. If any job threw, the
  /// lowest-index error is rethrown as std::runtime_error after the whole
  /// sweep finished (so the pool is reusable and the failure is the same
  /// one at every thread count); callers that want the surviving N-1
  /// results use map_outcomes directly.
  template <typename R, typename Fn>
  std::vector<R> map(std::size_t jobs, std::uint64_t sweep_seed, Fn&& job) {
    std::vector<JobOutcome<R>> slots =
        map_outcomes<R>(jobs, sweep_seed, std::forward<Fn>(job));
    std::vector<R> out;
    out.reserve(jobs);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].ok()) {
        throw std::runtime_error("BatchRunner job " + std::to_string(i) +
                                 " failed: " + slots[i].error);
      }
      out.push_back(std::move(*slots[i].value));
    }
    return out;
  }

 private:
  ThreadPool pool_;
};

}  // namespace ssmst

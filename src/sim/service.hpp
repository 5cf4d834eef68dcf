#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/campaign.hpp"
#include "util/contract.hpp"
#include "util/thread_pool.hpp"

namespace ssmst {
namespace service {

/// Fault a tenant's instance is seeded with (the service injects it after
/// the tenant's warmup, mirroring the campaign classes it reuses). kPoison
/// throws mid-episode — it exists to prove the scheduler's exception
/// containment, not to model a protocol fault.
enum class TenantFault : std::uint8_t {
  kNone,           ///< healthy tenant: plain verification traffic
  kRegisterTamper, ///< load-bearing permanent-piece lie (must detect)
  kAuxQueueDrop,   ///< piece lie + consistent pending-queue wipe (watchdog)
  kArenaTruncate,  ///< label header zeroed: structural, reseed cannot fix
  kPoison,         ///< episode throws: exercises fleet exception containment
};

const char* fault_name(TenantFault f);

/// One tenant's admission request: instance shape, seeded fault, and an
/// admission priority (higher = keep longer under overload; ties shed the
/// newest arrival first, deterministically).
struct TenantSpec {
  NodeId n = 48;
  campaign::GraphFamily family = campaign::GraphFamily::kRandom;
  TenantFault fault = TenantFault::kNone;
  std::uint32_t priority = 1;
};

/// Terminal lifecycle states (the state machine in the
/// VerificationService class comment).
enum class TenantOutcome : std::uint8_t {
  kPending,     ///< admitted, not yet dispatched
  kHealthy,     ///< ran its traffic quiet, final audit clean
  kRepaired,    ///< fault detected; its damage is what the reseed rewrites
  kQuarantined, ///< isolated: undetected past deadline, or register damage
  kShed,        ///< dropped by admission control before running
  kError,       ///< episode failed outside the fault model (incl. kPoison)
};

const char* outcome_name(TenantOutcome o);

/// Structured per-tenant result. Everything except `wall_ns` is a pure
/// function of (service_seed, tenant index, spec) — the fleet determinism
/// contract pinned by tests/test_service.cpp — so reports are comparable
/// across thread counts and against run_solo baselines with
/// deterministic_equal. `wall_ns` is SLO metrology only (0 unless the
/// configuration injects a wall clock) and never feeds the digest.
struct TenantReport {
  std::size_t index = 0;
  TenantOutcome outcome = TenantOutcome::kPending;
  std::uint32_t priority = 0;
  bool detected = false;              ///< fault surfaced (alarm or audit)
  std::uint64_t detection_units = 0;  ///< units injection -> detection
  std::uint32_t strikes = 0;          ///< 1 iff the deadline expired undetected
  std::uint64_t units_used = 0;       ///< logical units after injection
  std::uint64_t deadline_units = 0;   ///< the tenant's deadline budget
  std::uint64_t audits = 0;
  std::uint64_t audit_violations = 0;
  std::uint64_t repairs = 0;          ///< watchdog reseed repairs applied
  std::uint64_t result_digest = 0;    ///< FNV over the semantic end state
  std::uint64_t arena_bytes_reclaimed = 0;  ///< slabs returned at teardown
  std::uint64_t wall_ns = 0;          ///< SLO only; NOT deterministic
  std::string error;                  ///< reason for kError / kShed
};

/// Report equality over the deterministic fields (everything but
/// wall_ns): the comparison the thread-count and solo-baseline pins use.
bool deterministic_equal(const TenantReport& a, const TenantReport& b);

/// Chained service configuration (the builder idiom the ROADMAP names
/// from GraphStreamingCC/graphzeppelin): every setter returns *this, so a
/// service is configured in one expression —
///
///   VerificationService svc(ServiceConfiguration()
///                               .threads(8)
///                               .queue_capacity(128)
///                               .service_seed(42));
///
/// The episode's own budgets are fixed: 64 quiet warmup units, 256 traffic
/// units for a healthy tenant, and a deadline of 24 * watchdog_budget_for(n)
/// logical units for a faulted tenant's detection (sim/service.cpp).
class ServiceConfiguration {
 public:
  /// Scheduler lanes (ThreadPool width). 0 is treated as 1.
  ServiceConfiguration& threads(unsigned v) { threads_ = v; return *this; }
  /// Admission bound: max tenants pending at once; the next submit past
  /// it sheds the lowest-priority pending tenant (newest on ties).
  ServiceConfiguration& queue_capacity(std::size_t v) {
    queue_capacity_ = v;
    return *this;
  }
  ServiceConfiguration& service_seed(std::uint64_t v) {
    service_seed_ = v;
    return *this;
  }
  /// Optional wall clock for per-tenant SLO timing (bench_service injects
  /// steady_clock from bench code; src/ result paths stay clock-free —
  /// determinism rule R4). Null (the default) leaves wall_ns at 0.
  ServiceConfiguration& wall_clock(std::function<std::uint64_t()> fn) {
    wall_clock_ = std::move(fn);
    return *this;
  }

  unsigned threads() const { return threads_; }
  std::size_t queue_capacity() const { return queue_capacity_; }
  std::uint64_t service_seed() const { return service_seed_; }
  const std::function<std::uint64_t()>& wall_clock() const {
    return wall_clock_;
  }

 private:
  unsigned threads_ = ThreadPool::hardware_threads();
  std::size_t queue_capacity_ = 256;
  std::uint64_t service_seed_ = 1;
  std::function<std::uint64_t()> wall_clock_;
};

/// Fault-contained multi-tenant verification service: the fleet layer the
/// ROADMAP's "millions of users" architecture runs on. Hundreds of
/// independent tenant simulations are driven over one shared ThreadPool,
/// whose dynamic task claiming (a shared atomic counter every lane steals
/// work from) is the work-stealing scheduler; per-tenant results stay a
/// pure function of (service_seed, tenant index) at every thread count —
/// only wall-clock SLO timings vary with scheduling.
///
/// # Tenant lifecycle state machine
///
///   submitted --admission--> admitted (kPending)
///       \--overflow: lowest-priority pending tenant--> kShed
///   admitted --drain/dispatch--> running
///   running:
///     no fault, traffic quiet, final audit clean ............ kHealthy
///     fault detected (an alarm, or a watchdog trip whose audit
///       fails) within the deadline (24 * watchdog_budget_for(n)
///       units); the episode ends there with one audit, which
///       - finds no register damage: the damage was aux state
///         the watchdog's reseed repair rewrites ............ kRepaired
///       - finds register damage (e.g. a truncated label
///         header), which no reseed rewrites ................ kQuarantined
///     undetected once the deadline budget is spent ......... kQuarantined
///     episode threw (e.g. kPoison) ......................... kError
///
/// Every terminal state carries a structured TenantReport; no tenant can
/// stall the fleet — deadlines are logical-unit budgets enforced inside
/// the episode, exceptions are contained per tenant, and a quarantined or
/// errored tenant simply ends its episode early.
///
/// # Slab-reclaim contract
///
/// Each tenant's episode runs inside a LabelArenaPool::TenantScope tagged
/// with its tenant key, so every arena its marking acquires is attributed
/// to it. Episode teardown — normal, quarantined, or exceptional (the
/// harness unwinds) — drops the arena references, which books the live
/// stripe bytes to the tenant's reclaim counter and parks the slab for
/// the next tenant: quarantine reclaims slabs, never leaks them
/// (TenantReport::arena_bytes_reclaimed; pool-level counters in
/// labels/arena.hpp).
///
/// # Scheduling & determinism
///
/// drain() dispatches every slot over the pool; dispatch_one (the
/// steady-state hot path: claim, check, skip) runs completed slots in a
/// branch and enters the cold SSMST_ALLOC_OK episode only for pending
/// ones, so a long-lived service re-draining its slot table does zero
/// steady-state allocations (tests/test_alloc_free.cpp). Tenant sims
/// never see the service pool (ThreadPool is not re-entrant; the
/// nested-pool rules in sim/batch.hpp) — each episode is single-threaded
/// and seeded by tenant_tag(service_seed, index), which is what makes
/// reports bit-identical across 1/4/8 scheduler threads.
class VerificationService {
 public:
  explicit VerificationService(ServiceConfiguration cfg);

  /// Admission control: appends a report slot for the tenant and, past
  /// queue_capacity pending tenants, sheds the lowest-priority pending
  /// one (the newest on priority ties) with outcome kShed. Returns false
  /// iff the tenant just submitted was the one shed.
  bool submit(const TenantSpec& spec);

  /// Dispatches every pending tenant over the pool and returns the full
  /// report table (slot i = submission i, including shed tenants).
  /// Idempotent over completed slots: a long-lived service alternates
  /// submit()/drain() cycles and re-dispatching finished tenants is a
  /// steady-state no-op.
  const std::vector<TenantReport>& drain();

  const std::vector<TenantReport>& reports() const { return reports_; }
  std::size_t pending() const { return pending_; }
  unsigned threads() const { return pool_.threads(); }

  /// The per-tenant accounting key used for LabelArenaPool attribution,
  /// and also the tenant's episode seed (BatchRunner::job_seed over the
  /// index).
  static std::uint64_t tenant_tag(std::uint64_t service_seed,
                                  std::size_t index);

  /// Runs one tenant's episode alone — same seed derivation as the fleet
  /// path, so a fleet report must deterministic_equal this baseline. The
  /// cross-tenant isolation pins (tests/test_service.cpp,
  /// tests/test_aux_faults.cpp) compare against it.
  static TenantReport run_solo(const ServiceConfiguration& cfg,
                               const TenantSpec& spec, std::size_t index);

 private:
  /// Steady-state dispatch: claim a slot, skip it if terminal, hand
  /// pending ones to the cold episode path.
  SSMST_HOT_PATH void dispatch_one(std::uint32_t slot);
  /// Cold per-tenant episode wrapper: exception containment + SLO timing.
  SSMST_ALLOC_OK void run_tenant(std::uint32_t slot);

  ServiceConfiguration cfg_;
  ThreadPool pool_;
  std::vector<TenantSpec> specs_;
  std::vector<TenantReport> reports_;
  std::size_t pending_ = 0;
  /// Reused dispatch closure (captures `this` only, so it lives in
  /// std::function's inline buffer: drain() allocates nothing itself).
  std::function<void(std::uint32_t)> dispatch_fn_;
};

}  // namespace service
}  // namespace ssmst

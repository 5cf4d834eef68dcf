#include "sim/service.hpp"

#include <span>
#include <stdexcept>
#include <utility>

#include "labels/arena.hpp"
#include "sim/batch.hpp"
#include "sim/faults.hpp"
#include "verify/metrology.hpp"

namespace ssmst {
namespace service {

const char* fault_name(TenantFault f) {
  switch (f) {
    case TenantFault::kNone: return "none";
    case TenantFault::kRegisterTamper: return "register_tamper";
    case TenantFault::kAuxQueueDrop: return "aux_queue_drop";
    case TenantFault::kArenaTruncate: return "arena_truncate";
    case TenantFault::kPoison: return "poison";
  }
  return "?";
}

const char* outcome_name(TenantOutcome o) {
  switch (o) {
    case TenantOutcome::kPending: return "pending";
    case TenantOutcome::kHealthy: return "healthy";
    case TenantOutcome::kRepaired: return "repaired";
    case TenantOutcome::kQuarantined: return "quarantined";
    case TenantOutcome::kShed: return "shed";
    case TenantOutcome::kError: return "error";
  }
  return "?";
}

bool deterministic_equal(const TenantReport& a, const TenantReport& b) {
  return a.index == b.index && a.outcome == b.outcome &&
         a.priority == b.priority && a.detected == b.detected &&
         a.detection_units == b.detection_units && a.strikes == b.strikes &&
         a.units_used == b.units_used &&
         a.deadline_units == b.deadline_units && a.audits == b.audits &&
         a.audit_violations == b.audit_violations && a.repairs == b.repairs &&
         a.result_digest == b.result_digest &&
         a.arena_bytes_reclaimed == b.arena_bytes_reclaimed &&
         a.error == b.error;
}

namespace {

/// Episode budgets (VerificationService class comment): a faulted tenant
/// runs until its fault is detected or kDeadlineFactor *
/// watchdog_budget_for(n) units have passed; every tenant first holds
/// kWarmupUnits quiet, and a healthy one serves kWorkUnits before its
/// final audit.
constexpr std::uint64_t kDeadlineFactor = 24;
constexpr std::uint64_t kWarmupUnits = 64;
constexpr std::uint64_t kWorkUnits = 256;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv(std::uint64_t h, std::uint64_t x) {
  return (h ^ x) * kFnvPrime;
}

/// One tenant's episode body: warmup, fault injection, then either the
/// healthy traffic or one detection run and one audit (lifecycle state
/// machine in the VerificationService class comment). Deterministic in
/// (cfg, spec, index); drives its simulation single-threaded — the
/// nested-pool rules in sim/batch.hpp forbid attaching the service pool.
/// Leaves a state digest in r.result_digest; the wrapper folds the scalar
/// outcome fields and the arena reclaim over it.
void run_episode(const ServiceConfiguration& cfg, const TenantSpec& spec,
                 std::size_t index, TenantReport& r) {
  // One key both seeds the episode and tags its slabs: every arena the
  // marking below acquires belongs to this tenant until the harness
  // unwinds (slab-reclaim contract).
  const std::uint64_t tag =
      VerificationService::tenant_tag(cfg.service_seed(), index);
  LabelArenaPool::TenantScope scope(tag);
  Rng root(tag);
  Rng grng = root.split();
  Rng frng = root.split();
  Rng daemon = root.split();
  // Unused draw: root.next() below seeds the harness's daemon, so dropping
  // this split would reschedule every tenant.
  root.split();

  WeightedGraph g = campaign::make_family_graph(spec.family, spec.n, grng);
  VerifierConfig vcfg;
  vcfg.sync_mode = false;
  VerifierHarness h(g, vcfg, root.next());
  VerifierSim& sim = h.sim();

  const std::uint64_t base = watchdog_budget_for(g.n());
  r.deadline_units = kDeadlineFactor * base;

  if (h.run(kWarmupUnits).has_value()) {
    r.outcome = TenantOutcome::kError;
    r.error = "false alarm during warmup";
    return;
  }

  // ---- fault injection (post-warmup, the campaign convention) ----
  const bool faulted = spec.fault != TenantFault::kNone;
  switch (spec.fault) {
    case TenantFault::kNone:
      break;
    case TenantFault::kPoison:
      // Contained by the service's per-tenant catch: proves one throwing
      // tenant cannot stall or poison the fleet.
      throw std::runtime_error("poison tenant: deliberate episode failure");
    case TenantFault::kRegisterTamper:
    case TenantFault::kAuxQueueDrop: {
      const auto victim = h.tamper_loadbearing_piece(frng.next() % 1024);
      if (!victim) {
        r.outcome = TenantOutcome::kError;
        r.error = "no load-bearing piece on this instance";
        return;
      }
      if (spec.fault == TenantFault::kAuxQueueDrop) {
        sim.aux_suppress_pending();
      }
      break;
    }
    case TenantFault::kArenaTruncate: {
      const std::vector<NodeId> victims = pick_fault_nodes(g.n(), 1, frng);
      aux_silent_mutate(sim, std::span<const NodeId>(victims),
                        [](NodeId, VerifierState& s) {
                          s.labels.set_string_length(0);
                        });
      break;
    }
  }

  sim.set_watchdog(base);

  if (!faulted) {
    // Healthy traffic: serve kWorkUnits quiet, then a final audit.
    std::uint64_t i = 0;
    for (; i < kWorkUnits && !sim.first_alarm_time(); ++i) {
      sim.async_unit(daemon, vcfg.daemon);
    }
    r.units_used = i;
    const AuditReport rep = sim.audit();
    if (sim.first_alarm_time().has_value()) {
      r.outcome = TenantOutcome::kError;
      r.error = "false alarm on a healthy tenant";
    } else if (!rep.ok()) {
      r.outcome = TenantOutcome::kError;
      r.error = "healthy tenant failed its final audit";
    } else {
      r.outcome = TenantOutcome::kHealthy;
    }
  } else {
    // Detection is a protocol alarm or — for faults with no register
    // symptom — the watchdog-trip audit reporting violations (the
    // campaign detection convention, sim/campaign.cpp).
    const std::uint64_t viol0 = sim.stats().audit_violations;
    const auto detected_now = [&] {
      return sim.first_alarm_time().has_value() ||
             sim.stats().audit_violations > viol0;
    };
    std::uint64_t i = 0;
    for (; i < r.deadline_units && !detected_now(); ++i) {
      sim.async_unit(daemon, vcfg.daemon);
    }
    r.units_used = i;
    r.detected = detected_now();
    if (!r.detected) {
      // Deadline budget spent with nothing surfaced: isolate the tenant
      // rather than let it keep consuming fleet capacity.
      r.strikes = 1;
      r.outcome = TenantOutcome::kQuarantined;
      r.error = "undetected within the deadline budget";
    } else {
      r.detection_units = r.units_used;
      if (sim.audit().register_violations == 0) {
        // Aux damage the watchdog's reseed repair rewrites (or already
        // rewrote); the sticky alarm is the detection evidence.
        r.outcome = TenantOutcome::kRepaired;
      } else {
        // Register damage (e.g. a truncated label header) lives in state
        // the reseed cannot rewrite; only a re-mark of the instance could.
        r.outcome = TenantOutcome::kQuarantined;
        r.error = "register damage the reseed repair cannot rewrite";
      }
    }
  }

  // ---- semantic end-state digest (never raw register bytes: NodeLabels
  // holds arena pointers, which differ across runs) ----
  const VerifierSim& csim = sim;
  const SimulationStats& st = csim.stats();
  std::uint64_t d = kFnvOffset;
  d = fnv(d, st.rounds);
  d = fnv(d, st.units);
  d = fnv(d, st.activations);
  d = fnv(d, st.effective_steps);
  d = fnv(d, st.first_alarm.value_or(~std::uint64_t{0}));
  d = fnv(d, st.alarmed_nodes);
  for (NodeId v = 0; v < g.n(); ++v) {
    const VerifierState& s = csim.states()[v];
    d = fnv(d, (std::uint64_t{s.parent_port} << 8) ^
                   static_cast<std::uint64_t>(s.alarm));
    d = fnv(d, s.labels.string_length());
  }
  r.result_digest = d;

  r.audits = st.audits;
  r.audit_violations = st.audit_violations;
  r.repairs = st.repairs;
}

/// Episode wrapper: exception containment, slab-reclaim accounting, the
/// digest fold over the scalar report fields, and SLO wall timing (only
/// when the configuration injected a clock — src/ stays clock-free).
void run_contained(const ServiceConfiguration& cfg, const TenantSpec& spec,
                   std::size_t index, TenantReport& r) {
  r.index = index;
  r.priority = spec.priority;
  const std::uint64_t tag =
      VerificationService::tenant_tag(cfg.service_seed(), index);
  auto& arenas = LabelArenaPool::instance();
  const std::uint64_t reclaimed0 = arenas.tenant_reclaimed_bytes(tag);
  const bool timed = static_cast<bool>(cfg.wall_clock());
  const std::uint64_t w0 = timed ? cfg.wall_clock()() : 0;
  try {
    run_episode(cfg, spec, index, r);
  } catch (const std::exception& e) {
    r.outcome = TenantOutcome::kError;
    r.error = e.what();
  } catch (...) {
    r.outcome = TenantOutcome::kError;
    r.error = "non-std::exception thrown";
  }
  if (r.outcome == TenantOutcome::kPending) {
    r.outcome = TenantOutcome::kError;
    r.error = "episode ended without an outcome";
  }
  // The episode's unwound harness released its arenas through the tagged
  // scope, so the reclaim delta is visible here even for kError/kPoison.
  r.arena_bytes_reclaimed = arenas.tenant_reclaimed_bytes(tag) - reclaimed0;
  std::uint64_t d = r.result_digest == 0 ? kFnvOffset : r.result_digest;
  d = fnv(d, static_cast<std::uint64_t>(r.outcome));
  d = fnv(d, r.detected ? 1 : 0);
  d = fnv(d, r.detection_units);
  d = fnv(d, r.strikes);
  d = fnv(d, r.units_used);
  d = fnv(d, r.deadline_units);
  d = fnv(d, r.audits);
  d = fnv(d, r.audit_violations);
  d = fnv(d, r.repairs);
  d = fnv(d, r.arena_bytes_reclaimed);
  for (const char c : r.error) d = fnv(d, static_cast<std::uint64_t>(
                                              static_cast<unsigned char>(c)));
  r.result_digest = d;
  if (timed) r.wall_ns = cfg.wall_clock()() - w0;
}

}  // namespace

std::uint64_t VerificationService::tenant_tag(std::uint64_t service_seed,
                                              std::size_t index) {
  return BatchRunner::job_seed(service_seed, index);
}

VerificationService::VerificationService(ServiceConfiguration cfg)
    : cfg_(std::move(cfg)),
      pool_(cfg_.threads() == 0 ? 1 : cfg_.threads()),
      dispatch_fn_([this](std::uint32_t slot) { dispatch_one(slot); }) {}

bool VerificationService::submit(const TenantSpec& spec) {
  const std::size_t index = specs_.size();
  specs_.push_back(spec);
  reports_.emplace_back();
  reports_.back().index = index;
  reports_.back().priority = spec.priority;
  ++pending_;
  if (pending_ <= cfg_.queue_capacity()) return true;
  // Overload: shed the lowest-priority pending tenant; on priority ties
  // the newest arrival loses (the incoming tenant itself on a full tie) —
  // a pure function of the submission sequence, never of scheduling.
  std::size_t victim = index;
  std::uint32_t low = specs_[index].priority;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (reports_[i].outcome != TenantOutcome::kPending) continue;
    if (specs_[i].priority <= low) {
      low = specs_[i].priority;
      victim = i;
    }
  }
  reports_[victim].outcome = TenantOutcome::kShed;
  reports_[victim].error = "shed: admission queue over capacity";
  --pending_;
  return victim != index;
}

const std::vector<TenantReport>& VerificationService::drain() {
  pool_.run(static_cast<std::uint32_t>(reports_.size()), dispatch_fn_);
  std::size_t still = 0;
  for (const TenantReport& r : reports_) {
    if (r.outcome == TenantOutcome::kPending) ++still;
  }
  pending_ = still;
  return reports_;
}

SSMST_HOT_PATH void VerificationService::dispatch_one(std::uint32_t slot) {
  // Steady-state fleet dispatch: a completed slot costs one branch and no
  // allocation, so a long-lived service can re-drain its slot table
  // forever; only pending tenants enter the cold episode path.
  if (reports_[slot].outcome != TenantOutcome::kPending) return;
  run_tenant(slot);
}

// SSMST_ALLOC_OK: a tenant episode allocates by design — graph
// generation, marking and harness construction are the cold one-shot
// setup under the hot dispatch loop, entered at most once per tenant.
SSMST_ALLOC_OK void VerificationService::run_tenant(std::uint32_t slot) {
  run_contained(cfg_, specs_[slot], slot, reports_[slot]);
}

TenantReport VerificationService::run_solo(const ServiceConfiguration& cfg,
                                           const TenantSpec& spec,
                                           std::size_t index) {
  TenantReport r;
  run_contained(cfg, spec, index, r);
  return r;
}

}  // namespace service
}  // namespace ssmst

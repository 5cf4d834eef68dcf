#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <vector>

#include "labels/labels.hpp"
#include "labels/marker.hpp"
#include "sim/protocol.hpp"
#include "sim/simulation.hpp"
#include "util/contract.hpp"

namespace ssmst {

/// Reasons a node raises an alarm; kept as a small code in the register
/// (the full text is traced out-of-band for tests and debugging).
enum class AlarmReason : std::uint8_t {
  kNone = 0,
  kLabels,        ///< a 1-round label check failed (SP/NumK/RS/EPS/partition)
  kStreamOrder,   ///< train pieces out of cyclic order / too many per cycle
  kShowFill,      ///< piece presence contradicts the strings at Show fill
  kPairCheck,     ///< an event comparison failed (C1/C2/equality/root id)
  kTrainStall,    ///< a train stopped delivering pieces (timeout)
  kAskStall,      ///< the Ask cycle failed to complete in time (timeout)
};

/// Runtime registers of one train (Section 7.1): the DFS convergecast
/// generator with its outgoing car, the pipelined broadcast car, and the
/// stream watcher used for cyclic-order checks and Show filling.
struct TrainRt {
  // Convergecast generator.
  enum class Stage : std::uint8_t { kEmitOwn = 0, kDrainChild = 1, kDone = 2 };
  Stage stage = Stage::kDone;
  std::uint8_t emit_idx = 0;        ///< next own permanent piece
  std::uint32_t child_port = kNoPort;  ///< child currently drained
  std::uint32_t child_taken = 0;    ///< seq of last piece consumed from it
  std::uint32_t cycle = 0;          ///< cycle id (mod 64); wake handshake
  bool finished = false;            ///< published: subtree stream exhausted

  // Outgoing car (consumed by the part parent; unused at the part root).
  Piece out_piece;
  bool out_valid = false;
  std::uint32_t out_seq = 0;

  // Broadcast car (copied by part children).
  Piece bc_piece;
  bool bc_valid = false;
  bool bc_flag = false;  ///< membership flag (meaningful for bottom trains)
  std::uint32_t bc_seq = 0;

  // Stream watcher (local bookkeeping over the own broadcast stream).
  std::uint32_t last_seen_seq = 0;
  bool prev_valid = false;
  std::uint32_t prev_level = 0;
  std::uint64_t prev_root_id = 0;
  std::uint32_t pieces_since_wrap = 0;
  std::uint32_t stall_timer = 0;  ///< activations since bc_seq last changed

  friend bool operator==(const TrainRt&, const TrainRt&) = default;
};

/// The per-level Show window (Section 7.2): presents, in cyclic level
/// order, the piece I(F_j(v)) or an explicit "no fragment at this level"
/// entry, so neighbours can compare without extra memory.
struct ShowRt {
  std::uint32_t level = 0;
  bool filled = false;
  bool present = false;  ///< false = the node has no fragment at `level`
  Piece piece;
  bool watching = false;  ///< absence-evidence window is armed
  std::uint32_t dwell = 0;  ///< activations since filled
  std::uint32_t hold = 0;   ///< activations spent holding for wanters

  friend bool operator==(const ShowRt&, const ShowRt&) = default;
};

/// The Ask comparison driver (Section 7.2): holds the node's own piece for
/// its current level and compares it against every neighbour.
struct AskRt {
  enum class Stage : std::uint8_t { kWaitPiece = 0, kCompare = 1 };
  Stage stage = Stage::kWaitPiece;
  std::uint32_t level = 0;
  bool present = false;
  Piece piece;
  std::uint32_t window = 0;     ///< sync mode: rounds left in the window
  std::uint32_t scan_port = 0;  ///< async mode: neighbour being served
  std::uint32_t cycle_timer = 0;  ///< activations since last full cycle

  friend bool operator==(const AskRt&, const AskRt&) = default;
};

/// Client request register (asynchronous comparison, Section 7.2.2).
struct WantRt {
  bool active = false;
  std::uint32_t port = 0;   ///< the node's own port toward the server
  std::uint32_t level = 0;  ///< requested level

  friend bool operator==(const WantRt&, const WantRt&) = default;
};

/// The complete public register of a verifier node: the component, the
/// labels, and the runtime state. Everything here may be corrupted by the
/// adversary; the verifier must detect any resulting non-MST situation.
struct VerifierState {
  std::uint32_t parent_port = kNoPort;  ///< component c(v)
  NodeLabels labels;
  TrainRt train[2];  ///< [0] = top partition train, [1] = bottom
  ShowRt show;
  AskRt ask;
  WantRt want;
  AlarmReason alarm = AlarmReason::kNone;

  /// Bit-exact register equality; the schedule-equivalence tests rely on
  /// it to pin the parallel engine to the serial one.
  friend bool operator==(const VerifierState&, const VerifierState&) = default;
};

// The striped-arena register contract (see sim/protocol.hpp): the verifier
// register is one contiguous trivially-copyable block whose label payload
// is a stripe view into the simulation's arena, so seeding/copying a
// register is a flat header memcpy and steady-state sync rounds never
// touch the allocator. The label stripes themselves live once per
// simulation (adopt_register_file clones them in at construction).
static_assert(std::is_trivially_copyable_v<VerifierState>);

/// Sync Ask window: kAskWindowFactor*(theta+L+2) rounds. Must cover a full
/// neighbour Show cycle (~ train cycle ~ 2k + 2*diam <= ~20*theta),
/// otherwise a level's comparison events can be missed; 32 gives a 2-3x
/// margin.
inline constexpr std::uint32_t kAskWindowFactor = 32;
/// Ask timeout: a comparison cycle that has not completed within
/// kAskBudgetFactor*(L+1) windows (sync) or handshakes (async) alarms.
inline constexpr std::uint32_t kAskBudgetFactor = 16;

/// How a verifier instance runs. The protocol's timeouts are fixed
/// multiples of its scale (kAskWindowFactor, kAskBudgetFactor and the
/// train and Show constants in verifier.cpp); none of the paper's bounds
/// depends on a tuning value.
struct VerifierConfig {
  bool sync_mode = true;  ///< window-scan (sync) vs Want-handshake (async)
  /// Pieces stored per node when the harness marks the instance (>= 2);
  /// larger packs shorten the trains (the memory-for-time extension).
  /// Still capped at kLabelPackCap — the arena could store more, but the
  /// ablation suite's historical axis is kept stable.
  std::uint32_t pack = 2;
  /// VerifierHarness pool width (1 = serial). The pool exists from
  /// construction, so it shards the construction-time accounting pass,
  /// every sync round, and the async drains large enough to run in
  /// parallel. Results are bit-identical at any value.
  unsigned threads = 1;
  /// Async-mode daemon discipline for VerifierHarness (ignored in sync
  /// mode). kAdversarial opens the worst-case stale-first workload family
  /// for detection-latency experiments.
  DaemonOrder daemon = DaemonOrder::kRandom;
};

/// The composed self-stabilizing MST verifier (Sections 5-8).
class VerifierProtocol final : public Protocol<VerifierState> {
 public:
  VerifierProtocol(const WeightedGraph& g, VerifierConfig cfg);

  SSMST_HOT_PATH void step(NodeId v, VerifierState& self,
                           const NeighborReader<VerifierState>& nbr,
                           std::uint64_t time) override;

  /// Activation-queue change test (exact, O(1) on top of step): alarms are
  /// sticky — an alarmed node's step returns immediately, so it is
  /// quiescent until a register write re-enables it; every live node
  /// advances at least one runtime timer per activation, so it always
  /// changes. Alarmed regions therefore stop costing daemon work, which is
  /// what makes sparse post-detection async units cheap.
  SSMST_HOT_PATH bool step_changed(NodeId v, VerifierState& self,
                                   const NeighborReader<VerifierState>& nbr,
                                   std::uint64_t time) override {
    if (self.alarm != AlarmReason::kNone) return false;  // sticky: no-op
    step(v, self, nbr, time);
    return true;
  }

  /// Per-simulation label storage: clones every register's label stripes
  /// into a pooled arena owned by the adopting simulation, so the marker's
  /// pristine labels (and any other simulation's) are never written
  /// through by this simulation's faults.
  std::shared_ptr<void> adopt_register_file(
      std::vector<VerifierState>& regs) override;

  std::size_t state_bits(const VerifierState& s, NodeId v) const override;
  bool alarmed(const VerifierState& s) const override {
    return s.alarm != AlarmReason::kNone;
  }
  void corrupt(VerifierState& s, NodeId v, Rng& rng) const override;
  /// Structural register audit for the total-state fault model: checks the
  /// label header's arena coordinates against the arena's live stripe
  /// sizes, the capacity==live-length install contract, pack counts, and
  /// the parent port's range. Catches header corruption (e.g. an
  /// arena-truncate fault) before any stripe view reads through it; does
  /// not judge protocol semantics — that is the verifier's own job.
  bool audit_state(const VerifierState& s, NodeId v) const override;

  /// The legal initial configuration produced by the marker: labels
  /// installed, trains at cycle start, timers zero. The returned states'
  /// labels alias the *marker's* arena — a zero-copy install; the
  /// simulation that adopts them clones the payload into its own arena
  /// (adopt_register_file), so the marker must stay alive only until
  /// construction.
  std::vector<VerifierState> initial_states(const MarkerOutput& marker) const;

  const VerifierConfig& config() const { return cfg_; }

  /// Out-of-band trace of (node, reason, description) for the first alarm
  /// at each node; consumed by tests. Appends are mutex-guarded so steps
  /// may run concurrently (parallel sync rounds); within one parallel
  /// round the append *order* is unspecified, and readers must not overlap
  /// a round in flight.
  struct AlarmEvent {
    NodeId node;
    AlarmReason reason;
    /// Static text, never owned: describe(LabelViolation) for a failed
    /// label check, a fixed literal for train, Show and Ask alarms.
    const char* detail;
  };
  const std::vector<AlarmEvent>& alarm_trace() const { return trace_; }
  void clear_trace() {
    std::lock_guard<std::mutex> lk(trace_mu_);
    trace_.clear();
  }

 private:
  // `scale` is theta + L + 2 for the node's claimed n and its string
  // length L: every timeout is a multiple of it. step computes it once.
  void run_trains(NodeId v, VerifierState& self,
                  const NeighborReader<VerifierState>& nbr,
                  std::uint32_t scale);
  void run_show(NodeId v, VerifierState& self,
                const NeighborReader<VerifierState>& nbr);
  void run_ask(NodeId v, VerifierState& self,
               const NeighborReader<VerifierState>& nbr, std::uint32_t scale);

  // Alarms are sticky, so each node appends its trace entry at most once
  // per episode; `detail` is static text.
  void raise(NodeId v, VerifierState& self, AlarmReason reason,
             const char* detail);

  bool piece_is_mine(const VerifierState& self, int which,
                     const Piece& piece, bool bc_flag) const;

  std::uint64_t part_root_id(const VerifierState& self, int which) const {
    return which == 0 ? self.labels.top_part_root_id
                      : self.labels.bot_part_root_id;
  }

  const WeightedGraph* g_;
  VerifierConfig cfg_;
  mutable std::vector<AlarmEvent> trace_;
  mutable std::mutex trace_mu_;  ///< guards trace_ during parallel rounds
  // state_bits runs after every activation; its n-dependent widths are
  // fixed at construction.
  LabelWidths widths_;
  std::uint64_t timer_cube_;  ///< (ceil_log2(n) + 2)^3 of the timer bound
};

/// Convenience: simulation type for the verifier.
using VerifierSim = Simulation<VerifierState>;

}  // namespace ssmst

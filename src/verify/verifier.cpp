#include "verify/verifier.hpp"

#include <algorithm>

#include "labels/verify1.hpp"
#include "util/bits.hpp"

namespace ssmst {

namespace {

std::pair<std::uint32_t, std::uint64_t> key_of(const Piece& p) {
  return {p.level, p.root_id};
}

/// Longest a node holds its Show level for wanting neighbours.
constexpr std::uint32_t kShowHoldCap = 8;
/// Train timeout: kTrainStallFactor*(theta+L+2) activations without a
/// delivered piece.
constexpr std::uint32_t kTrainStallFactor = 48;

std::uint64_t cube(std::uint64_t x) { return x * x * x; }

}  // namespace

VerifierProtocol::VerifierProtocol(const WeightedGraph& g, VerifierConfig cfg)
    : g_(&g),
      cfg_(cfg),
      widths_(g),
      timer_cube_(cube(ceil_log2(std::max<NodeId>(g.n(), 2)) + 2)) {}

void VerifierProtocol::raise(NodeId v, VerifierState& self,
                             AlarmReason reason, const char* detail) {
  if (self.alarm != AlarmReason::kNone) return;
  self.alarm = reason;
  std::lock_guard<std::mutex> lk(trace_mu_);
  trace_.push_back({v, reason, detail});
}

bool VerifierProtocol::piece_is_mine(const VerifierState& self, int which,
                                     const Piece& piece, bool bc_flag) const {
  const auto len = self.labels.string_length();
  if (piece.level >= len) return false;
  if (which == 0) {
    // Top trains: membership is locally computable (Claim 6.3 — at most one
    // top fragment per level intersects the part).
    return self.labels.roots()[piece.level] != RootsEntry::kStar &&
           piece.level >= self.labels.delim;
  }
  return bc_flag;
}

void VerifierProtocol::step(NodeId v, VerifierState& self,
                            const NeighborReader<VerifierState>& nbr,
                            std::uint64_t /*time*/) {
  if (self.alarm != AlarmReason::kNone) return;  // alarms are sticky

  // --- 1-round label checks, every activation ------------------------------
  if (const LabelViolation e = verify_labels_1round(
          *g_, v, self.labels, self.parent_port, RegisterReader{nbr});
      e != LabelViolation::kNone) {
    raise(v, self, AlarmReason::kLabels, describe(e));
    return;
  }

  const std::uint32_t theta =
      top_threshold(std::max<NodeId>(self.labels.n_claim, 1));
  const std::uint32_t scale =
      theta + static_cast<std::uint32_t>(self.labels.string_length()) + 2;
  run_trains(v, self, nbr, scale);
  if (self.alarm != AlarmReason::kNone) return;
  run_show(v, self, nbr);
  if (self.alarm != AlarmReason::kNone) return;
  run_ask(v, self, nbr, scale);
}

void VerifierProtocol::run_trains(NodeId v, VerifierState& self,
                                  const NeighborReader<VerifierState>& nbr,
                                  std::uint32_t scale) {
  const NodeLabels& l = self.labels;
  const std::uint32_t deg = g_->degree(v);

  for (int which = 0; which < 2; ++which) {
    TrainRt& t = self.train[which];
    const std::uint64_t proot = part_root_id(self, which);
    const bool is_part_root = proot == l.self_id;
    const std::uint32_t claim =
        which == 0 ? l.top_piece_count : l.bot_piece_count;
    const auto perm = which == 0 ? l.top_perm() : l.bot_perm();

    // Same-part children: tree children sharing my part root.
    auto for_part_children = [&](auto&& fn) {
      for (std::uint32_t p = 0; p < deg; ++p) {
        const VerifierState& u = nbr.at_port(p);
        if (u.parent_port != nbr.link(p).rev_port) continue;
        const std::uint64_t upr = which == 0 ? u.labels.top_part_root_id
                                             : u.labels.bot_part_root_id;
        if (upr == proot) fn(p, u);
      }
    };

    // --- Wake / reset (non-roots): parent targets me with a new cycle ----
    const VerifierState* parent = nullptr;
    const TrainRt* pt = nullptr;
    if (!is_part_root && self.parent_port != kNoPort &&
        self.parent_port < deg) {
      const VerifierState& p = nbr.at_port(self.parent_port);
      const std::uint64_t ppr = which == 0 ? p.labels.top_part_root_id
                                           : p.labels.bot_part_root_id;
      if (ppr == proot) {
        parent = &p;
        pt = &p.train[which];
      }
    }
    const std::uint32_t rev_to_me =
        self.parent_port < deg ? nbr.link(self.parent_port).rev_port
                               : kNoPort;
    const bool targeted = pt != nullptr &&
                          pt->stage == TrainRt::Stage::kDrainChild &&
                          pt->child_port == rev_to_me;
    if (targeted && pt->cycle != t.cycle) {
      t.cycle = pt->cycle;
      t.stage = TrainRt::Stage::kEmitOwn;
      t.emit_idx = 0;
      t.finished = false;
      t.out_valid = false;
    }

    // --- Generator: produce the next piece of my subtree's DFS stream ----
    auto next_child_after = [&](std::uint32_t after) {
      std::uint32_t found = kNoPort;
      for_part_children([&](std::uint32_t p, const VerifierState&) {
        if ((after == kNoPort || p > after) && (found == kNoPort || p < found))
          found = p;
      });
      return found;
    };

    bool emitted = false;
    Piece emit_piece;
    auto generator_step = [&](bool can_emit) {
      if (t.stage == TrainRt::Stage::kEmitOwn) {
        if (t.emit_idx < perm.size()) {
          if (!can_emit) return;
          emit_piece = perm[t.emit_idx++];
          emitted = true;
          return;
        }
        const std::uint32_t first = next_child_after(kNoPort);
        if (first == kNoPort) {
          t.stage = TrainRt::Stage::kDone;
          t.finished = true;
        } else {
          t.stage = TrainRt::Stage::kDrainChild;
          t.child_port = first;
          t.child_taken = nbr.at_port(first).train[which].out_seq;
        }
        return;
      }
      if (t.stage == TrainRt::Stage::kDrainChild) {
        if (t.child_port >= deg) {  // corrupted pointer: re-finish
          t.stage = TrainRt::Stage::kDone;
          t.finished = true;
          return;
        }
        const TrainRt& ct = nbr.at_port(t.child_port).train[which];
        if (ct.cycle != t.cycle) return;  // child not woken yet
        if (ct.out_valid && ct.out_seq != t.child_taken) {
          if (!can_emit) return;
          emit_piece = ct.out_piece;
          emitted = true;
          t.child_taken = ct.out_seq;
          return;
        }
        if (ct.finished && ct.out_seq == t.child_taken) {
          const std::uint32_t nxt = next_child_after(t.child_port);
          if (nxt == kNoPort) {
            t.stage = TrainRt::Stage::kDone;
            t.finished = true;
          } else {
            t.child_port = nxt;
            t.child_taken = nbr.at_port(nxt).train[which].out_seq;
          }
        }
      }
    };

    bool bc_advanced = false;
    if (is_part_root) {
      // Root: the generator feeds the broadcast car directly; it restarts
      // a new cycle whenever the previous one finished.
      if (t.stage == TrainRt::Stage::kDone) {
        ++t.cycle;
        t.stage = TrainRt::Stage::kEmitOwn;
        t.emit_idx = 0;
        t.finished = false;
      }
      bool children_acked = true;
      for_part_children([&](std::uint32_t, const VerifierState& u) {
        if (t.bc_valid && u.train[which].bc_seq != t.bc_seq) {
          children_acked = false;
        }
      });
      generator_step(/*can_emit=*/children_acked);
      if (emitted) {
        t.bc_piece = emit_piece;
        t.bc_valid = true;
        ++t.bc_seq;
        t.bc_flag = which == 1 && emit_piece.root_id == l.self_id;
        bc_advanced = true;
      }
    } else {
      // Non-root: generator feeds the outgoing car, consumed by the parent.
      const bool out_free =
          !t.out_valid || (targeted && pt->cycle == t.cycle &&
                           pt->child_taken == t.out_seq);
      if (t.stage != TrainRt::Stage::kDone) {
        generator_step(/*can_emit=*/out_free);
        if (emitted) {
          t.out_piece = emit_piece;
          ++t.out_seq;
          t.out_valid = true;
        }
      }
      // Broadcast: copy the parent's car once my children took mine.
      if (parent != nullptr && pt->bc_valid && pt->bc_seq != t.bc_seq) {
        bool children_acked = true;
        for_part_children([&](std::uint32_t, const VerifierState& u) {
          if (t.bc_valid && u.train[which].bc_seq != t.bc_seq) {
            children_acked = false;
          }
        });
        if (children_acked) {
          const Piece& pc = pt->bc_piece;
          t.bc_piece = pc;
          t.bc_seq = pt->bc_seq;
          t.bc_valid = true;
          if (which == 1) {
            const auto len = l.string_length();
            bool flag = false;
            if (pc.level < len) {
              const auto roots = l.roots();
              if (pt->bc_flag && roots[pc.level] == RootsEntry::kZero) {
                flag = true;
              }
              if (roots[pc.level] == RootsEntry::kOne &&
                  pc.root_id == l.self_id) {
                flag = true;
              }
            }
            t.bc_flag = flag;
          }
          bc_advanced = true;
        }
      }
    }

    // --- Stall timeout -----------------------------------------------------
    if (bc_advanced) {
      t.stall_timer = 0;
    } else if (claim > 0) {
      if (++t.stall_timer > kTrainStallFactor * scale) {
        raise(v, self, AlarmReason::kTrainStall,
              which == 0 ? "top train stalled" : "bottom train stalled");
        return;
      }
    }
  }
}

void VerifierProtocol::run_show(NodeId v, VerifierState& self,
                                const NeighborReader<VerifierState>& nbr) {
  const NodeLabels& l = self.labels;
  const auto len = static_cast<std::uint32_t>(l.string_length());
  ShowRt& sh = self.show;
  if (sh.level >= len) {  // corrupted cursor
    sh = ShowRt{};
  }

  // --- Watch both trains' broadcast streams --------------------------------
  for (int which = 0; which < 2; ++which) {
    TrainRt& t = self.train[which];
    if (!t.bc_valid || t.bc_seq == t.last_seen_seq) continue;
    t.last_seen_seq = t.bc_seq;
    const Piece pc = t.bc_piece;
    const auto key = key_of(pc);
    const std::uint32_t claim =
        which == 0 ? l.top_piece_count : l.bot_piece_count;
    bool wrap = false;
    if (t.prev_valid) {
      const auto prev = std::pair{t.prev_level, t.prev_root_id};
      if (key == prev && claim != 1) {
        raise(v, self, AlarmReason::kStreamOrder, "duplicate piece in train");
        return;
      }
      wrap = key <= prev;
    } else {
      wrap = true;  // first observed piece counts as a cycle start
    }
    if (wrap) {
      const std::uint64_t proot = part_root_id(self, which);
      if (proot == l.self_id && t.prev_valid &&
          t.pieces_since_wrap != claim) {
        raise(v, self, AlarmReason::kStreamOrder,
              "part root saw a cycle of the wrong length");
        return;
      }
      t.pieces_since_wrap = 1;
    } else {
      if (++t.pieces_since_wrap > claim) {
        raise(v, self, AlarmReason::kStreamOrder,
              "more pieces in a cycle than the part stores");
        return;
      }
    }
    t.prev_valid = true;
    t.prev_level = pc.level;
    t.prev_root_id = pc.root_id;

    // Membership flag consistency (bottom train only).
    const bool mine = piece_is_mine(self, which, pc, t.bc_flag);
    if (which == 1 && t.bc_flag && pc.level < len &&
        pc.level >= l.delim) {
      raise(v, self, AlarmReason::kShowFill,
            "bottom train carries a flagged top-level piece");
      return;
    }

    // --- Feed the Show fill ------------------------------------------------
    const int need_train = sh.level >= l.delim ? 0 : 1;
    if (which != need_train || sh.filled) continue;
    // Arm the absence-evidence window: valid from a cycle start (wrap) or
    // from any stream position strictly below the awaited level (the
    // awaited level's group has not started yet).
    const bool was_watching = sh.watching;
    if (wrap || pc.level < sh.level) sh.watching = true;
    if (!sh.watching) continue;
    if (mine && pc.level == sh.level) {
      sh.filled = true;
      sh.present = true;
      sh.piece = pc;
      sh.dwell = 0;
      sh.hold = 0;
    } else if (pc.level > sh.level || (wrap && was_watching)) {
      // The stream moved past the awaited level (or wrapped after a full
      // armed pass) without our piece appearing: the fragment is absent.
      sh.filled = true;
      sh.present = false;
      sh.dwell = 0;
      sh.hold = 0;
    }
    if (sh.filled) {
      // Consistency at fill time (Claims 8.2/8.3).
      const auto roots = l.roots();
      const bool strings_say = roots[sh.level] != RootsEntry::kStar;
      if (sh.present != strings_say) {
        raise(v, self, AlarmReason::kShowFill,
              "piece presence contradicts the Roots string");
        return;
      }
      if (sh.present && roots[sh.level] == RootsEntry::kOne &&
          sh.piece.root_id != l.self_id) {
        raise(v, self, AlarmReason::kShowFill,
              "fragment root identity mismatch");
        return;
      }
      if (sh.present && sh.piece.min_out_w == Piece::kNoOutgoing &&
          sh.level + 1 != len) {
        raise(v, self, AlarmReason::kShowFill,
              "non-top fragment claims no outgoing edge");
        return;
      }
    }
  }

  // --- Advance the Show window ---------------------------------------------
  if (sh.filled) {
    ++sh.dwell;
    bool wanted = false;
    for (std::uint32_t p = 0; p < g_->degree(v); ++p) {
      const VerifierState& u = nbr.at_port(p);
      if (u.want.active && u.want.level == sh.level &&
          u.want.port == nbr.link(p).rev_port) {
        wanted = true;
      }
    }
    if (wanted) ++sh.hold;
    if (sh.dwell >= 2 && (!wanted || sh.hold > kShowHoldCap)) {
      sh.level = (sh.level + 1) % len;
      sh.filled = false;
      sh.watching = false;
      sh.dwell = 0;
      sh.hold = 0;
    }
  }
}

void VerifierProtocol::run_ask(NodeId v, VerifierState& self,
                               const NeighborReader<VerifierState>& nbr,
                               std::uint32_t scale) {
  const NodeLabels& l = self.labels;
  const auto len = static_cast<std::uint32_t>(l.string_length());
  const std::uint32_t deg = g_->degree(v);
  AskRt& a = self.ask;
  if (a.level >= len) a = AskRt{};

  const std::uint32_t window = kAskWindowFactor * scale;
  const std::uint64_t budget =
      cfg_.sync_mode
          ? std::uint64_t{kAskBudgetFactor} * (len + 1) *
                (window + 4 * scale)
          : std::uint64_t{kAskBudgetFactor} * (deg + 2) * (len + 1) *
                (4 * scale);
  if (++a.cycle_timer > budget) {
    raise(v, self, AlarmReason::kAskStall,
          "comparison cycle failed to complete in time");
    return;
  }

  auto run_event = [&](std::uint32_t p) -> bool {
    const VerifierState& u = nbr.at_port(p);
    if (u.labels.string_length() != len) return true;  // label check alarms
    if (const LabelViolation e = check_pair_event(
            *g_, v, p, a.level, l, self.parent_port, u.labels, u.parent_port,
            a.present ? &a.piece : nullptr,
            u.show.present ? &u.show.piece : nullptr);
        e != LabelViolation::kNone) {
      raise(v, self, AlarmReason::kPairCheck, describe(e));
      return false;
    }
    return true;
  };

  auto finish_level = [&] {
    a.level = (a.level + 1) % len;
    if (a.level == 0) a.cycle_timer = 0;
    a.stage = AskRt::Stage::kWaitPiece;
    self.want.active = false;
  };

  if (a.stage == AskRt::Stage::kWaitPiece) {
    if (self.show.filled && self.show.level == a.level) {
      a.present = self.show.present;
      a.piece = self.show.piece;
      a.stage = AskRt::Stage::kCompare;
      a.window = window;
      a.scan_port = 0;
      if (deg == 0) finish_level();
    }
    return;
  }

  // kCompare
  if (cfg_.sync_mode) {
    for (std::uint32_t p = 0; p < deg; ++p) {
      const VerifierState& u = nbr.at_port(p);
      if (u.show.filled && u.show.level == a.level) {
        if (!run_event(p)) return;
      }
    }
    if (a.window == 0 || --a.window == 0) finish_level();
  } else {
    while (a.scan_port < deg) {
      const VerifierState& u = nbr.at_port(a.scan_port);
      if (u.show.filled && u.show.level == a.level) {
        if (!run_event(a.scan_port)) return;
        self.want.active = false;
        ++a.scan_port;
        continue;
      }
      self.want.active = true;
      self.want.port = a.scan_port;
      self.want.level = a.level;
      return;
    }
    finish_level();
  }
}

std::size_t VerifierProtocol::state_bits(const VerifierState& s,
                                         NodeId v) const {
  const std::size_t id_bits = widths_.id_bits;
  const std::size_t lvl_bits = widths_.lvl_bits;
  const std::size_t piece_bits = widths_.piece_bits;
  const std::uint32_t deg = g_->degree(v);
  const std::size_t port_bits = bits_for_values(deg + 2);
  const std::size_t seq_bits = 8;      // sequence counters (mod 256 suffices)
  const std::size_t timer_bits =
      bits_for_counter(64ULL * (deg + 2) * timer_cube_);

  std::size_t bits = port_bits;  // component
  bits += label_bits(s.labels, widths_);
  for (int i = 0; i < 2; ++i) {
    bits += 2 + 2;                       // stage, emit_idx
    bits += port_bits + seq_bits;        // child_port, child_taken
    bits += seq_bits + 1;                // cycle, finished
    bits += piece_bits + 1 + seq_bits;   // out car
    bits += piece_bits + 2 + seq_bits;   // bc car + flag
    bits += seq_bits + 1 + lvl_bits + id_bits;  // watcher
    bits += lvl_bits + timer_bits;       // pieces_since_wrap, stall timer
  }
  bits += lvl_bits + 2 + piece_bits + 1 + timer_bits + timer_bits;  // show
  bits += 2 + lvl_bits + 1 + piece_bits + timer_bits + port_bits +
          timer_bits;                     // ask
  bits += 1 + port_bits + lvl_bits;       // want
  bits += 3;                              // alarm code
  return bits;
}

void VerifierProtocol::corrupt(VerifierState& s, NodeId v, Rng& rng) const {
  const auto len = s.labels.string_length();
  // Pick 1-3 independent corruptions among labels, component and runtime.
  const int k = 1 + static_cast<int>(rng.below(3));
  for (int i = 0; i < k; ++i) {
    switch (rng.below(10)) {
      case 0:
        if (len > 0) {
          s.labels.roots()[rng.below(len)] =
              static_cast<RootsEntry>(rng.below(3));
        }
        break;
      case 1:
        if (len > 0) {
          s.labels.endp()[rng.below(len)] =
              static_cast<EndpEntry>(rng.below(4));
        }
        break;
      case 2:
        if (len > 0) {
          s.labels.parents()[rng.below(len)] ^= 1;
        }
        break;
      case 3:
        if (const auto perm = s.labels.top_perm(); !perm.empty()) {
          perm[rng.below(perm.size())].min_out_w = rng.below(1 << 20);
        }
        break;
      case 4:
        if (const auto perm = s.labels.bot_perm(); !perm.empty()) {
          perm[rng.below(perm.size())].root_id = rng.below(1 << 16);
        }
        break;
      case 5:
        s.parent_port = static_cast<std::uint32_t>(
            rng.below(g_->degree(v) + 1));
        if (s.parent_port == g_->degree(v)) s.parent_port = kNoPort;
        break;
      case 6:
        s.labels.subtree_count = static_cast<std::uint32_t>(rng.below(1 << 16));
        break;
      case 7: {
        TrainRt& t = s.train[rng.below(2)];
        t.bc_piece.level = static_cast<std::uint32_t>(rng.below(len + 2));
        t.bc_piece.min_out_w = rng.below(1 << 20);
        t.bc_seq += 1 + static_cast<std::uint32_t>(rng.below(7));
        break;
      }
      case 8:
        s.show.level = static_cast<std::uint32_t>(rng.below(len + 2));
        s.show.present = rng.chance(0.5);
        s.show.piece.min_out_w = rng.below(1 << 20);
        s.show.filled = true;
        break;
      case 9:
        s.ask.cycle_timer = 0;
        s.ask.level = static_cast<std::uint32_t>(rng.below(len + 2));
        s.ask.present = rng.chance(0.5);
        break;
    }
  }
}

bool VerifierProtocol::audit_state(const VerifierState& s, NodeId v) const {
  const NodeLabels& l = s.labels;
  if (l.arena == nullptr) {
    // A null arena is only structurally sound when the header claims no
    // payload at all; any live cap with no backing store is corruption.
    if (l.lvl_cap != 0 || l.perm_cap != 0) return false;
  } else {
    if (std::size_t{l.lvl_off} + l.lvl_cap > l.arena->levels_size()) {
      return false;
    }
    if (std::size_t{l.perm_off} + 2 * std::size_t{l.perm_cap} >
        l.arena->perm_size()) {
      return false;
    }
  }
  // The marker installs capacity == live length and nothing in the running
  // protocol ever shrinks it, so a short live length is a corrupted header.
  if (l.lvl_len != l.lvl_cap) return false;
  if (l.top_n > l.perm_cap || l.bot_n > l.perm_cap) return false;
  if (s.parent_port != kNoPort && s.parent_port >= g_->degree(v)) {
    return false;
  }
  return true;
}

std::vector<VerifierState> VerifierProtocol::initial_states(
    const MarkerOutput& marker) const {
  const NodeId n = g_->n();
  std::vector<VerifierState> init(n);
  const auto ports = marker.parent_ports();
  for (NodeId v = 0; v < n; ++v) {
    init[v].parent_port = ports[v];
    // Header copy: aliases the marker's arena until a simulation adopts
    // (and clones) the file.
    init[v].labels = marker.labels[v];
  }
  return init;
}

std::shared_ptr<void> VerifierProtocol::adopt_register_file(
    std::vector<VerifierState>& regs) {
  return adopt_labels_into_pooled_arena(
      regs, [](VerifierState& s) -> NodeLabels& { return s.labels; });
}

}  // namespace ssmst

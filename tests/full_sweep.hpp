#pragma once

// The classic every-node-every-unit asynchronous daemon, as a protocol
// adapter: the reference the activation queue is pinned against.
//
// FullSweep<State> forwards every Protocol hook to the wrapped protocol,
// except that step_changed runs the wrapped `step` and always reports a
// change. Every unit then changes "all" n registers, which trips the
// engine's dense cutover (>= 1/4 changed), so the queue re-enables and
// drains every node in every unit — each node activated exactly once per
// unit in discipline order, which is the classic daemon. The engine keeps
// no code of its own for it.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/protocol.hpp"

namespace ssmst {

template <typename State>
class FullSweep final : public Protocol<State> {
 public:
  explicit FullSweep(Protocol<State>& inner) : inner_(&inner) {}

  void step(NodeId v, State& self, const NeighborReader<State>& nbr,
            std::uint64_t time) override {
    inner_->step(v, self, nbr, time);
  }
  bool step_changed(NodeId v, State& self, const NeighborReader<State>& nbr,
                    std::uint64_t time) override {
    inner_->step(v, self, nbr, time);
    return true;
  }
  std::shared_ptr<void> adopt_register_file(std::vector<State>& regs) override {
    return inner_->adopt_register_file(regs);
  }
  std::size_t state_bits(const State& s, NodeId v) const override {
    return inner_->state_bits(s, v);
  }
  bool alarmed(const State& s) const override { return inner_->alarmed(s); }
  bool audit_state(const State& s, NodeId v) const override {
    return inner_->audit_state(s, v);
  }
  void corrupt(State& s, NodeId v, Rng& rng) const override {
    inner_->corrupt(s, v, rng);
  }

 private:
  Protocol<State>* inner_;
};

}  // namespace ssmst

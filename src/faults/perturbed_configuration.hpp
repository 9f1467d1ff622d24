// The configuration of a perturbed run at the counts level (DESIGN.md §6)
// and the only two decisions such a run is made of: a fault event, and a
// scheduled interaction with its stubborn-suppression flags.
//
// The PerturbedEngine samples decisions and feeds each one here; the
// replayer (recovery/replay.hpp) feeds recorded ones. Both thus apply a
// decision in exactly one way, and a replayed log reconstructs the recorded
// trajectory by construction. A decision is applied, or rejected with the
// reason it is infeasible and then changes nothing: the sampler's draws are
// always feasible, an edited replay schedule need not be.
//
// Crashed (frozen) agents keep their state and output but leave the
// interacting pool, active = counts − frozen. Stubborn (stuck) agents stay
// in the pool but never update themselves. Mobile agents, counts − frozen −
// stuck, are the only ones a fault targets or an interaction moves.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "faults/fault_log.hpp"
#include "faults/fault_model.hpp"
#include "faults/invariant_monitor.hpp"
#include "population/configuration.hpp"
#include "population/protocol.hpp"
#include "util/check.hpp"

namespace popbean::faults {

class PerturbedConfiguration {
 public:
  // Why a decision is infeasible; nullptr when it was applied.
  using Rejection = const char*;

  template <ProtocolLike P>
  PerturbedConfiguration(const P& protocol, Counts initial)
      : counts_(std::move(initial)),
        frozen_(counts_.size(), 0),
        stuck_(counts_.size(), 0),
        active_(counts_),
        camp_(counts_.size()),
        num_agents_(population_size(counts_)) {
    POPBEAN_CHECK(counts_.size() == protocol.num_states());
    POPBEAN_CHECK(num_agents_ >= 2);
    for (State q = 0; q < camp_.size(); ++q) {
      camp_[q] = protocol.output(q) == 0 ? 0 : 1;
    }
    recount();
  }

  const Counts& counts() const noexcept { return counts_; }
  // The interacting pool a schedule draws from: counts − frozen.
  const Counts& active() const noexcept { return active_; }
  const Counts& stuck() const noexcept { return stuck_; }
  std::uint64_t interacting() const noexcept {
    return num_agents_ - frozen_count_;
  }

  FaultView view() const noexcept {
    return {counts_, frozen_, stuck_, num_agents_, frozen_count_,
            stuck_count_};
  }

  std::uint64_t output_agents(Output output) const noexcept {
    return out_count_[output == 0 ? 0 : 1];
  }
  bool all_same_output() const noexcept {
    return out_count_[0] == 0 || out_count_[1] == 0;
  }
  Output dominant_output() const noexcept {
    return out_count_[1] >= out_count_[0] ? 1 : 0;
  }

  // The monitor is fed every single-agent move; the caller decides when to
  // check() it.
  void attach_monitor(InvariantMonitor* monitor) noexcept {
    monitor_ = monitor;
  }

  Rejection apply(const FaultEvent& event) {
    const State q = event.from;
    const bool moves =
        event.kind == FaultKind::kCorrupt || event.kind == FaultKind::kSignFlip;
    if (q >= counts_.size() || (moves && event.to >= counts_.size())) {
      return "event state out of range";
    }
    if (event.kind == FaultKind::kRecover) {
      if (frozen_[q] == 0) {
        return "recovery targets a state with no crashed agent";
      }
      --frozen_[q];
      --frozen_count_;
      ++active_[q];
      return nullptr;
    }
    if (mobile(q) == 0) return "fault targets a state with no mobile agent";
    if (event.kind == FaultKind::kCrash) {
      ++frozen_[q];
      ++frozen_count_;
      --active_[q];
    } else if (event.kind == FaultKind::kStick) {
      ++stuck_[q];
      ++stuck_count_;
    } else {
      move(q, event.to);
    }
    return nullptr;
  }

  // δ(a, b), with a stubborn participant's own update withheld. Each seat
  // needs an agent of its state in its sub-population (stuck or mobile),
  // the initiator's agent excluded from the responder's seat.
  template <ProtocolLike P>
  Rejection interact(const P& protocol, State a, State b, bool a_stuck,
                     bool b_stuck) {
    if (a >= counts_.size() || b >= counts_.size()) {
      return "event state out of range";
    }
    const std::uint64_t a_seats = a_stuck ? stuck_[a] : mobile(a);
    const std::uint64_t b_seats = b_stuck ? stuck_[b] : mobile(b);
    if (a_seats == 0) return "interaction initiator seat unavailable";
    if (b_seats == (a == b && a_stuck == b_stuck ? 1 : 0)) {
      return "interaction responder seat unavailable";
    }
    const Transition t = protocol.apply(a, b);
    if (!a_stuck) move(a, t.initiator);
    if (!b_stuck) move(b, t.responder);
    return nullptr;
  }

 private:
  std::uint64_t mobile(State q) const noexcept {
    return counts_[q] - frozen_[q] - stuck_[q];
  }

  // One mobile agent changes state from `from` to `to`.
  void move(State from, State to) {
    if (from == to) return;
    --counts_[from];
    ++counts_[to];
    --active_[from];
    ++active_[to];
    --out_count_[camp_[from]];
    ++out_count_[camp_[to]];
    if (monitor_ != nullptr) monitor_->apply_move(from, to);
  }

  void recount() noexcept {
    out_count_[0] = 0;
    out_count_[1] = 0;
    for (State q = 0; q < counts_.size(); ++q) {
      out_count_[camp_[q]] += counts_[q];
    }
  }

  Counts counts_;
  Counts frozen_;
  Counts stuck_;
  Counts active_;
  std::vector<std::uint8_t> camp_;  // output of each state: 0 or nonzero
  std::uint64_t num_agents_ = 0;
  std::uint64_t frozen_count_ = 0;
  std::uint64_t stuck_count_ = 0;
  std::uint64_t out_count_[2] = {0, 0};
  InvariantMonitor* monitor_ = nullptr;
};

}  // namespace popbean::faults

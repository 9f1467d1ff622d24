// Live invariant monitoring for perturbed runs.
//
// The static verifier (verify/linear_invariant.hpp) proves that δ conserves
// a weight vector over ALL fault-free executions; this monitor watches one
// *perturbed* execution and records when the conserved functional Φ first
// leaves its initial value — the moment the exactness proof's premise dies.
// For AVC with the Invariant 4.3 weights the first-violation time is the
// paper-level robustness metric the fault sweep and the resilience bench
// report.
//
// The monitor is incremental: a PerturbedConfiguration feeds it every
// single-agent state move (protocol-driven or fault-injected) at O(1) each,
// and its driver (the PerturbedEngine, or replay) calls check() at
// interaction granularity — Φ is
// legitimately off-balance between the two moves of one pairwise transition,
// so violations are only assessed at interaction boundaries.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "population/configuration.hpp"
#include "verify/linear_invariant.hpp"

namespace popbean::faults {

class InvariantMonitor {
 public:
  InvariantMonitor(verify::LinearInvariant invariant, const Counts& initial)
      : invariant_(std::move(invariant)),
        initial_value_(invariant_.value(initial)),
        current_value_(initial_value_) {}

  // One agent moved from `from` to `to`. O(1); does not assess violation.
  void apply_move(State from, State to) {
    current_value_ += invariant_.weight(to) - invariant_.weight(from);
  }

  // Called at an interaction boundary (after a full pairwise transition or a
  // fault batch): records the first step at which Φ differs from Φ(c₀).
  void check(std::uint64_t at_step) {
    if (current_value_ != initial_value_ && !first_violation_step_) {
      first_violation_step_ = at_step;
    }
  }

  const verify::LinearInvariant& invariant() const noexcept {
    return invariant_;
  }
  std::int64_t initial_value() const noexcept { return initial_value_; }
  std::int64_t current_value() const noexcept { return current_value_; }
  std::int64_t drift() const noexcept {
    return current_value_ - initial_value_;
  }

  bool violated() const noexcept { return first_violation_step_.has_value(); }
  std::optional<std::uint64_t> first_violation_step() const noexcept {
    return first_violation_step_;
  }

 private:
  verify::LinearInvariant invariant_;
  std::int64_t initial_value_;
  std::int64_t current_value_;
  std::optional<std::uint64_t> first_violation_step_;
};

}  // namespace popbean::faults

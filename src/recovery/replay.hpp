// Deterministic replay of a recorded perturbed run (DESIGN.md §7).
//
// Replay is pure data application: no engine, no generator. Each recorded
// decision, fault event or scheduled interaction with its stubborn flags,
// goes to the same faults::PerturbedConfiguration the PerturbedEngine feeds
// its own draws to, with an invariant monitor attached. Replaying an
// unmodified log therefore reconstructs the original trajectory
// bit-exactly: same first-violation step, same decision, same final
// configuration.
//
// Because replay never draws randomness, the event list can be *edited* and
// re-applied — the delta-debugging shrinker (shrink.hpp) relies on this to
// drop fault events and ask "does the violation still happen?". An edited
// schedule can become infeasible (an event targets a state with no agent);
// the replayer reports that as a non-reproducing outcome instead of failing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/invariant_monitor.hpp"
#include "faults/perturbed_configuration.hpp"
#include "population/configuration.hpp"
#include "population/protocol.hpp"
#include "population/run.hpp"
#include "recovery/event_log.hpp"
#include "util/check.hpp"
#include "verify/linear_invariant.hpp"

namespace popbean::recovery {

struct ReplayResult {
  bool feasible = true;
  std::size_t infeasible_event = 0;   // index of the first infeasible event
  std::string infeasible_reason;

  RunStatus status = RunStatus::kStepLimit;
  Output decided = 0;                 // meaningful when converged
  std::uint64_t interactions = 0;
  bool violated = false;
  std::uint64_t violation_step = 0;
  Counts final_counts;

  CaptureOutcome outcome() const {
    return {status, decided, interactions, violated, violation_step,
            final_counts};
  }

  // Bit-exact agreement with a recorded outcome.
  bool matches(const CaptureOutcome& recorded) const {
    return feasible && outcome() == recorded;
  }
};

template <ProtocolLike P>
ReplayResult replay_events(const P& protocol,
                           const verify::LinearInvariant& invariant,
                           const Counts& initial,
                           const std::vector<ReplayEvent>& events,
                           std::uint64_t start_step = 0) {
  POPBEAN_CHECK(invariant.num_states() == protocol.num_states());
  faults::PerturbedConfiguration config(protocol, initial);
  faults::InvariantMonitor monitor(invariant, initial);
  config.attach_monitor(&monitor);
  std::uint64_t steps = start_step;

  // The adapter assesses fault batches once per batch, not per event (Φ may
  // legitimately drift and return within one batch). Batch boundaries are
  // not encoded in the log, but a maximal run of consecutive fault events is
  // applied at a single interaction count, so deferring the check to the end
  // of the run reproduces the adapter's assessment.
  ReplayResult result;
  bool fault_check_pending = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ReplayEvent& event = events[i];
    faults::PerturbedConfiguration::Rejection rejected = nullptr;
    if (event.is_fault()) {
      rejected = config.apply({fault_kind(event.kind), event.a, event.b});
      fault_check_pending = true;
    } else {
      if (fault_check_pending) monitor.check(steps);
      fault_check_pending = false;
      rejected = config.interact(protocol, event.a, event.b,
                                 (event.flags & kInitiatorStuck) != 0,
                                 (event.flags & kResponderStuck) != 0);
      if (rejected == nullptr) monitor.check(steps++);
    }
    if (rejected != nullptr) {
      result.feasible = false;
      result.infeasible_event = i;
      result.infeasible_reason = rejected;
      break;
    }
  }
  if (result.feasible && fault_check_pending) monitor.check(steps);

  result.interactions = steps;
  result.violated = monitor.violated();
  result.violation_step = monitor.first_violation_step().value_or(0);
  result.final_counts = config.counts();
  if (config.all_same_output()) {
    result.status = RunStatus::kConverged;
    result.decided = config.dominant_output();
  } else if (config.interacting() < 2) {
    result.status = RunStatus::kAbsorbing;
  } else {
    result.status = RunStatus::kStepLimit;
  }
  return result;
}

}  // namespace popbean::recovery

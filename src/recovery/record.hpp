// Recording a perturbed run into a replay capture (DESIGN.md §7).
//
// The recorder is a faults::StepObserver: the PerturbedEngine reports every
// applied fault event and every scheduled interaction while the run
// executes normally, so recording costs one append per step and perturbs
// nothing (the observer makes no random draws and never touches the
// engine). One wrinkle: one-shot fault models (StuckAt) fire inside the
// adapter's *constructor*, before any observer can attach — those events
// are backfilled from the adapter's FaultLog, which has already recorded
// them in order.
//
// record_perturbed_run re-executes one deterministic perturbed cell of a
// fault sweep (same seed, same stream ⇒ same trajectory; a rate-0 control
// cell runs the plain count engine instead) with a recorder attached and
// returns the two capture artifacts: a self-contained header (protocol
// embedded as .pbp text, invariant weights, instance parameters) and the
// event log closed by the observed outcome. popbean-replay consumes these
// with no other inputs.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "faults/fault_log.hpp"
#include "faults/invariant_monitor.hpp"
#include "faults/perturbed_engine.hpp"
#include "population/configuration.hpp"
#include "population/protocol.hpp"
#include "population/run.hpp"
#include "protocols/tabulated_io.hpp"
#include "recovery/event_log.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "verify/linear_invariant.hpp"

namespace popbean::recovery {

class ReplayRecorder : public faults::StepObserver {
 public:
  void on_fault(const faults::FaultEvent& event) override {
    events_.push_back({replay_kind(event.kind), event.from, event.to, 0});
  }

  void on_interaction(State initiator, State responder, bool initiator_stuck,
                      bool responder_stuck) override {
    std::uint8_t flags = 0;
    if (initiator_stuck) flags |= kInitiatorStuck;
    if (responder_stuck) flags |= kResponderStuck;
    events_.push_back(
        {ReplayEventKind::kInteraction, initiator, responder, flags});
  }

  const std::vector<ReplayEvent>& events() const noexcept { return events_; }
  std::vector<ReplayEvent> take() { return std::move(events_); }

 private:
  std::vector<ReplayEvent> events_;
};

struct RecordedRun {
  CaptureHeader header;
  CaptureLog log;
};

// Instance parameters of the cell being recorded; seed/stream must be the
// exact values the original run used for its perturbation root.
struct RecordSpec {
  std::string protocol_name = "recorded";
  std::uint64_t seed = 0;
  std::uint64_t stream = 0;
  std::uint64_t max_interactions = 0;
  double rate = 0.0;     // descriptive metadata (sweep rate of this cell)
  double epsilon = 0.0;  // descriptive metadata
};

// Deterministically re-runs one perturbed cell with a recorder attached.
// The fault/schedule models must be freshly-constructed duplicates of the
// originals (models are consumed by the adapter).
template <ProtocolLike P, faults::FaultModelLike F,
          faults::ScheduleModelLike S>
RecordedRun record_perturbed_run(const P& protocol,
                                 const verify::LinearInvariant& invariant,
                                 const Counts& initial, F fault_model,
                                 S schedule_model, const RecordSpec& spec) {
  Xoshiro256ss rng(spec.seed, spec.stream);
  auto engine = faults::make_perturbed(protocol, initial,
                                       std::move(fault_model),
                                       std::move(schedule_model), rng);

  faults::InvariantMonitor monitor(invariant, initial);
  engine.attach_monitor(&monitor);

  ReplayRecorder recorder;
  // Backfill the constructor's one-shot fault batch (see header comment).
  POPBEAN_CHECK_MSG(engine.fault_log().dropped() == 0,
                    "init fault batch overflowed the fault log; cannot "
                    "record a complete event history");
  for (const faults::FaultEvent& event : engine.fault_log().events()) {
    recorder.on_fault(event);
  }
  engine.attach_observer(&recorder);

  const RunResult result = run_to_convergence(engine, rng,
                                              spec.max_interactions);

  RecordedRun recorded;
  // The .pbp invariant name is a single token; the capture header keeps the
  // human-readable one.
  std::string invariant_token = invariant.name();
  for (char& c : invariant_token) {
    if (c == ' ' || c == '\t') c = '_';
  }
  recorded.header.protocol_text = serialize_protocol(
      protocol, spec.protocol_name,
      {{invariant_token,
        [&] {
          std::vector<std::int64_t> weights(invariant.num_states());
          for (State q = 0; q < weights.size(); ++q) {
            weights[q] = invariant.weight(q);
          }
          return weights;
        }()}});
  recorded.header.invariant_name = invariant.name();
  recorded.header.invariant_weights.resize(invariant.num_states());
  for (State q = 0; q < recorded.header.invariant_weights.size(); ++q) {
    recorded.header.invariant_weights[q] = invariant.weight(q);
  }
  recorded.header.n = population_size(initial);
  recorded.header.seed = spec.seed;
  recorded.header.stream = spec.stream;
  recorded.header.max_interactions = spec.max_interactions;
  recorded.header.rate = spec.rate;
  recorded.header.epsilon = spec.epsilon;
  recorded.header.initial = initial;

  recorded.log.events = recorder.take();
  recorded.log.outcome.status = result.status;
  recorded.log.outcome.decided = result.decided;
  recorded.log.outcome.interactions = result.interactions;
  recorded.log.outcome.violated = monitor.violated();
  recorded.log.outcome.violation_step =
      monitor.first_violation_step().value_or(0);
  recorded.log.outcome.final_counts = engine.counts();
  return recorded;
}

}  // namespace popbean::recovery

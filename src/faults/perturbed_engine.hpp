// PerturbedEngine: a protocol run at the counts level under a fault model
// and a schedule model, behind the EngineLike surface — so
// run_to_convergence, the harness, and the trace machinery drive perturbed
// runs unchanged.
//
// The adapter only samples: fault events from the fault model, the
// interacting pair from the schedule, stubbornness on the fault stream. It
// feeds each draw to a PerturbedConfiguration (perturbed_configuration.hpp),
// which owns the run's configuration and output tally and answers
// all_same_output / dominant_output / counts. An unperturbed control (the
// rate-0 column of a fault sweep) runs on a plain engine instead
// (harness/fault_sweep.hpp), so its trajectory is the engine's own.
//
// Randomness is strictly stream-separated (util/rng.hpp split) off the
// caller's root rng: faults draw from split(kFaultStream), the scheduler
// from split(kScheduleStream). Injecting a fault can therefore
// never perturb scheduling decisions, and vice versa.
//
// Fault semantics at the counts level are PerturbedConfiguration's
// (DESIGN.md §6). Crashed agents still count toward convergence, which is
// exactly how crashes threaten liveness; if fewer than two interacting
// agents remain, step() stops advancing the interaction counter and
// run_to_convergence reports kAbsorbing.
//
// The adapter has no serialized form. A perturbed run is reproduced from
// its recorded decisions (recovery/record.hpp, replay.hpp), and a sweep
// re-runs an unfinished cell from its seed.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "faults/fault_log.hpp"
#include "faults/fault_model.hpp"
#include "faults/invariant_monitor.hpp"
#include "faults/perturbed_configuration.hpp"
#include "faults/schedule_model.hpp"
#include "obs/probe.hpp"
#include "population/configuration.hpp"
#include "population/protocol.hpp"
#include "population/run.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace popbean::faults {

// Observer of the adapter's per-step decisions: every applied
// fault event and every scheduled interaction (with its stubborn-suppression
// flags). The record/replay subsystem (src/recovery) implements this to
// capture an event log from which a run reconstructs bit-exactly without
// re-running any random draw.
class StepObserver {
 public:
  virtual ~StepObserver() = default;
  virtual void on_fault(const FaultEvent& event) = 0;
  virtual void on_interaction(State initiator, State responder,
                              bool initiator_stuck, bool responder_stuck) = 0;
};

template <ProtocolLike P, FaultModelLike F, ScheduleModelLike S>
class PerturbedEngine {
 public:
  // Stream ids split off the caller's root rng; the adapter never advances
  // the root itself.
  static constexpr std::uint64_t kFaultStream = 1;
  static constexpr std::uint64_t kScheduleStream = 2;

  PerturbedEngine(P protocol, const Counts& initial, F faults, S schedule,
                  const Xoshiro256ss& root)
      : protocol_(std::move(protocol)),
        faults_(std::move(faults)),
        schedule_(std::move(schedule)),
        fault_rng_(root.split(kFaultStream)),
        sched_rng_(root.split(kScheduleStream)),
        config_(protocol_, initial) {
    faults_.on_init(view(), fault_rng_, events_);
    apply_events();
  }

  // --- EngineLike surface ---------------------------------------------------

  std::uint64_t num_agents() const noexcept { return view().num_agents; }
  std::uint64_t steps() const noexcept { return steps_; }
  double parallel_time() const noexcept {
    return static_cast<double>(steps_) / static_cast<double>(num_agents());
  }
  bool all_same_output() const noexcept { return config_.all_same_output(); }
  Output dominant_output() const noexcept { return config_.dominant_output(); }
  std::uint64_t output_agents(Output output) const noexcept {
    return config_.output_agents(output);
  }

  // The caller's rng is unused: every draw is on the split streams.
  void step(Xoshiro256ss&) {
    events_.clear();
    faults_.before_step(view(), fault_rng_, events_);
    if (!events_.empty()) apply_events();
    if (config_.interacting() < 2) return;  // halted: run ends kAbsorbing

    const auto [a, b] =
        schedule_.select(protocol(), config_.active(), config_.interacting(),
                         sched_rng_, counters_);
    const bool a_stuck = roll_stuck(a, 0, 0);
    const bool b_stuck =
        roll_stuck(b, a == b ? 1 : 0, (a == b && a_stuck) ? 1 : 0);
    const PerturbedConfiguration::Rejection rejected =
        config_.interact(protocol(), a, b, a_stuck, b_stuck);
    POPBEAN_CHECK_MSG(rejected == nullptr, rejected);
    if (observer_ != nullptr) observer_->on_interaction(a, b, a_stuck, b_stuck);
    if (monitor_ != nullptr) monitor_->check(steps_);
    POPBEAN_OBS_HOOK(if (probe_ != nullptr) {
      probe_->record(is_null(protocol().apply(a, b), a, b)
                         ? obs::ReactionKind::kNull
                         : obs::classify_interaction(protocol(), a, b));
    })
    ++counters_.injected_interactions;
    ++steps_;
  }

  // --- perturbation surface -------------------------------------------------

  const P& protocol() const noexcept { return protocol_; }
  Counts counts() const { return config_.counts(); }

  const FaultCounters& fault_counters() const noexcept { return counters_; }
  const FaultLog& fault_log() const noexcept { return log_; }
  std::uint64_t frozen_agents() const noexcept { return view().frozen_count; }
  std::uint64_t stuck_agents() const noexcept { return view().stuck_count; }

  // Attach before the first step(); the monitor's Φ baseline must come from
  // the same initial configuration the adapter started from.
  void attach_monitor(InvariantMonitor* monitor) noexcept {
    monitor_ = monitor;
    config_.attach_monitor(monitor);
  }

  // The probe (src/obs) records each scheduled pair; the observer
  // (src/recovery) each applied decision.
  void attach_probe(obs::EngineProbe* probe) noexcept { probe_ = probe; }
  void attach_observer(StepObserver* observer) { observer_ = observer; }

  FaultView view() const noexcept { return config_.view(); }

 private:
  // True with probability (stuck among eligible) / (pool of eligible) —
  // whether the agent filling one interaction slot of state q is stubborn.
  // The exclusion parameters remove the already-seated initiator when both
  // slots share a state.
  bool roll_stuck(State q, std::uint64_t pool_excl, std::uint64_t stuck_excl) {
    const std::uint64_t stuck = config_.stuck()[q] - stuck_excl;
    if (stuck == 0) return false;
    const std::uint64_t pool = config_.active()[q] - pool_excl;
    POPBEAN_DCHECK(pool >= stuck);
    return fault_rng_.below(pool) < stuck;
  }

  // Applies the pending events_ batch, stamping each with the current
  // interaction count and tallying it.
  void apply_events() {
    for (FaultEvent& event : events_) {
      event.at_step = steps_;
      const PerturbedConfiguration::Rejection rejected = config_.apply(event);
      POPBEAN_CHECK_MSG(rejected == nullptr, rejected);
      ++tally(event.kind);
      log_.record(event);
      if (observer_ != nullptr) observer_->on_fault(event);
    }
    if (monitor_ != nullptr && !events_.empty()) monitor_->check(steps_);
  }

  std::uint64_t& tally(FaultKind kind) noexcept {
    switch (kind) {
      case FaultKind::kCrash: return counters_.crashes;
      case FaultKind::kRecover: return counters_.recoveries;
      case FaultKind::kCorrupt: return counters_.corruptions;
      case FaultKind::kSignFlip: return counters_.sign_flips;
      case FaultKind::kStick: return counters_.stuck;
    }
    return counters_.stuck;  // unreachable
  }

  P protocol_;
  F faults_;
  S schedule_;
  Xoshiro256ss fault_rng_;
  Xoshiro256ss sched_rng_;
  PerturbedConfiguration config_;
  std::uint64_t steps_ = 0;

  std::vector<FaultEvent> events_;
  FaultCounters counters_;
  FaultLog log_;
  InvariantMonitor* monitor_ = nullptr;
  StepObserver* observer_ = nullptr;
  obs::EngineProbe* probe_ = nullptr;
};

// Deduction-friendly factory: runs `protocol` from `initial` under the given
// models, splitting the fault and schedule streams off `root` without
// advancing it.
template <ProtocolLike P, FaultModelLike F, ScheduleModelLike S>
PerturbedEngine<P, F, S> make_perturbed(P protocol, const Counts& initial,
                                        F faults, S schedule,
                                        const Xoshiro256ss& root) {
  return PerturbedEngine<P, F, S>(std::move(protocol), initial,
                                  std::move(faults), std::move(schedule),
                                  root);
}

}  // namespace popbean::faults

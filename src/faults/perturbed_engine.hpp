// PerturbedEngine: the adapter that composes a base engine, a fault model,
// and a schedule model into something that still satisfies EngineLike — so
// run_to_convergence, the harness, and the trace machinery drive perturbed
// runs unchanged.
//
// Two operating modes, fixed at construction:
//
//   * Pure passthrough — the schedule delegates (UniformSchedule) and the
//     fault model reports inactive. Every step() is forwarded verbatim to
//     the base engine on the caller's rng, so the trajectory is bit-for-bit
//     the unperturbed one (the zero-rate identity the tests pin down).
//
//   * Counts-level stepping — any active fault model or non-delegating
//     schedule. The adapter only samples: fault events from the fault model,
//     the interacting pair from the schedule, stubbornness on the fault
//     stream. It feeds each draw to a PerturbedConfiguration
//     (perturbed_configuration.hpp), which owns the run's configuration and
//     output tally and answers all_same_output / dominant_output / counts.
//     The base engine is left as constructed.
//
// Randomness is strictly stream-separated (util/rng.hpp split): the caller's
// rng is the engine stream, faults draw from split(kFaultStream), the
// scheduler from split(kScheduleStream). Injecting a fault can therefore
// never perturb scheduling decisions, and vice versa.
//
// Fault semantics at the counts level are PerturbedConfiguration's
// (DESIGN.md §6). Crashed agents still count toward convergence, which is
// exactly how crashes threaten liveness; if fewer than two interacting
// agents remain, step() stops advancing the interaction counter and
// run_to_convergence reports kAbsorbing.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
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
#include "util/binary_io.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace popbean::faults {

// Observer of the adapter's per-step decisions in counts mode: every applied
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

// An engine the adapter can wrap: the EngineLike surface plus read access to
// the configuration and protocol it was built with.
template <typename E>
concept PerturbableEngineLike = EngineLike<E> && requires(E engine) {
  { engine.protocol().num_states() } -> std::convertible_to<std::size_t>;
  { engine.counts() } -> std::convertible_to<Counts>;
};

template <PerturbableEngineLike E, FaultModelLike F, ScheduleModelLike S>
class PerturbedEngine {
 public:
  // Stream ids split off the caller's root rng; the root itself (engine
  // stream) is left untouched and keeps driving step().
  static constexpr std::uint64_t kFaultStream = 1;
  static constexpr std::uint64_t kScheduleStream = 2;

  PerturbedEngine(E base, F faults, S schedule, const Xoshiro256ss& root)
      : base_(std::move(base)),
        faults_(std::move(faults)),
        schedule_(std::move(schedule)),
        fault_rng_(root.split(kFaultStream)),
        sched_rng_(root.split(kScheduleStream)),
        num_agents_(base_.num_agents()),
        passthrough_(S::kDelegates && !faults_.active()) {
    if (passthrough_) return;
    config_ = PerturbedConfiguration(base_.protocol(), base_.counts());
    faults_.on_init(view(), fault_rng_, events_);
    apply_events();
  }

  // --- EngineLike surface ---------------------------------------------------

  std::uint64_t num_agents() const noexcept { return num_agents_; }
  std::uint64_t steps() const noexcept {
    return passthrough_ ? base_.steps() : steps_;
  }
  double parallel_time() const noexcept {
    return static_cast<double>(steps()) / static_cast<double>(num_agents_);
  }
  bool all_same_output() const noexcept {
    return passthrough_ ? base_.all_same_output() : config_.all_same_output();
  }
  Output dominant_output() const noexcept {
    return passthrough_ ? base_.dominant_output() : config_.dominant_output();
  }
  std::uint64_t output_agents(Output output) const noexcept {
    return passthrough_ ? base_.output_agents(output)
                        : config_.output_agents(output);
  }

  void step(Xoshiro256ss& rng) {
    if (passthrough_) {
      base_.step(rng);
      return;
    }
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
    // In counts mode the adapter owns the dynamics, so the scheduled pair is
    // classified here (passthrough delegates to the base, which records).
    POPBEAN_OBS_HOOK(if (probe_ != nullptr) {
      probe_->record(is_null(protocol().apply(a, b), a, b)
                         ? obs::ReactionKind::kNull
                         : obs::classify_interaction(protocol(), a, b));
    })
    ++counters_.injected_interactions;
    ++steps_;
  }

  // --- perturbation surface -------------------------------------------------

  // The wrapped engine; counts mode leaves it as constructed.
  const E& base() const noexcept { return base_; }
  const auto& protocol() const noexcept { return base_.protocol(); }
  Counts counts() const {
    return passthrough_ ? Counts(base_.counts()) : config_.counts();
  }

  bool passthrough() const noexcept { return passthrough_; }
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

  // Attaches an interaction probe (src/obs). In passthrough mode the probe
  // is forwarded to the base engine, which records each delegated step; in
  // counts mode the adapter records the pairs it schedules itself — exactly
  // one of the two paths is live, so interactions are never double-counted.
  void attach_probe(obs::EngineProbe* probe) noexcept {
    if (passthrough_) {
      if constexpr (requires(E& e) { e.attach_probe(probe); }) {
        base_.attach_probe(probe);
        return;
      }
    }
    probe_ = probe;
  }

  // Attach an event recorder. Counts mode only: a passthrough adapter
  // delegates whole steps to the base engine, so there are no step-level
  // decisions to observe (and nothing perturbed to replay).
  void attach_observer(StepObserver* observer) {
    POPBEAN_CHECK_MSG(observer == nullptr || !passthrough_,
                      "cannot observe a passthrough adapter: attach an active "
                      "fault model or a non-delegating schedule");
    observer_ = observer;
  }

  // --- snapshot hooks (src/recovery) ---------------------------------------
  // Serializes the base engine's state (in counts mode, the engine as
  // constructed), both split rng streams, the counts-level configuration,
  // the fault counters, and any mutable model state (schedule models like
  // EpidemicRounds carry per-run state). The bounded FaultLog is *not* part
  // of a snapshot — it is reporting state, not dynamics; use the
  // record/replay event log for full fault history. An attached monitor is
  // external and must be restored by the caller.
  static constexpr std::string_view kSnapshotKind = "engine/perturbed";

  void save_state(BinaryWriter& out) const {
    base_.save_state(out);
    out.u8(passthrough_ ? 1 : 0);
    for (const std::uint64_t w : fault_rng_.state_words()) out.u64(w);
    for (const std::uint64_t w : sched_rng_.state_words()) out.u64(w);
    out.u64(steps_);
    config_.save(out);
    out.u64(counters_.crashes);
    out.u64(counters_.recoveries);
    out.u64(counters_.corruptions);
    out.u64(counters_.sign_flips);
    out.u64(counters_.stuck);
    out.u64(counters_.schedule_delays);
    out.u64(counters_.injected_interactions);
    if constexpr (requires(BinaryWriter& w) { faults_.save_state(w); }) {
      faults_.save_state(out);
    }
    if constexpr (requires(BinaryWriter& w) { schedule_.save_state(w); }) {
      schedule_.save_state(out);
    }
  }

  void load_state(BinaryReader& in) {
    if (passthrough_) {
      base_.load_state(in);
    } else {
      E(base_).load_state(in);  // checked, then dropped: base_ stays as built
    }
    const std::uint8_t passthrough = in.u8();
    POPBEAN_CHECK_MSG((passthrough != 0) == passthrough_,
                      "snapshot operating mode does not match this adapter "
                      "(fault/schedule models differ)");
    std::array<std::uint64_t, 4> words;
    for (std::uint64_t& w : words) w = in.u64();
    fault_rng_.set_state_words(words);
    for (std::uint64_t& w : words) w = in.u64();
    sched_rng_.set_state_words(words);
    steps_ = in.u64();
    config_.load(in);
    counters_.crashes = in.u64();
    counters_.recoveries = in.u64();
    counters_.corruptions = in.u64();
    counters_.sign_flips = in.u64();
    counters_.stuck = in.u64();
    counters_.schedule_delays = in.u64();
    counters_.injected_interactions = in.u64();
    if constexpr (requires(BinaryReader& r) { faults_.load_state(r); }) {
      faults_.load_state(in);
    }
    if constexpr (requires(BinaryReader& r) { schedule_.load_state(r); }) {
      schedule_.load_state(in);
    }
  }

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

  E base_;
  F faults_;
  S schedule_;
  Xoshiro256ss fault_rng_;
  Xoshiro256ss sched_rng_;
  std::uint64_t num_agents_;
  bool passthrough_;

  PerturbedConfiguration config_;  // counts mode only
  std::uint64_t steps_ = 0;

  std::vector<FaultEvent> events_;
  FaultCounters counters_;
  FaultLog log_;
  InvariantMonitor* monitor_ = nullptr;
  StepObserver* observer_ = nullptr;
  obs::EngineProbe* probe_ = nullptr;  // counts mode only; see attach_probe
};

// Deduction-friendly factory: wraps `base` with the given models, splitting
// the fault and schedule streams off `root` without advancing it.
template <PerturbableEngineLike E, FaultModelLike F, ScheduleModelLike S>
PerturbedEngine<E, F, S> make_perturbed(E base, F faults, S schedule,
                                        const Xoshiro256ss& root) {
  return PerturbedEngine<E, F, S>(std::move(base), std::move(faults),
                                  std::move(schedule), root);
}

}  // namespace popbean::faults

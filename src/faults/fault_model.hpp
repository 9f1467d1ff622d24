// Fault models: seeded, deterministic decisions about which agents to
// perturb, decoupled from how the perturbation is imprinted on an engine.
//
// A fault model never touches an engine. It observes a FaultView — the full
// configuration plus the crashed/stubborn bookkeeping of the run's
// PerturbedConfiguration — and emits FaultEvents, which that configuration
// validates and applies.
// This keeps the models engine-agnostic (the same CrashRecovery instance
// drives agent-, count- and skip-based runs) and keeps all randomness on the
// fault stream split off the perturbation root, so a model whose rates are
// all zero provably cannot disturb the base trajectory.
//
// Rate semantics: each `*_rate` is a per-interaction firing probability
// (DESIGN.md §6). At most one event per model per interaction keeps the
// dynamics comparable across rates.
#pragma once

#include <cmath>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "core/avc.hpp"
#include "faults/fault_log.hpp"
#include "population/configuration.hpp"
#include "population/protocol.hpp"
#include "protocols/four_state.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace popbean::faults {

// What a fault model may observe when deciding injections. `frozen` (crashed)
// and `stuck` (stubborn) are disjoint per-state sub-populations of `total`;
// "mobile" agents — interacting and updatable — are the remainder, and are
// the only valid targets for new faults.
struct FaultView {
  const Counts& total;   // full configuration (frozen agents included)
  const Counts& frozen;  // crashed agents per state
  const Counts& stuck;   // stubborn agents per state
  std::uint64_t num_agents = 0;
  std::uint64_t frozen_count = 0;
  std::uint64_t stuck_count = 0;

  std::size_t num_states() const noexcept { return total.size(); }
  std::uint64_t mobile(State q) const {
    return total[q] - frozen[q] - stuck[q];
  }
  std::uint64_t mobile_count() const noexcept {
    return num_agents - frozen_count - stuck_count;
  }
};

// Samples a state with probability proportional to weight(q). total_weight
// must equal Σ_q weight(q) and be positive.
template <typename WeightFn>
State sample_state(std::size_t num_states, std::uint64_t total_weight,
                   WeightFn&& weight, Xoshiro256ss& rng) {
  POPBEAN_DCHECK(total_weight > 0);
  std::uint64_t target = rng.below(total_weight);
  for (State q = 0; q < num_states; ++q) {
    const std::uint64_t w = weight(q);
    if (target < w) return q;
    target -= w;
  }
  POPBEAN_CHECK_MSG(false, "sample_state: total_weight exceeds the weights");
  return 0;
}

inline State sample_mobile(const FaultView& view, Xoshiro256ss& rng) {
  return sample_state(
      view.num_states(), view.mobile_count(),
      [&](State q) { return view.mobile(q); }, rng);
}

// A fault model: `active()` gates all per-step work (a model with every rate
// at zero reports false and the adapter stays in pure passthrough),
// `on_init` fires once after construction (one-shot faults such as stuck-at
// marking), `before_step` fires before every interaction.
template <typename F>
concept FaultModelLike =
    requires(F model, const FaultView& view, Xoshiro256ss& rng,
             std::vector<FaultEvent>& out) {
      { model.active() } -> std::convertible_to<bool>;
      model.on_init(view, rng, out);
      model.before_step(view, rng, out);
    };

// The identity model — nothing ever fires.
struct NoFaults {
  bool active() const noexcept { return false; }
  void on_init(const FaultView&, Xoshiro256ss&,
               std::vector<FaultEvent>&) const {}
  void before_step(const FaultView&, Xoshiro256ss&,
                   std::vector<FaultEvent>&) const {}
};

// Crash/recovery faults: a crashed agent keeps its state (and its output,
// which is exactly why crashes threaten convergence) but leaves the
// interacting pool until it recovers.
class CrashRecovery {
 public:
  CrashRecovery(double crash_rate, double recovery_rate)
      : crash_rate_(crash_rate), recovery_rate_(recovery_rate) {
    POPBEAN_CHECK(crash_rate >= 0.0 && crash_rate <= 1.0);
    POPBEAN_CHECK(recovery_rate >= 0.0 && recovery_rate <= 1.0);
  }

  bool active() const noexcept {
    return crash_rate_ > 0.0 || recovery_rate_ > 0.0;
  }
  void on_init(const FaultView&, Xoshiro256ss&,
               std::vector<FaultEvent>&) const {}

  void before_step(const FaultView& view, Xoshiro256ss& rng,
                   std::vector<FaultEvent>& out) const {
    if (crash_rate_ > 0.0 && rng.bernoulli(crash_rate_) &&
        view.mobile_count() > 0) {
      out.push_back({FaultKind::kCrash, sample_mobile(view, rng), 0, 0});
    }
    if (recovery_rate_ > 0.0 && view.frozen_count > 0 &&
        rng.bernoulli(recovery_rate_)) {
      const State q = sample_state(
          view.num_states(), view.frozen_count,
          [&](State s) { return view.frozen[s]; }, rng);
      out.push_back({FaultKind::kRecover, q, q, 0});
    }
  }

 private:
  double crash_rate_;
  double recovery_rate_;
};

// Transient corruption: a uniformly random mobile agent's state is replaced
// by a uniformly random *valid* state. Breaks any conservation law with
// probability ~ (1 - 1/s) per firing — the canonical threat to the AVC sum
// invariant (paper Invariant 4.3).
class TransientCorruption {
 public:
  explicit TransientCorruption(double rate) : rate_(rate) {
    POPBEAN_CHECK(rate >= 0.0 && rate <= 1.0);
  }

  bool active() const noexcept { return rate_ > 0.0; }
  void on_init(const FaultView&, Xoshiro256ss&,
               std::vector<FaultEvent>&) const {}

  void before_step(const FaultView& view, Xoshiro256ss& rng,
                   std::vector<FaultEvent>& out) const {
    if (rate_ <= 0.0 || !rng.bernoulli(rate_)) return;
    if (view.mobile_count() == 0) return;
    const State from = sample_mobile(view, rng);
    const auto to =
        static_cast<State>(rng.below(static_cast<std::uint64_t>(
            view.num_states())));
    out.push_back({FaultKind::kCorrupt, from, to, 0});
  }

 private:
  double rate_;
};

// Stuck-at (stubborn) agents: a fixed fraction of the initial population is
// marked at init; a stubborn agent still participates in interactions — its
// partner updates per δ — but never updates its own state. Because δ's
// conservation laws are pairwise, a stubborn participant's withheld update
// is itself an invariant violation.
class StuckAt {
 public:
  explicit StuckAt(double fraction) : fraction_(fraction) {
    POPBEAN_CHECK(fraction >= 0.0 && fraction <= 1.0);
  }

  bool active() const noexcept { return fraction_ > 0.0; }

  void on_init(const FaultView& view, Xoshiro256ss& rng,
               std::vector<FaultEvent>& out) const {
    auto k = static_cast<std::uint64_t>(std::llround(
        fraction_ * static_cast<double>(view.num_agents)));
    if (k > view.mobile_count()) k = view.mobile_count();
    // Sample without replacement from the mobile population.
    Counts pool(view.num_states());
    std::uint64_t remaining = 0;
    for (State q = 0; q < view.num_states(); ++q) {
      pool[q] = view.mobile(q);
      remaining += pool[q];
    }
    for (std::uint64_t i = 0; i < k; ++i) {
      const State q = sample_state(
          view.num_states(), remaining, [&](State s) { return pool[s]; }, rng);
      --pool[q];
      --remaining;
      out.push_back({FaultKind::kStick, q, q, 0});
    }
  }

  void before_step(const FaultView&, Xoshiro256ss&,
                   std::vector<FaultEvent>&) const {}

 private:
  double fraction_;
};

// Adversarial sign flip: a mobile agent in an *eligible* state is replaced
// by `flip_map[state]`. The shipped instantiations target the states whose
// corruption hurts exactness the most: AVC strong states (value v ↦ −v) and
// the four-state strong opinions (A ↔ B).
class SignFlip {
 public:
  SignFlip(double rate, std::vector<State> flip_map,
           std::vector<char> eligible)
      : rate_(rate), flip_map_(std::move(flip_map)),
        eligible_(std::move(eligible)) {
    POPBEAN_CHECK(rate >= 0.0 && rate <= 1.0);
    POPBEAN_CHECK(flip_map_.size() == eligible_.size());
    for (State q = 0; q < flip_map_.size(); ++q) {
      POPBEAN_CHECK(flip_map_[q] < flip_map_.size());
    }
  }

  bool active() const noexcept { return rate_ > 0.0; }
  void on_init(const FaultView&, Xoshiro256ss&,
               std::vector<FaultEvent>&) const {}

  void before_step(const FaultView& view, Xoshiro256ss& rng,
                   std::vector<FaultEvent>& out) const {
    if (rate_ <= 0.0 || !rng.bernoulli(rate_)) return;
    POPBEAN_CHECK(view.num_states() == flip_map_.size());
    std::uint64_t eligible_mobile = 0;
    for (State q = 0; q < view.num_states(); ++q) {
      if (eligible_[q]) eligible_mobile += view.mobile(q);
    }
    if (eligible_mobile == 0) return;
    const State from = sample_state(
        view.num_states(), eligible_mobile,
        [&](State q) { return eligible_[q] ? view.mobile(q) : 0; }, rng);
    out.push_back({FaultKind::kSignFlip, from, flip_map_[from], 0});
  }

  const std::vector<State>& flip_map() const noexcept { return flip_map_; }
  const std::vector<char>& eligible() const noexcept { return eligible_; }

 private:
  double rate_;
  std::vector<State> flip_map_;
  std::vector<char> eligible_;
};

// AVC-targeted sign flip: strong states (|value| ≥ 3) flip to the state of
// the negated value; intermediates and weak states are untouched (flipping
// a ±1 or ±0 perturbs the sum far less than flipping a ±m — the adversary
// goes for the big weights).
inline SignFlip avc_sign_flip(const avc::AvcProtocol& protocol, double rate) {
  const avc::StateCodec& codec = protocol.codec();
  std::vector<State> map(protocol.num_states());
  std::vector<char> eligible(protocol.num_states(), 0);
  for (State q = 0; q < protocol.num_states(); ++q) {
    const int value = codec.value_of(q);
    if (value >= 3 || value <= -3) {
      map[q] = codec.from_value(-value);
      eligible[q] = 1;
    } else {
      map[q] = q;
    }
  }
  return SignFlip(rate, std::move(map), std::move(eligible));
}

// Four-state sign flip: swaps the strong opinions A ↔ B (weak states are
// not eligible), breaking the #A − #B difference invariant by ±2 per flip.
inline SignFlip four_state_sign_flip(double rate) {
  std::vector<State> map(4);
  std::vector<char> eligible(4, 0);
  map[FourStateProtocol::kStrongA] = FourStateProtocol::kStrongB;
  map[FourStateProtocol::kStrongB] = FourStateProtocol::kStrongA;
  map[FourStateProtocol::kWeakA] = FourStateProtocol::kWeakA;
  map[FourStateProtocol::kWeakB] = FourStateProtocol::kWeakB;
  eligible[FourStateProtocol::kStrongA] = 1;
  eligible[FourStateProtocol::kStrongB] = 1;
  return SignFlip(rate, std::move(map), std::move(eligible));
}

// Runs several fault models in sequence on the same stream (declaration
// order is firing order within a step).
template <FaultModelLike... Fs>
class ComposedFaults {
 public:
  explicit ComposedFaults(Fs... models) : models_(std::move(models)...) {}

  bool active() const {
    return std::apply(
        [](const Fs&... models) { return (models.active() || ...); }, models_);
  }

  void on_init(const FaultView& view, Xoshiro256ss& rng,
               std::vector<FaultEvent>& out) {
    std::apply([&](Fs&... models) { (models.on_init(view, rng, out), ...); },
               models_);
  }

  void before_step(const FaultView& view, Xoshiro256ss& rng,
                   std::vector<FaultEvent>& out) {
    std::apply(
        [&](Fs&... models) { (models.before_step(view, rng, out), ...); },
        models_);
  }

 private:
  std::tuple<Fs...> models_;
};

static_assert(FaultModelLike<NoFaults>);
static_assert(FaultModelLike<CrashRecovery>);
static_assert(FaultModelLike<TransientCorruption>);
static_assert(FaultModelLike<StuckAt>);
static_assert(FaultModelLike<SignFlip>);
static_assert(FaultModelLike<ComposedFaults<CrashRecovery, SignFlip>>);

}  // namespace popbean::faults

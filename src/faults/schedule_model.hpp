// Schedule models: who interacts next.
//
// The paper's model draws a uniformly random ordered pair of distinct agents
// per step; every convergence bound is proved against that scheduler.
// Exactness, however, is a *safety* property (it follows from Invariant 4.3
// and absorption, not from uniformity), so AVC must decide correctly under
// any schedule that keeps the population connected — these models let the
// robustness suite probe exactly that separation: skewed schedules may slow
// convergence arbitrarily but must never produce a wrong verdict, while
// fault models (fault_model.hpp) can break correctness itself.
//
// Schedule models operate at the counts level on the configuration of
// *interacting* (non-crashed) agents: `select` returns the ordered
// (initiator, responder) state pair of the next interaction. A model with
// `kDelegates == true` (the uniform baseline) additionally promises that
// its selection law is identical to the engines' own, so a fault sweep may
// run a cell with no active fault on the plain count engine instead.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "faults/fault_log.hpp"
#include "population/configuration.hpp"
#include "population/protocol.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace popbean::faults {

template <typename S>
concept ScheduleModelLike = requires {
  { S::kDelegates } -> std::convertible_to<bool>;
  { S::name() } -> std::convertible_to<std::string>;
};

// State holding the `target`-th interacting agent in state order.
inline State state_at_prefix(const Counts& active, std::uint64_t target) {
  for (State q = 0;; ++q) {
    POPBEAN_DCHECK(q < active.size());
    if (target < active[q]) return q;
    target -= active[q];
  }
}

// The ordered state pair of a uniformly random ordered pair of distinct
// interacting agents — the engines' own law, reproduced at the counts level.
inline std::pair<State, State> sample_uniform_pair(const Counts& active,
                                                   std::uint64_t active_total,
                                                   Xoshiro256ss& rng) {
  POPBEAN_DCHECK(active_total >= 2);
  const State a = state_at_prefix(active, rng.below(active_total));
  // Exclude the initiator agent when drawing the responder.
  std::uint64_t target = rng.below(active_total - 1);
  for (State q = 0;; ++q) {
    POPBEAN_DCHECK(q < active.size());
    const std::uint64_t c = active[q] - (q == a ? 1 : 0);
    if (target < c) return {a, q};
    target -= c;
  }
}

// The baseline: matches the engines' uniform scheduler in law, so a fault
// sweep runs it on the plain count engine whenever no fault model is active.
struct UniformSchedule {
  static constexpr bool kDelegates = true;
  static std::string name() { return "uniform"; }

  template <ProtocolLike P>
  std::pair<State, State> select(const P&, const Counts& active,
                                 std::uint64_t active_total, Xoshiro256ss& rng,
                                 FaultCounters&) {
    return sample_uniform_pair(active, active_total, rng);
  }
};

// Skewed (Zipf) selection: an agent in state q interacts at a rate
// proportional to (q + 1)^{-exponent}. A state-indexed instance of [DV12]'s
// general-rates model; with exponent 0 it degenerates to uniform (but still
// runs through the adapter — use UniformSchedule for the delegating
// baseline).
class ZipfSchedule {
 public:
  static constexpr bool kDelegates = false;
  static std::string name() { return "zipf"; }

  explicit ZipfSchedule(double exponent = 1.0) : exponent_(exponent) {
    POPBEAN_CHECK(exponent >= 0.0);
  }

  template <ProtocolLike P>
  std::pair<State, State> select(const P&, const Counts& active,
                                 [[maybe_unused]] std::uint64_t active_total,
                                 Xoshiro256ss& rng, FaultCounters&) {
    POPBEAN_DCHECK(active_total >= 2);
    ensure_weights(active.size());
    const State a = pick(active, kNoExclusion, rng);
    const State b = pick(active, a, rng);
    return {a, b};
  }

 private:
  static constexpr State kNoExclusion = ~State{0};

  void ensure_weights(std::size_t num_states) {
    if (rate_.size() == num_states) return;
    rate_.resize(num_states);
    for (std::size_t q = 0; q < num_states; ++q) {
      rate_[q] = std::pow(static_cast<double>(q + 1), -exponent_);
    }
  }

  // Samples a state ∝ active[q] · rate_[q], excluding one agent of state
  // `exclude` (the already-chosen initiator).
  State pick(const Counts& active, State exclude, Xoshiro256ss& rng) const {
    double total = 0.0;
    for (State q = 0; q < active.size(); ++q) {
      total += static_cast<double>(active[q] - (q == exclude ? 1 : 0)) *
               rate_[q];
    }
    POPBEAN_DCHECK(total > 0.0);
    double target = rng.unit() * total;
    State last_positive = 0;
    for (State q = 0; q < active.size(); ++q) {
      const double w =
          static_cast<double>(active[q] - (q == exclude ? 1 : 0)) * rate_[q];
      if (w <= 0.0) continue;
      last_positive = q;
      if (target < w) return q;
      target -= w;
    }
    return last_positive;  // floating-point slack lands on the last camp
  }

  double exponent_;
  std::vector<double> rate_;
};

// Epidemic synchronous rounds: each agent participates in at most one
// interaction per round (a random matching fired pair-by-pair). Implemented
// at the counts level by drawing without replacement from the round's
// opening configuration, clamped to current availability — agents whose
// state changed mid-round are matched under their new state.
class EpidemicRounds {
 public:
  static constexpr bool kDelegates = false;
  static std::string name() { return "rounds"; }

  template <ProtocolLike P>
  std::pair<State, State> select(const P&, const Counts& active,
                                 [[maybe_unused]] std::uint64_t active_total,
                                 Xoshiro256ss& rng, FaultCounters&) {
    POPBEAN_DCHECK(active_total >= 2);
    if (clamped_total(active) < 2) refill(active);
    const State a = pick_and_consume(active, rng);
    if (clamped_total(active) < 1) refill(active);
    const State b = pick_and_consume(active, rng);
    return {a, b};
  }

  std::uint64_t rounds_started() const noexcept { return rounds_; }

 private:
  std::uint64_t clamped_total(const Counts& active) const {
    if (remaining_.size() != active.size()) return 0;
    std::uint64_t total = 0;
    for (State q = 0; q < active.size(); ++q) {
      total += std::min(remaining_[q], active[q]);
    }
    return total;
  }

  void refill(const Counts& active) {
    remaining_ = active;
    ++rounds_;
  }

  State pick_and_consume(const Counts& active, Xoshiro256ss& rng) {
    const std::uint64_t total = clamped_total(active);
    POPBEAN_DCHECK(total >= 1);
    std::uint64_t target = rng.below(total);
    for (State q = 0;; ++q) {
      POPBEAN_DCHECK(q < active.size());
      const std::uint64_t c = std::min(remaining_[q], active[q]);
      if (target < c) {
        --remaining_[q];
        return q;
      }
      target -= c;
    }
  }

  Counts remaining_;
  std::uint64_t rounds_ = 0;
};

// Bounded greedy adversary: redraws (up to `budget` times per step) any
// uniformly sampled pair whose transition would grow the camp outputting
// `delayed_output`. With `delayed_output` set to the true majority this
// greedily delays convergence; exact protocols must still never decide
// wrong. budget = 0 is the uniform scheduler drawn through the adapter.
class BoundedAdversary {
 public:
  static constexpr bool kDelegates = false;
  static std::string name() { return "adversary"; }

  BoundedAdversary(Output delayed_output, int budget)
      : delayed_output_(delayed_output), budget_(budget) {
    POPBEAN_CHECK(budget >= 0);
  }

  template <ProtocolLike P>
  std::pair<State, State> select(const P& protocol, const Counts& active,
                                 std::uint64_t active_total, Xoshiro256ss& rng,
                                 FaultCounters& counters) {
    auto pair = sample_uniform_pair(active, active_total, rng);
    for (int attempt = 0; attempt < budget_; ++attempt) {
      if (output_gain(protocol, pair) <= 0) break;
      ++counters.schedule_delays;
      pair = sample_uniform_pair(active, active_total, rng);
    }
    return pair;
  }

 private:
  // Net change in the number of agents outputting `delayed_output_` if the
  // pair interacts.
  template <ProtocolLike P>
  int output_gain(const P& protocol, const std::pair<State, State>& pair)
      const {
    const Transition t = protocol.apply(pair.first, pair.second);
    const auto counts_toward = [&](State q) {
      return protocol.output(q) == delayed_output_ ? 1 : 0;
    };
    return counts_toward(t.initiator) - counts_toward(pair.first) +
           counts_toward(t.responder) - counts_toward(pair.second);
  }

  Output delayed_output_;
  int budget_;
};

static_assert(ScheduleModelLike<UniformSchedule>);
static_assert(ScheduleModelLike<ZipfSchedule>);
static_assert(ScheduleModelLike<EpidemicRounds>);
static_assert(ScheduleModelLike<BoundedAdversary>);

}  // namespace popbean::faults

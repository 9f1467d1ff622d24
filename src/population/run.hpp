// Driving an engine to convergence and reporting the outcome.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>

#include "population/protocol.hpp"
#include "util/rng.hpp"

namespace popbean {

// Common surface of the simulation engines (agent, count, skip).
template <typename E>
concept EngineLike = requires(E engine, Xoshiro256ss& rng) {
  { engine.num_agents() } -> std::convertible_to<std::uint64_t>;
  { engine.steps() } -> std::convertible_to<std::uint64_t>;
  { engine.parallel_time() } -> std::convertible_to<double>;
  { engine.all_same_output() } -> std::convertible_to<bool>;
  { engine.dominant_output() } -> std::convertible_to<Output>;
  engine.step(rng);
};

enum class RunStatus {
  kConverged,   // all agents map to the same output
  kStepLimit,   // interaction budget exhausted first
  kAbsorbing,   // no productive interaction possible, outputs still mixed
};

struct RunResult {
  RunStatus status = RunStatus::kStepLimit;
  Output decided = 0;           // meaningful when converged
  std::uint64_t interactions = 0;
  double parallel_time = 0.0;   // interactions / n

  bool converged() const noexcept { return status == RunStatus::kConverged; }
};

// The outcome of a run that stopped with `status` on the engine's current
// configuration.
template <EngineLike E>
RunResult run_result(const E& engine, RunStatus status) {
  RunResult result;
  result.status = status;
  if (status == RunStatus::kConverged) {
    result.decided = engine.dominant_output();
  }
  result.interactions = engine.steps();
  result.parallel_time = engine.parallel_time();
  return result;
}

// Steps the engine until every agent maps to the same output, the
// interaction budget runs out, or (skip engine only) the configuration is
// absorbing with mixed outputs. "All agents same output" is an absorbing
// predicate for every protocol in this library (paper Lemma A.1 for AVC;
// convergence_test.cpp checks the baselines), so stopping there matches the
// paper's convergence-time metric.
//
// `should_stop` is polled every `poll_interval` interactions (and before the
// first), and a true return abandons the run with std::nullopt — the engine
// is left mid-run and the caller decides whether to retry, checkpoint, or
// drop it. A completed run is bit-identical to run_to_convergence with the
// same inputs: polling touches no randomness. This is what gives the
// crash-tolerant sweep its per-replication timeouts and SIGINT draining
// without perturbing results.
template <EngineLike E, typename StopFn>
std::optional<RunResult> run_to_convergence_interruptible(
    E& engine, Xoshiro256ss& rng, std::uint64_t max_interactions,
    StopFn&& should_stop, std::uint64_t poll_interval = 1024) {
  if (poll_interval == 0) poll_interval = 1;
  std::uint64_t until_poll = 0;
  while (!engine.all_same_output()) {
    if (until_poll == 0) {
      if (should_stop()) return std::nullopt;
      until_poll = poll_interval;
    }
    --until_poll;
    if (engine.steps() >= max_interactions) {
      return run_result(engine, RunStatus::kStepLimit);
    }
    const std::uint64_t before = engine.steps();
    engine.step(rng);
    if (engine.steps() == before) {  // skip engine hit an absorbing config
      return run_result(engine, RunStatus::kAbsorbing);
    }
  }
  return run_result(engine, RunStatus::kConverged);
}

// run_to_convergence_interruptible that is never interrupted.
template <EngineLike E>
RunResult run_to_convergence(
    E& engine, Xoshiro256ss& rng,
    std::uint64_t max_interactions = std::numeric_limits<std::uint64_t>::max()) {
  return *run_to_convergence_interruptible(engine, rng, max_interactions,
                                           [] { return false; });
}

}  // namespace popbean

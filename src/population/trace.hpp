// Trajectory tracing: sampled time series of observables along a run.
//
// The AVC analysis (§4) is phase-structured: extremal weights halve every
// O(log n) parallel time (Claim A.2), no node hits weight 0 early
// (Claim A.3), then a four-state-like endgame converts the stragglers
// (Claim A.4). TraceRecorder lets benches and examples watch exactly those
// quantities along a simulated run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "population/configuration.hpp"
#include "population/run.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace popbean {

// A named scalar observable computed from a configuration.
struct Observable {
  std::string name;
  std::function<double(const Counts&)> eval;
};

// One sampled row: parallel time plus the observables' values.
struct TracePoint {
  double parallel_time = 0.0;
  std::uint64_t interactions = 0;
  std::vector<double> values;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(std::vector<Observable> observables)
      : observables_(std::move(observables)) {
    POPBEAN_CHECK(!observables_.empty());
  }

  const std::vector<Observable>& observables() const noexcept {
    return observables_;
  }
  const std::vector<TracePoint>& points() const noexcept { return points_; }

  void sample(std::uint64_t interactions, std::uint64_t num_agents,
              const Counts& counts) {
    TracePoint point;
    point.interactions = interactions;
    point.parallel_time =
        static_cast<double>(interactions) / static_cast<double>(num_agents);
    point.values.reserve(observables_.size());
    for (const Observable& obs : observables_) {
      point.values.push_back(obs.eval(counts));
    }
    points_.push_back(std::move(point));
  }

  // Runs `engine` through run_to_convergence, sampling every `stride`
  // interactions (plus the initial and final configurations). The sampler is
  // the loop's poll, which touches no randomness, so the run is the one
  // run_to_convergence gives.
  template <EngineLike E>
  RunResult record(E& engine, Xoshiro256ss& rng, std::uint64_t stride,
                   std::uint64_t max_interactions) {
    POPBEAN_CHECK(stride > 0);
    const auto take_sample = [&] {
      sample(engine.steps(), engine.num_agents(), engine.counts());
    };
    take_sample();
    std::uint64_t next_sample = engine.steps() + stride;
    const RunResult result = *run_to_convergence_interruptible(
        engine, rng, max_interactions,
        [&] {
          if (engine.steps() >= next_sample) {
            take_sample();
            next_sample = engine.steps() + stride;
          }
          return false;
        },
        1);
    take_sample();
    return result;
  }

 private:
  std::vector<Observable> observables_;
  std::vector<TracePoint> points_;
};

}  // namespace popbean

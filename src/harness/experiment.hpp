// Experiment harness: runs seeded, replicated majority instances of any
// protocol on a chosen engine and aggregates outcome statistics. This is
// the layer the reproduction benches (Figures 3 and 4, the scaling and
// lower-bound studies) are written against.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "population/configuration.hpp"
#include "population/protocol.hpp"
#include "population/run.hpp"
#include "population/with_engine.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace popbean {

// A majority-problem input: n agents, the majority opinion leading by
// `margin` agents (so ε = margin / n, paper §2).
struct MajorityInstance {
  std::uint64_t n = 0;
  std::uint64_t margin = 0;
  Opinion majority = Opinion::A;

  double epsilon() const noexcept {
    return static_cast<double>(margin) / static_cast<double>(n);
  }
  Output correct_output() const noexcept { return output_of(majority); }
};

// Builds an instance with ε as close as possible to `epsilon_target`:
// margin = round(ε·n) clamped to [1, n] and adjusted to n's parity so the
// two camps are integral.
inline MajorityInstance make_instance(std::uint64_t n, double epsilon_target,
                                      Opinion majority = Opinion::A) {
  POPBEAN_CHECK(n >= 2);
  POPBEAN_CHECK(epsilon_target > 0.0 && epsilon_target <= 1.0);
  auto margin = static_cast<std::uint64_t>(
      std::llround(epsilon_target * static_cast<double>(n)));
  if (margin < 1) margin = 1;
  if (margin > n) margin = n;
  if ((n - margin) % 2 != 0) {
    margin = margin == n ? margin - 1 : margin + 1;
  }
  POPBEAN_CHECK((n - margin) % 2 == 0 && margin >= 1);
  return {n, margin, majority};
}

// Runs one replicate to convergence. `stream` individualizes the RNG so
// replicate r of a sweep point is reproducible in isolation.
template <ProtocolLike P>
RunResult run_majority_once(const P& protocol, const MajorityInstance& instance,
                            EngineKind kind, std::uint64_t seed,
                            std::uint64_t stream,
                            std::uint64_t max_interactions) {
  const Counts counts = majority_instance_with_margin(
      protocol, instance.n, instance.margin, instance.majority);
  Xoshiro256ss rng(seed, stream);
  if (kind == EngineKind::kAuto) {
    kind = protocol.num_states() <= SkipEngine<P>::kMaxStates
               ? EngineKind::kSkip
               : EngineKind::kCount;
  }
  return with_engine(kind, protocol, counts, rng, [&](auto& engine) {
    return run_to_convergence(engine, rng, max_interactions);
  });
}

// Aggregate over replicates of one experimental point, with the full
// RunStatus breakdown — fault studies need to distinguish "ran out of
// budget" from "the population halted with mixed outputs".
struct ReplicationSummary {
  std::size_t replicates = 0;
  std::size_t converged = 0;
  std::size_t correct = 0;    // converged to the majority output
  std::size_t wrong = 0;      // converged to the minority output
  std::size_t step_limit = 0; // interaction budget exhausted, outputs mixed
  std::size_t absorbing = 0;  // no productive interaction left, outputs mixed
  std::size_t timed_out = 0;  // wall-clock timeout, retries exhausted (only
                              // the crash-tolerant sweep produces these)
  Summary parallel_time;      // over converged replicates

  std::size_t unresolved() const noexcept {
    return step_limit + absorbing + timed_out;
  }

  // The paper's Figure 3 (right): fraction of runs ending in the error
  // final state.
  double error_fraction() const noexcept {
    return replicates == 0
               ? 0.0
               : static_cast<double>(wrong) / static_cast<double>(replicates);
  }

  // Fraction of replicates that converged to the correct output — the y-axis
  // of the fault-sweep accuracy curves (1.0 at fault rate 0 for the exact
  // protocols).
  double accuracy() const noexcept {
    return replicates == 0
               ? 0.0
               : static_cast<double>(correct) /
                     static_cast<double>(replicates);
  }
};

// Adds one finished run to `summary`. A converged run's parallel time goes
// to `times`, for the caller to summarize once every run is in; it is taken
// as interactions / n because a run loaded from a sweep manifest stores no
// parallel_time.
inline void tally_run(const RunResult& result, const MajorityInstance& instance,
                      ReplicationSummary& summary, std::vector<double>& times) {
  ++summary.replicates;
  switch (result.status) {
    case RunStatus::kConverged:
      ++summary.converged;
      times.push_back(static_cast<double>(result.interactions) /
                      static_cast<double>(instance.n));
      if (result.decided == instance.correct_output()) {
        ++summary.correct;
      } else {
        ++summary.wrong;
      }
      break;
    case RunStatus::kStepLimit:
      ++summary.step_limit;
      break;
    case RunStatus::kAbsorbing:
      ++summary.absorbing;
      break;
  }
}

// Fans `replicates` runs of the instance across the pool. Replicate r uses
// RNG stream `stream_base + r`.
template <ProtocolLike P>
ReplicationSummary run_replicates(ThreadPool& pool, const P& protocol,
                                  const MajorityInstance& instance,
                                  EngineKind kind, std::size_t replicates,
                                  std::uint64_t seed,
                                  std::uint64_t max_interactions,
                                  std::uint64_t stream_base = 0) {
  POPBEAN_CHECK(replicates > 0);
  std::vector<RunResult> results(replicates);
  parallel_for_index(pool, replicates, [&](std::size_t r) {
    results[r] = run_majority_once(protocol, instance, kind, seed,
                                   stream_base + r, max_interactions);
  });

  ReplicationSummary summary;
  std::vector<double> times;
  times.reserve(replicates);
  for (const RunResult& result : results) {
    tally_run(result, instance, summary, times);
  }
  if (!times.empty()) summary.parallel_time = summarize(times);
  return summary;
}

}  // namespace popbean

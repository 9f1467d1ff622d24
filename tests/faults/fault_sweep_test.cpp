// run_fault_sweep_recoverable without recovery options, end-to-end on small
// populations: the rate-0 column is a perfect control, positive rates
// register faults and invariant violations, results are deterministic in the
// seed, and the JSON report is well formed.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/avc.hpp"
#include "faults/fault_model.hpp"
#include "faults/schedule_model.hpp"
#include "harness/fault_sweep.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"
#include "verify/builtin_invariants.hpp"

namespace popbean {
namespace {

FaultSweepConfig small_config() {
  FaultSweepConfig config;
  config.n = 100;
  config.epsilon = 0.1;
  config.replicates = 8;
  config.seed = 20150721;
  config.max_interactions = 200 * config.n;
  return config;
}

std::vector<FaultSweepPoint> corruption_sweep(
    ThreadPool& pool, const std::vector<double>& rates,
    const FaultSweepConfig& config) {
  const avc::AvcProtocol protocol(3, 1);
  return run_fault_sweep_recoverable(
             pool, protocol, verify::avc_sum_invariant(protocol), "avc", rates,
             config, FaultSweepRecovery{},
             [](double rate) { return faults::TransientCorruption(rate); },
             [] { return faults::UniformSchedule{}; })
      .points;
}

TEST(FaultSweepTest, RateZeroIsAPerfectControl) {
  ThreadPool pool(2);
  const auto points = corruption_sweep(pool, {0.0}, small_config());
  ASSERT_EQ(points.size(), 1u);
  const FaultSweepPoint& point = points[0];
  EXPECT_EQ(point.rate, 0.0);
  EXPECT_EQ(point.summary.replicates, 8u);
  EXPECT_EQ(point.summary.correct, 8u);
  EXPECT_EQ(point.summary.accuracy(), 1.0);
  EXPECT_EQ(point.summary.wrong, 0u);
  EXPECT_EQ(point.counters.total_faults(), 0u);
  EXPECT_EQ(point.counters.injected_interactions, 0u);  // the plain engine
  EXPECT_EQ(point.violated, 0u);
  EXPECT_TRUE(point.violation_times.empty());
}

TEST(FaultSweepTest, PositiveRateRegistersFaultsAndViolations) {
  ThreadPool pool(2);
  const auto points = corruption_sweep(pool, {0.0, 0.02}, small_config());
  ASSERT_EQ(points.size(), 2u);
  const FaultSweepPoint& perturbed = points[1];
  EXPECT_EQ(perturbed.rate, 0.02);
  EXPECT_GT(perturbed.counters.corruptions, 0u);
  EXPECT_GT(perturbed.counters.injected_interactions, 0u);
  // Corruption breaks the AVC sum with probability ≈ 1 - 1/s per firing;
  // over hundreds of firings per replicate every replicate is hit.
  EXPECT_EQ(perturbed.violated, 8u);
  EXPECT_EQ(perturbed.violation_times.size(), perturbed.violated);
  EXPECT_EQ(perturbed.violation_time.count, 8u);
  for (double t : perturbed.violation_times) EXPECT_GE(t, 0.0);
  // Replicate bookkeeping is a partition of the replicate count.
  EXPECT_EQ(perturbed.summary.converged + perturbed.summary.step_limit +
                perturbed.summary.absorbing,
            8u);
}

TEST(FaultSweepTest, IsDeterministicInTheSeed) {
  ThreadPool pool(4);
  const auto a = corruption_sweep(pool, {0.0, 0.01}, small_config());
  const auto b = corruption_sweep(pool, {0.0, 0.01}, small_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a[p].summary.correct, b[p].summary.correct);
    EXPECT_EQ(a[p].summary.wrong, b[p].summary.wrong);
    EXPECT_EQ(a[p].counters.corruptions, b[p].counters.corruptions);
    EXPECT_EQ(a[p].violated, b[p].violated);
    EXPECT_EQ(a[p].violation_times, b[p].violation_times);
  }
}

TEST(FaultSweepTest, ReplicateStreamsAreIndependentOfGridPosition) {
  // Growing the grid must not change earlier points: replicate r of point p
  // draws from stream p·replicates + r regardless of what else is swept.
  ThreadPool pool(2);
  const auto lone = corruption_sweep(pool, {0.0}, small_config());
  const auto grid = corruption_sweep(pool, {0.0, 0.05}, small_config());
  EXPECT_EQ(lone[0].summary.correct, grid[0].summary.correct);
  EXPECT_EQ(lone[0].summary.parallel_time.mean,
            grid[0].summary.parallel_time.mean);
}

TEST(FaultSweepTest, JsonReportIsWellFormed) {
  ThreadPool pool(2);
  const auto points = corruption_sweep(pool, {0.0, 0.02}, small_config());
  std::ostringstream os;
  JsonWriter json(os);
  write_fault_sweep_json(json, "avc(m=3, d=1)", small_config(), points);
  EXPECT_TRUE(json.complete());
  const std::string text = os.str();
  EXPECT_NE(text.find("\"protocol\": \"avc(m=3, d=1)\""), std::string::npos);
  EXPECT_NE(text.find("\"points\""), std::string::npos);
  EXPECT_NE(text.find("\"accuracy\""), std::string::npos);
  EXPECT_NE(text.find("\"corruptions\""), std::string::npos);
  EXPECT_NE(text.find("\"first_violation_time\""), std::string::npos);
}

TEST(FaultSweepTest, AdversaryScheduleCountsDelays) {
  ThreadPool pool(2);
  const avc::AvcProtocol protocol(3, 1);
  FaultSweepConfig config = small_config();
  config.n = 50;
  config.replicates = 4;
  config.max_interactions = 100 * config.n;
  const MajorityInstance instance = make_instance(config.n, config.epsilon);
  const auto points =
      run_fault_sweep_recoverable(
          pool, protocol, verify::avc_sum_invariant(protocol), "avc", {0.0},
          config, FaultSweepRecovery{},
          [](double) { return faults::NoFaults{}; },
          [&] {
            return faults::BoundedAdversary(instance.correct_output(), 8);
          })
          .points;
  ASSERT_EQ(points.size(), 1u);
  // The adversary reorders but never edits: no faults, no violations, no
  // wrong decisions — only delays.
  EXPECT_GT(points[0].counters.schedule_delays, 0u);
  EXPECT_EQ(points[0].counters.total_faults(), 0u);
  EXPECT_EQ(points[0].violated, 0u);
  EXPECT_EQ(points[0].summary.wrong, 0u);
}

}  // namespace
}  // namespace popbean

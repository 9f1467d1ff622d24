#include "population/trace.hpp"

#include <gtest/gtest.h>

#include "core/avc.hpp"
#include "core/avc_observables.hpp"
#include "population/count_engine.hpp"
#include "population/skip_engine.hpp"
#include "protocols/four_state.hpp"
#include "util/rng.hpp"

namespace popbean {
namespace {

Observable output_one_count(const FourStateProtocol& protocol) {
  return {"output1", [&protocol](const Counts& counts) {
            double total = 0;
            for (State q = 0; q < counts.size(); ++q) {
              if (protocol.output(q) == 1) {
                total += static_cast<double>(counts[q]);
              }
            }
            return total;
          }};
}

TEST(TraceTest, SamplesInitialAndFinalConfigurations) {
  FourStateProtocol protocol;
  CountEngine<FourStateProtocol> engine(
      protocol, majority_instance(protocol, 40, 30));
  TraceRecorder recorder({output_one_count(protocol)});
  Xoshiro256ss rng(601);
  const RunResult result = recorder.record(engine, rng, 25, 10'000'000);
  ASSERT_TRUE(result.converged());
  ASSERT_GE(recorder.points().size(), 2u);
  EXPECT_EQ(recorder.points().front().parallel_time, 0.0);
  EXPECT_EQ(recorder.points().front().values[0], 30.0);
  EXPECT_EQ(recorder.points().back().values[0], 40.0);  // unanimous A
  EXPECT_DOUBLE_EQ(recorder.points().back().parallel_time,
                   result.parallel_time);
}

TEST(TraceTest, TimesAreNonDecreasingAndStrided) {
  FourStateProtocol protocol;
  CountEngine<FourStateProtocol> engine(
      protocol, majority_instance(protocol, 60, 40));
  TraceRecorder recorder({output_one_count(protocol)});
  Xoshiro256ss rng(602);
  recorder.record(engine, rng, 30, 10'000'000);
  const auto& points = recorder.points();
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].interactions, points[i - 1].interactions);
    if (i + 1 < points.size() && i > 0) {
      // Interior samples are at least a stride apart.
      EXPECT_GE(points[i].interactions - points[i - 1].interactions, 30u);
    }
  }
}

TEST(TraceTest, MultipleObservablesTrackedTogether) {
  FourStateProtocol protocol;
  CountEngine<FourStateProtocol> engine(
      protocol, majority_instance(protocol, 30, 20));
  Observable population{"n", [](const Counts& counts) {
                          return static_cast<double>(population_size(counts));
                        }};
  TraceRecorder recorder({output_one_count(protocol), population});
  Xoshiro256ss rng(603);
  recorder.record(engine, rng, 10, 10'000'000);
  for (const TracePoint& point : recorder.points()) {
    ASSERT_EQ(point.values.size(), 2u);
    EXPECT_EQ(point.values[1], 30.0);  // population conserved
  }
}

TEST(TraceTest, RespectsStepBudget) {
  FourStateProtocol protocol;
  CountEngine<FourStateProtocol> engine(
      protocol, majority_instance(protocol, 1000, 501));
  TraceRecorder recorder({output_one_count(protocol)});
  Xoshiro256ss rng(604);
  const RunResult result = recorder.record(engine, rng, 100, 500);
  EXPECT_EQ(result.status, RunStatus::kStepLimit);
  EXPECT_EQ(result.interactions, 500u);

  // The skip engine's jump to its only productive pair, which would convert
  // the last weak B, lies far past the budget: the trace stops at it.
  Counts last(4, 0);
  last[FourStateProtocol::kStrongA] = 1;
  last[FourStateProtocol::kWeakA] = 998;
  last[FourStateProtocol::kWeakB] = 1;
  SkipEngine<FourStateProtocol> skip(protocol, last);
  TraceRecorder skip_recorder({output_one_count(protocol)});
  const RunResult cut = skip_recorder.record(skip, rng, 100, 500);
  EXPECT_EQ(cut.status, RunStatus::kStepLimit);
  EXPECT_EQ(cut.interactions, 500u);
}

TEST(TraceTest, ReportsAbsorbingOnTiedInput) {
  // A tied AVC input keeps its value sum at 0 (Invariant 4.3), so the run
  // ends in a mixed absorbing configuration; the trace reports it as such,
  // like run_to_convergence, and not as an exhausted budget.
  const avc::AvcProtocol protocol(3, 1);
  SkipEngine<avc::AvcProtocol> engine(protocol,
                                      majority_instance(protocol, 20, 10));
  TraceRecorder recorder({avc::total_value(protocol)});
  Xoshiro256ss rng(1101);
  const RunResult result = recorder.record(engine, rng, 10, 1'000'000'000);
  EXPECT_EQ(result.status, RunStatus::kAbsorbing);
  EXPECT_LT(result.interactions, 1'000'000'000u);
  EXPECT_EQ(recorder.points().back().interactions, result.interactions);
  for (const TracePoint& point : recorder.points()) {
    EXPECT_EQ(point.values[0], 0.0);
  }
}

}  // namespace
}  // namespace popbean

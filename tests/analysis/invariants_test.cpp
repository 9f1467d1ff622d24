// The AVC sum invariant (paper Invariant 4.3) as a verify::LinearInvariant,
// and TraceRecorder as the way to watch it along a run.
#include <gtest/gtest.h>

#include "core/avc.hpp"
#include "core/avc_observables.hpp"
#include "population/count_engine.hpp"
#include "population/skip_engine.hpp"
#include "population/trace.hpp"
#include "util/rng.hpp"
#include "verify/builtin_invariants.hpp"

namespace popbean {
namespace {

using avc::AvcProtocol;

TEST(AvcSumInvariantTest, HoldsOnInitialConfiguration) {
  AvcProtocol protocol(5, 1);
  const Counts initial = majority_instance_with_margin(protocol, 20, 4);
  EXPECT_EQ(verify::avc_sum_invariant(protocol).value(initial), 20);
}

TEST(AvcSumInvariantTest, DetectsViolation) {
  AvcProtocol protocol(5, 1);
  const Counts initial = majority_instance_with_margin(protocol, 20, 4);
  const verify::LinearInvariant invariant = verify::avc_sum_invariant(protocol);
  Counts corrupted = initial;
  // Move one agent from +5 to -5: the sum drops by 10.
  --corrupted[protocol.codec().from_value(5)];
  ++corrupted[protocol.codec().from_value(-5)];
  EXPECT_EQ(invariant.value(corrupted), invariant.value(initial) - 10);
}

TEST(InspectTrajectoryTest, CallsInspectorAtLeastTwice) {
  AvcProtocol protocol(3, 1);
  CountEngine<AvcProtocol> engine(
      protocol, majority_instance_with_margin(protocol, 20, 2));
  TraceRecorder recorder({avc::total_value(protocol)});
  Xoshiro256ss rng(95);
  recorder.record(engine, rng, 10, 1000);
  EXPECT_GE(recorder.points().size(), 2u);
}

TEST(InspectTrajectoryTest, StopsAtStepBudget) {
  // A skip-engine jump that would land past the budget is cut at it.
  AvcProtocol protocol(3, 1);
  SkipEngine<AvcProtocol> engine(
      protocol, majority_instance_with_margin(protocol, 1000, 2));
  TraceRecorder recorder({avc::total_value(protocol)});
  Xoshiro256ss rng(96);
  const RunResult result = recorder.record(engine, rng, 100, 500);
  EXPECT_EQ(result.status, RunStatus::kStepLimit);
  EXPECT_EQ(result.interactions, 500u);
  EXPECT_EQ(recorder.points().back().interactions, 500u);
}

TEST(InspectTrajectoryTest, StopsAtConvergence) {
  AvcProtocol protocol(1, 1);
  CountEngine<AvcProtocol> engine(
      protocol, majority_instance_with_margin(protocol, 10, 10));
  TraceRecorder recorder({avc::total_value(protocol)});
  Xoshiro256ss rng(97);
  const RunResult result = recorder.record(engine, rng, 10, 1'000'000);
  EXPECT_TRUE(result.converged());
  EXPECT_EQ(result.interactions, 0u);  // unanimous start: already converged
}

}  // namespace
}  // namespace popbean

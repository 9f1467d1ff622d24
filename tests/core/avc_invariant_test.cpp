// Invariant 4.3 (the total encoded value is conserved) checked along whole
// simulated trajectories on every engine.
#include <gtest/gtest.h>

#include "core/avc.hpp"
#include "core/avc_observables.hpp"
#include "population/agent_engine.hpp"
#include "population/configuration.hpp"
#include "population/count_engine.hpp"
#include "population/skip_engine.hpp"
#include "population/trace.hpp"
#include "util/rng.hpp"
#include "verify/builtin_invariants.hpp"

namespace popbean {
namespace {

using avc::AvcProtocol;

TEST(AvcInvariantTest, InitialSumIsMarginTimesM) {
  AvcProtocol protocol(7, 2);
  const Counts counts = majority_instance_with_margin(protocol, 100, 10);
  EXPECT_EQ(protocol.total_value(counts), 10 * 7);
  const Counts counts_b =
      majority_instance_with_margin(protocol, 100, 10, Opinion::B);
  EXPECT_EQ(protocol.total_value(counts_b), -10 * 7);
}

// Records Φ (the invariant) and the population size every `stride`
// interactions of a run on `engine`, and checks both stay at their initial
// values.
template <EngineLike E>
void expect_sum_conserved(E& engine, const AvcProtocol& protocol,
                          const Counts& initial, std::uint64_t seed,
                          std::uint64_t stride) {
  const verify::LinearInvariant invariant = verify::avc_sum_invariant(protocol);
  TraceRecorder recorder(
      {{"sum",
        [&](const Counts& c) { return static_cast<double>(invariant.value(c)); }},
       {"n", [](const Counts& c) {
          return static_cast<double>(population_size(c));
        }}});
  Xoshiro256ss rng(seed);
  recorder.record(engine, rng, stride, 200'000);
  const double expected = static_cast<double>(invariant.value(initial));
  ASSERT_GE(recorder.points().size(), 2u);
  for (const TracePoint& point : recorder.points()) {
    ASSERT_EQ(point.values[0], expected) << "at " << point.interactions;
    ASSERT_EQ(point.values[1], static_cast<double>(population_size(initial)));
  }
}

class AvcInvariantTrajectoryTest
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(AvcInvariantTrajectoryTest, SumConservedOnAgentEngine) {
  const auto [m, d, seed] = GetParam();
  AvcProtocol protocol(m, d);
  const Counts initial = majority_instance_with_margin(protocol, 60, 4);
  AgentEngine<AvcProtocol> engine(protocol, initial);
  expect_sum_conserved(engine, protocol, initial, seed, 97);
}

TEST_P(AvcInvariantTrajectoryTest, SumConservedOnCountEngine) {
  const auto [m, d, seed] = GetParam();
  AvcProtocol protocol(m, d);
  const Counts initial = majority_instance_with_margin(protocol, 60, 4);
  CountEngine<AvcProtocol> engine(protocol, initial);
  expect_sum_conserved(engine, protocol, initial, seed + 1, 101);
}

TEST_P(AvcInvariantTrajectoryTest, SumConservedOnSkipEngine) {
  const auto [m, d, seed] = GetParam();
  AvcProtocol protocol(m, d);
  const Counts initial = majority_instance_with_margin(protocol, 60, 4);
  SkipEngine<AvcProtocol> engine(protocol, initial);
  expect_sum_conserved(engine, protocol, initial, seed + 2, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Params, AvcInvariantTrajectoryTest,
    ::testing::Values(std::tuple{1, 1, 7001}, std::tuple{3, 1, 7002},
                      std::tuple{5, 2, 7003}, std::tuple{9, 1, 7004},
                      std::tuple{9, 5, 7005}, std::tuple{21, 1, 7006},
                      std::tuple{55, 3, 7007}));

TEST(AvcInvariantTest, MajoritySignSurvivorExistsThroughoutRun) {
  // Direct consequence of Invariant 4.3 highlighted by the paper: if the
  // initial sum is positive, at least one positive-value node exists in
  // every reachable configuration.
  AvcProtocol protocol(9, 2);
  const Counts initial = majority_instance_with_margin(protocol, 40, 2);
  CountEngine<AvcProtocol> engine(protocol, initial);
  TraceRecorder recorder({avc::strictly_positive_nodes(protocol)});
  Xoshiro256ss rng(501);
  recorder.record(engine, rng, 50, 500'000);
  for (const TracePoint& point : recorder.points()) {
    ASSERT_GE(point.values[0], 1.0) << "at " << point.interactions;
  }
}

}  // namespace
}  // namespace popbean

#include <gtest/gtest.h>

#include "population/agent_engine.hpp"
#include "population/configuration.hpp"
#include "population/count_engine.hpp"
#include "population/run.hpp"
#include "population/skip_engine.hpp"
#include "protocols/four_state.hpp"
#include "protocols/three_state.hpp"
#include "protocols/voter.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace popbean {
namespace {

TEST(ConfigurationTest, MajorityInstanceCounts) {
  FourStateProtocol protocol;
  const Counts counts = majority_instance(protocol, 10, 7);
  EXPECT_EQ(counts[FourStateProtocol::kStrongA], 7u);
  EXPECT_EQ(counts[FourStateProtocol::kStrongB], 3u);
  EXPECT_EQ(population_size(counts), 10u);
}

TEST(ConfigurationTest, MarginInstanceSplitsExactly) {
  FourStateProtocol protocol;
  const Counts counts = majority_instance_with_margin(protocol, 100, 10);
  EXPECT_EQ(counts[FourStateProtocol::kStrongA], 55u);
  EXPECT_EQ(counts[FourStateProtocol::kStrongB], 45u);
}

TEST(ConfigurationTest, MarginInstanceForMinorityB) {
  FourStateProtocol protocol;
  const Counts counts =
      majority_instance_with_margin(protocol, 100, 10, Opinion::B);
  EXPECT_EQ(counts[FourStateProtocol::kStrongB], 55u);
  EXPECT_EQ(counts[FourStateProtocol::kStrongA], 45u);
}

TEST(ConfigurationTest, ParityMismatchRejected) {
  FourStateProtocol protocol;
  EXPECT_THROW(majority_instance_with_margin(protocol, 100, 9),
               std::logic_error);
}

TEST(ConfigurationTest, OutputAgentsSumsPerOutput) {
  FourStateProtocol protocol;
  Counts counts(4, 0);
  counts[FourStateProtocol::kStrongA] = 3;
  counts[FourStateProtocol::kWeakA] = 2;
  counts[FourStateProtocol::kWeakB] = 5;
  EXPECT_EQ(output_agents(protocol, counts, 1), 5u);
  EXPECT_EQ(output_agents(protocol, counts, 0), 5u);
}

template <typename Engine>
class EngineTypedTest : public ::testing::Test {};

using EngineTypes =
    ::testing::Types<AgentEngine<FourStateProtocol>,
                     CountEngine<FourStateProtocol>,
                     SkipEngine<FourStateProtocol>>;
TYPED_TEST_SUITE(EngineTypedTest, EngineTypes);

TYPED_TEST(EngineTypedTest, InitialOutputsMatchConfiguration) {
  FourStateProtocol protocol;
  TypeParam engine(protocol, majority_instance(protocol, 20, 14));
  EXPECT_EQ(engine.num_agents(), 20u);
  EXPECT_EQ(engine.output_agents(1), 14u);
  EXPECT_EQ(engine.output_agents(0), 6u);
  EXPECT_FALSE(engine.all_same_output());
  EXPECT_EQ(engine.dominant_output(), 1);
  EXPECT_EQ(engine.steps(), 0u);
}

TYPED_TEST(EngineTypedTest, PopulationSizeIsConservedAlongRuns) {
  FourStateProtocol protocol;
  TypeParam engine(protocol, majority_instance(protocol, 30, 20));
  Xoshiro256ss rng(9);
  for (int i = 0; i < 500 && !engine.all_same_output(); ++i) {
    engine.step(rng);
    ASSERT_EQ(population_size(engine.counts()), 30u);
    ASSERT_EQ(engine.output_agents(0) + engine.output_agents(1), 30u);
  }
}

TYPED_TEST(EngineTypedTest, ConvergesToMajorityOnEasyInstance) {
  FourStateProtocol protocol;
  TypeParam engine(protocol, majority_instance(protocol, 50, 45));
  Xoshiro256ss rng(11);
  const RunResult result = run_to_convergence(engine, rng, 10'000'000);
  EXPECT_EQ(result.status, RunStatus::kConverged);
  EXPECT_EQ(result.decided, 1);
  EXPECT_GT(result.interactions, 0u);
  EXPECT_DOUBLE_EQ(result.parallel_time,
                   static_cast<double>(result.interactions) / 50.0);
}

TYPED_TEST(EngineTypedTest, StepLimitReported) {
  FourStateProtocol protocol;
  TypeParam engine(protocol, majority_instance(protocol, 50, 26));
  Xoshiro256ss rng(12);
  const RunResult result = run_to_convergence(engine, rng, 3);
  EXPECT_EQ(result.status, RunStatus::kStepLimit);
}

// The output tally is not in the snapshot: load_state must re-derive it
// from the restored configuration, not keep the fresh engine's.
TYPED_TEST(EngineTypedTest, LoadStateRecountsTheOutputTally) {
  FourStateProtocol protocol;
  const Counts initial = majority_instance(protocol, 40, 22);
  TypeParam engine(protocol, initial);
  Xoshiro256ss rng(14);
  for (int i = 0; i < 100'000 && engine.output_agents(1) == 22; ++i) {
    engine.step(rng);
  }
  ASSERT_NE(engine.output_agents(1), 22u);
  BinaryWriter out;
  engine.save_state(out);
  TypeParam restored(protocol, initial);
  BinaryReader in(out.bytes());
  restored.load_state(in);
  EXPECT_EQ(restored.output_agents(1), engine.output_agents(1));
  EXPECT_EQ(restored.output_agents(0), engine.output_agents(0));
  EXPECT_EQ(restored.all_same_output(), engine.all_same_output());
}

TEST(AgentEngineTest, ShufflePreservesCounts) {
  FourStateProtocol protocol;
  AgentEngine<FourStateProtocol> engine(protocol,
                                        majority_instance(protocol, 25, 10));
  Xoshiro256ss rng(13);
  engine.shuffle_placement(rng);
  const Counts counts = engine.counts();
  EXPECT_EQ(counts[FourStateProtocol::kStrongA], 10u);
  EXPECT_EQ(counts[FourStateProtocol::kStrongB], 15u);
}

TEST(AgentEngineTest, StateOfReturnsPerNodeState) {
  VoterProtocol protocol;
  Counts counts(2, 0);
  counts[VoterProtocol::kA] = 3;
  counts[VoterProtocol::kB] = 2;
  AgentEngine<VoterProtocol> engine(protocol, counts);
  int a_nodes = 0;
  for (NodeId v = 0; v < 5; ++v) {
    a_nodes += engine.state_of(v) == VoterProtocol::kA ? 1 : 0;
  }
  EXPECT_EQ(a_nodes, 3);
}

TEST(SkipEngineTest, ReactiveWeightReflectsConfiguration) {
  VoterProtocol protocol;  // (A,B) and (B,A) are the only reactive pairs
  Counts counts(2, 0);
  counts[VoterProtocol::kA] = 3;
  counts[VoterProtocol::kB] = 7;
  SkipEngine<VoterProtocol> engine(protocol, counts);
  EXPECT_EQ(engine.reactive_weight(), 2u * 3 * 7);
}

TEST(SkipEngineTest, DetectsAbsorbingConfiguration) {
  VoterProtocol protocol;
  Counts counts(2, 0);
  counts[VoterProtocol::kA] = 10;  // unanimous: nothing can react
  SkipEngine<VoterProtocol> engine(protocol, counts);
  EXPECT_EQ(engine.reactive_weight(), 0u);
  Xoshiro256ss rng(14);
  engine.step(rng);
  EXPECT_TRUE(engine.absorbing());
  EXPECT_EQ(engine.steps(), 0u);
}

TEST(SkipEngineTest, SkipsManyNullInteractionsInOneStep) {
  // One A among many B under the voter protocol: the reactive weight is tiny
  // so the first productive step should advance the interaction clock far.
  VoterProtocol protocol;
  Counts counts(2, 0);
  counts[VoterProtocol::kA] = 1;
  counts[VoterProtocol::kB] = 999;
  SkipEngine<VoterProtocol> engine(protocol, counts);
  Xoshiro256ss rng(15);
  engine.step(rng);
  EXPECT_GE(engine.steps(), 1u);
  // p = 2*999/(1000*999) ≈ 0.002; 500 expected. Seeing >10 is overwhelmingly
  // likely; equality with 1 would indicate the skip logic is broken.
  EXPECT_GT(engine.steps(), 10u);
}

TEST(SkipEngineTest, RejectsHugeStateSpaces) {
  // Construct a protocol whose state space exceeds the tabulation cap via a
  // large AVC instance is tested in core; here check the guard directly with
  // the cap constant.
  EXPECT_LE(SkipEngine<FourStateProtocol>::kMaxStates, 4096u);
}

TEST(RunToConvergenceTest, AlreadyConvergedReturnsImmediately) {
  VoterProtocol protocol;
  Counts counts(2, 0);
  counts[VoterProtocol::kA] = 8;
  CountEngine<VoterProtocol> engine(protocol, counts);
  Xoshiro256ss rng(16);
  const RunResult result = run_to_convergence(engine, rng);
  EXPECT_TRUE(result.converged());
  EXPECT_EQ(result.interactions, 0u);
  EXPECT_EQ(result.decided, 1);
}

}  // namespace
}  // namespace popbean

// Edge semantics of the null-skipping engine.
#include <gtest/gtest.h>

#include "population/count_engine.hpp"
#include "population/run.hpp"
#include "population/skip_engine.hpp"
#include "protocols/four_state.hpp"
#include "protocols/mobile.hpp"
#include "protocols/voter.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace popbean {
namespace {

TEST(SkipEngineEdgeTest, TwoAgentPopulation) {
  FourStateProtocol protocol;
  const Counts counts = majority_instance(protocol, 2, 1);  // A vs B
  SkipEngine<FourStateProtocol> engine(protocol, counts);
  Xoshiro256ss rng(1701);
  // Only reactive pair is (A, B): probability 1 per step, so the first
  // step fires immediately (geometric(1) adds no skips).
  engine.step(rng);
  EXPECT_EQ(engine.steps(), 1u);
  // Result: one weak a, one weak b — mixed outputs, and (a, b) is null, so
  // the configuration is absorbing.
  engine.step(rng);
  EXPECT_TRUE(engine.absorbing());
  EXPECT_FALSE(engine.all_same_output());
}

TEST(SkipEngineEdgeTest, FullyReactiveProtocolNeverSkips) {
  // Under the Mobile wrapper every cross-state pair reacts (swap); with
  // two distinct states present in equal measure, most steps are
  // productive and the skip engine must advance one interaction at a time
  // whenever the sampled run length is zero. Just validate the exactness
  // bookkeeping: steps() grows by at least 1 per call and counts stay
  // consistent.
  Mobile<VoterProtocol> protocol{VoterProtocol{}};
  Counts counts(2, 0);
  counts[VoterProtocol::kA] = 5;
  counts[VoterProtocol::kB] = 5;
  SkipEngine<Mobile<VoterProtocol>> engine(protocol, counts);
  Xoshiro256ss rng(1702);
  std::uint64_t last = 0;
  for (int i = 0; i < 200 && !engine.all_same_output(); ++i) {
    engine.step(rng);
    ASSERT_GT(engine.steps(), last);
    last = engine.steps();
    ASSERT_EQ(population_size(engine.counts()), 10u);
  }
}

TEST(SkipEngineEdgeTest, MobileWrapperStillExactUnderSkip) {
  // Swaps inflate the reactive weight but must not perturb the decision
  // distribution: mobile and plain voter agree on the clique.
  VoterProtocol plain;
  Mobile<VoterProtocol> mobile{plain};
  Counts counts(2, 0);
  counts[VoterProtocol::kA] = 14;
  counts[VoterProtocol::kB] = 6;
  int plain_a_wins = 0, mobile_a_wins = 0;
  constexpr int kReps = 1500;
  for (int rep = 0; rep < kReps; ++rep) {
    {
      SkipEngine<VoterProtocol> engine(plain, counts);
      Xoshiro256ss rng(1703, static_cast<std::uint64_t>(rep));
      const RunResult r = run_to_convergence(engine, rng, 1'000'000'000);
      plain_a_wins += r.converged() && r.decided == 1 ? 1 : 0;
    }
    {
      SkipEngine<Mobile<VoterProtocol>> engine(mobile, counts);
      Xoshiro256ss rng(1704, static_cast<std::uint64_t>(rep));
      const RunResult r = run_to_convergence(engine, rng, 1'000'000'000);
      mobile_a_wins += r.converged() && r.decided == 1 ? 1 : 0;
    }
  }
  // Both estimate P(A wins) = 0.7 (martingale); compare with pooled CI.
  const auto plain_interval =
      wilson_interval(static_cast<std::size_t>(plain_a_wins), kReps);
  const auto mobile_interval =
      wilson_interval(static_cast<std::size_t>(mobile_a_wins), kReps);
  EXPECT_LT(plain_interval.low, 0.7);
  EXPECT_GT(plain_interval.high, 0.7);
  EXPECT_LT(mobile_interval.low, 0.7);
  EXPECT_GT(mobile_interval.high, 0.7);
}

TEST(SkipEngineEdgeTest, StepBudgetOverrunIsBoundedByOneJump) {
  // A jump that would cross the budget stops at it: the interactions it
  // skips over are null, so the run ends exactly at the budget, as a
  // step-limit, with the configuration unchanged by the unmade step.
  FourStateProtocol protocol;
  const Counts counts = majority_instance(protocol, 1000, 501);
  SkipEngine<FourStateProtocol> engine(protocol, counts);
  Xoshiro256ss rng(1705);
  const RunResult result = run_to_convergence(engine, rng, /*max=*/100);
  EXPECT_EQ(result.status, RunStatus::kStepLimit);
  EXPECT_EQ(result.interactions, 100u);

  // One strong A and one weak B among weak As: the only productive pair
  // converts the last B, about n²/2 interactions away. A budget of 100 cuts
  // that jump, so the run must not come back converged.
  Counts last(4, 0);
  last[FourStateProtocol::kStrongA] = 1;
  last[FourStateProtocol::kWeakA] = 998;
  last[FourStateProtocol::kWeakB] = 1;
  SkipEngine<FourStateProtocol> tail(protocol, last);
  const RunResult cut = run_to_convergence(tail, rng, /*max=*/100);
  EXPECT_EQ(cut.status, RunStatus::kStepLimit);
  EXPECT_EQ(cut.interactions, 100u);
  EXPECT_EQ(tail.counts(), last);
}

}  // namespace
}  // namespace popbean

// Schedule models in isolation: the uniform pair law, Zipf skew, epidemic
// round structure, and the bounded adversary's redraw behavior — plus the
// liveness/safety separation when schedules drive a real perturbed run.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "faults/perturbed_engine.hpp"
#include "faults/schedule_model.hpp"
#include "population/run.hpp"
#include "protocols/four_state.hpp"

namespace popbean::faults {
namespace {

// Two-state voter: the responder adopts the initiator's opinion. Output is
// the state itself, so the adversary's output-gain bookkeeping is trivial to
// reason about: (1, 0) gains one agent toward output 1, (0, 1) loses one,
// same-state pairs are null.
struct TwoStateVoter {
  std::size_t num_states() const noexcept { return 2; }
  Transition apply(State a, State) const noexcept { return {a, a}; }
  Output output(State q) const noexcept { return static_cast<Output>(q); }
  State initial_state(Opinion opinion) const noexcept {
    return opinion == Opinion::A ? 1u : 0u;
  }
  std::string state_name(State q) const { return q == 1 ? "one" : "zero"; }
};
static_assert(ProtocolLike<TwoStateVoter>);

TEST(StateAtPrefixTest, WalksTheCountsInStateOrder) {
  const Counts active{2, 0, 3};
  EXPECT_EQ(state_at_prefix(active, 0), 0u);
  EXPECT_EQ(state_at_prefix(active, 1), 0u);
  EXPECT_EQ(state_at_prefix(active, 2), 2u);
  EXPECT_EQ(state_at_prefix(active, 4), 2u);
}

TEST(SampleUniformPairTest, ExcludesTheInitiatorAgent) {
  // One agent per state: the responder can never be the initiator, so a
  // same-state pair is impossible.
  const Counts active{1, 1};
  Xoshiro256ss rng(1);
  for (int i = 0; i < 500; ++i) {
    const auto [a, b] = sample_uniform_pair(active, 2, rng);
    EXPECT_NE(a, b);
  }
}

TEST(SampleUniformPairTest, SameStatePairsNeedTwoAgents) {
  const Counts active{2, 0};
  Xoshiro256ss rng(2);
  for (int i = 0; i < 100; ++i) {
    const auto [a, b] = sample_uniform_pair(active, 2, rng);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 0u);
  }
}

TEST(UniformScheduleTest, DeclaresDelegation) {
  EXPECT_TRUE(UniformSchedule::kDelegates);
  EXPECT_EQ(UniformSchedule::name(), "uniform");
}

TEST(ZipfScheduleTest, ExponentZeroMatchesUniformInitiatorLaw) {
  ZipfSchedule schedule(0.0);
  const TwoStateVoter protocol;
  const Counts active{3, 1};
  Xoshiro256ss rng(3);
  FaultCounters counters;
  int initiator_zero = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const auto [a, b] = schedule.select(protocol, active, 4, rng, counters);
    initiator_zero += a == 0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(initiator_zero) / kDraws, 0.75, 0.02);
  EXPECT_EQ(counters.schedule_delays, 0u);
}

TEST(ZipfScheduleTest, LargeExponentFavorsLowStates) {
  ZipfSchedule schedule(8.0);
  const TwoStateVoter protocol;
  const Counts active{1, 1};
  Xoshiro256ss rng(4);
  FaultCounters counters;
  int initiator_zero = 0;
  constexpr int kDraws = 2000;
  for (int i = 0; i < kDraws; ++i) {
    const auto [a, b] = schedule.select(protocol, active, 2, rng, counters);
    initiator_zero += a == 0 ? 1 : 0;
    // With one agent per state the responder is forced to the other state.
    EXPECT_NE(a, b);
  }
  // rate(0) = 1 vs rate(1) = 2^-8: state 0 initiates essentially always.
  EXPECT_GT(initiator_zero, kDraws * 95 / 100);
}

TEST(ZipfScheduleTest, NeverSelectsEmptyStates) {
  ZipfSchedule schedule(1.0);
  const TwoStateVoter protocol;
  const Counts active{2, 0};
  Xoshiro256ss rng(5);
  FaultCounters counters;
  for (int i = 0; i < 200; ++i) {
    const auto [a, b] = schedule.select(protocol, active, 2, rng, counters);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 0u);
  }
}

TEST(EpidemicRoundsTest, EachRoundUsesEveryAgentOnce) {
  EpidemicRounds schedule;
  const TwoStateVoter protocol;
  const Counts active{2, 2};  // static configuration: rounds are clean
  Xoshiro256ss rng(6);
  FaultCounters counters;
  for (std::uint64_t round = 1; round <= 50; ++round) {
    Counts used(2, 0);
    for (int pair = 0; pair < 2; ++pair) {
      const auto [a, b] = schedule.select(protocol, active, 4, rng, counters);
      ++used[a];
      ++used[b];
    }
    // Two interactions drain the four round slots exactly.
    EXPECT_EQ(used[0], 2u) << "round " << round;
    EXPECT_EQ(used[1], 2u) << "round " << round;
    EXPECT_EQ(schedule.rounds_started(), round);
  }
}

TEST(BoundedAdversaryTest, RedrawsPairsThatHelpTheDelayedOutput) {
  BoundedAdversary schedule(/*delayed_output=*/1, /*budget=*/12);
  const TwoStateVoter protocol;
  // One agent per state: the only pairs are (1, 0) — a gain for output 1,
  // always redrawn — and (0, 1), which the adversary accepts.
  const Counts active{1, 1};
  Xoshiro256ss rng(7);
  FaultCounters counters;
  int returned_gaining = 0;
  constexpr int kDraws = 300;
  for (int i = 0; i < kDraws; ++i) {
    const auto [a, b] = schedule.select(protocol, active, 2, rng, counters);
    returned_gaining += (a == 1) ? 1 : 0;
  }
  // A gaining pair survives only if 12 redraws in a row all land on it:
  // probability 2^-13 per draw, so effectively never in 300 draws.
  EXPECT_EQ(returned_gaining, 0);
  EXPECT_GT(counters.schedule_delays, 0u);
}

TEST(BoundedAdversaryTest, ZeroBudgetNeverRedraws) {
  BoundedAdversary schedule(/*delayed_output=*/1, /*budget=*/0);
  const TwoStateVoter protocol;
  const Counts active{1, 1};
  Xoshiro256ss rng(8);
  FaultCounters counters;
  int returned_gaining = 0;
  constexpr int kDraws = 2000;
  for (int i = 0; i < kDraws; ++i) {
    const auto [a, b] = schedule.select(protocol, active, 2, rng, counters);
    returned_gaining += (a == 1) ? 1 : 0;
  }
  EXPECT_EQ(counters.schedule_delays, 0u);
  // Without a budget the law is uniform: both pairs near 50/50.
  EXPECT_NEAR(static_cast<double>(returned_gaining) / kDraws, 0.5, 0.05);
}

// Safety/liveness separation end-to-end: an adversarial schedule may stall
// an exact protocol indefinitely, but the population it produces can never
// unanimously output the wrong answer — the schedule only reorders
// interactions, it does not edit states.
TEST(ScheduleLivenessTest, AdversaryDelaysButNeverDecidesWrong) {
  const FourStateProtocol protocol;
  const Counts counts{7, 3, 0, 0};  // majority A, correct output 1
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Xoshiro256ss root(seed);
    auto engine =
        make_perturbed(protocol, counts,
                       NoFaults{}, BoundedAdversary(1, 64), root);
    const RunResult result = run_to_convergence(engine, root, 200000);
    if (result.status == RunStatus::kConverged) {
      EXPECT_EQ(result.decided, 1) << "seed " << seed;
    }
  }
}

TEST(ScheduleLivenessTest, ZipfStillConvergesCorrectly) {
  const FourStateProtocol protocol;
  const Counts counts{8, 2, 0, 0};
  Xoshiro256ss root(9);
  auto engine = make_perturbed(protocol, counts,
                               NoFaults{}, ZipfSchedule(1.0), root);
  const RunResult result = run_to_convergence(engine, root, 1u << 20);
  ASSERT_EQ(result.status, RunStatus::kConverged);
  EXPECT_EQ(result.decided, 1);
}

}  // namespace
}  // namespace popbean::faults

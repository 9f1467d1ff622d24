// InvariantMonitor semantics: incremental Φ tracking, violation detection at
// interaction boundaries only, and agreement with the batch-computed value
// when driven by a real perturbed run.
#include <cstdint>

#include <gtest/gtest.h>

#include "core/avc.hpp"
#include "faults/fault_model.hpp"
#include "faults/invariant_monitor.hpp"
#include "faults/perturbed_engine.hpp"
#include "population/run.hpp"
#include "protocols/four_state.hpp"
#include "verify/builtin_invariants.hpp"

namespace popbean::faults {
namespace {

TEST(InvariantMonitorTest, StartsAtTheInitialValue) {
  const avc::AvcProtocol protocol(3, 1);
  Counts counts(protocol.num_states(), 0);
  counts[protocol.initial_state(Opinion::A)] = 7;
  counts[protocol.initial_state(Opinion::B)] = 3;
  const InvariantMonitor monitor(verify::avc_sum_invariant(protocol), counts);
  EXPECT_EQ(monitor.initial_value(),
            monitor.invariant().value(counts));
  EXPECT_EQ(monitor.drift(), 0);
  EXPECT_FALSE(monitor.violated());
  EXPECT_FALSE(monitor.first_violation_step().has_value());
}

TEST(InvariantMonitorTest, BalancedMovePairPassesTheBoundaryCheck) {
  const avc::AvcProtocol protocol(3, 1);
  Counts counts(protocol.num_states(), 0);
  const State plus = protocol.initial_state(Opinion::A);
  const State minus = protocol.initial_state(Opinion::B);
  counts[plus] = 5;
  counts[minus] = 5;
  InvariantMonitor monitor(verify::avc_sum_invariant(protocol), counts);
  // Swap two agents' states: Φ is transiently off after the first move but
  // restored before the interaction boundary.
  monitor.apply_move(plus, minus);
  EXPECT_NE(monitor.drift(), 0);
  monitor.apply_move(minus, plus);
  EXPECT_EQ(monitor.drift(), 0);
  monitor.check(1);
  EXPECT_FALSE(monitor.violated());
}

TEST(InvariantMonitorTest, RecordsTheFirstViolationStepOnce) {
  const Counts counts{4, 4, 0, 0};
  InvariantMonitor monitor(verify::four_state_difference_invariant(), counts);
  // An unmatched strong flip: A → B moves the difference by −2.
  monitor.apply_move(FourStateProtocol::kStrongA, FourStateProtocol::kStrongB);
  monitor.check(17);
  ASSERT_TRUE(monitor.violated());
  EXPECT_EQ(monitor.first_violation_step().value(), 17u);
  EXPECT_EQ(monitor.drift(), -2);
  // Later violations (or even a return to the initial value) never move the
  // recorded first-violation step.
  monitor.apply_move(FourStateProtocol::kStrongB, FourStateProtocol::kStrongA);
  monitor.check(23);
  EXPECT_EQ(monitor.first_violation_step().value(), 17u);
}

TEST(InvariantMonitorTest, WeightZeroMovesAreInvisible) {
  const Counts counts{2, 2, 3, 3};
  InvariantMonitor monitor(verify::four_state_difference_invariant(), counts);
  monitor.apply_move(FourStateProtocol::kWeakA, FourStateProtocol::kWeakB);
  monitor.check(1);
  EXPECT_FALSE(monitor.violated());
}

// --- attached to a perturbed run --------------------------------------------

TEST(InvariantMonitorEngineTest, FaultFreeRunNeverViolates) {
  const avc::AvcProtocol protocol(3, 1);
  Counts counts(protocol.num_states(), 0);
  counts[protocol.initial_state(Opinion::A)] = 30;
  counts[protocol.initial_state(Opinion::B)] = 20;
  Xoshiro256ss root(21);
  // Zipf forces the manual stepping path, so the monitor sees every move —
  // and a skewed schedule alone must conserve Invariant 4.3.
  auto engine = make_perturbed(protocol, counts,
                               NoFaults{}, ZipfSchedule(1.0), root);
  InvariantMonitor monitor(verify::avc_sum_invariant(protocol), counts);
  engine.attach_monitor(&monitor);
  (void)run_to_convergence(engine, root, 1u << 20);
  EXPECT_FALSE(monitor.violated());
  EXPECT_EQ(monitor.drift(), 0);
}

TEST(InvariantMonitorEngineTest, CrashesAloneNeverViolate) {
  const FourStateProtocol protocol;
  const Counts counts{12, 8, 0, 0};
  Xoshiro256ss root(22);
  auto engine = make_perturbed(protocol, counts,
                               CrashRecovery(0.05, 0.2), UniformSchedule{},
                               root);
  InvariantMonitor monitor(verify::four_state_difference_invariant(), counts);
  engine.attach_monitor(&monitor);
  (void)run_to_convergence(engine, root, 1u << 18);
  // Crashes remove agents from the pool without editing states; the weighted
  // sum over the full population (frozen agents included) is untouched.
  EXPECT_FALSE(monitor.violated());
}

TEST(InvariantMonitorEngineTest, SignFlipsViolateAndTimeIsRecorded) {
  const avc::AvcProtocol protocol(3, 1);
  Counts counts(protocol.num_states(), 0);
  counts[protocol.initial_state(Opinion::A)] = 60;
  counts[protocol.initial_state(Opinion::B)] = 40;
  Xoshiro256ss root(23);
  auto engine = make_perturbed(protocol, counts,
                               avc_sign_flip(protocol, 0.05), UniformSchedule{},
                               root);
  InvariantMonitor monitor(verify::avc_sum_invariant(protocol), counts);
  engine.attach_monitor(&monitor);
  (void)run_to_convergence(engine, root, 1u << 16);
  ASSERT_GT(engine.fault_counters().sign_flips, 0u);
  ASSERT_TRUE(monitor.violated());
  EXPECT_LE(monitor.first_violation_step().value(), engine.steps());
  // The incremental value always matches the batch recomputation.
  EXPECT_EQ(monitor.current_value(),
            monitor.invariant().value(engine.counts()));
}

TEST(InvariantMonitorEngineTest, StubbornAgentsBreakPairwiseConservation) {
  const FourStateProtocol protocol;
  const Counts counts{10, 10, 0, 0};
  Xoshiro256ss root(24);
  auto engine = make_perturbed(protocol, counts,
                               StuckAt(0.5), UniformSchedule{}, root);
  InvariantMonitor monitor(verify::four_state_difference_invariant(), counts);
  engine.attach_monitor(&monitor);
  for (int i = 0; i < 5000 && !monitor.violated(); ++i) engine.step(root);
  // A stuck strong agent that meets the opposite strong state withholds its
  // own demotion: the difference invariant moves by ±1.
  EXPECT_TRUE(monitor.violated());
  EXPECT_EQ(monitor.current_value(),
            monitor.invariant().value(engine.counts()));
}

}  // namespace
}  // namespace popbean::faults

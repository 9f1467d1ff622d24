// The exact chain is the oracle the simulators are judged against.
#include "analysis/exact_markov.hpp"

#include <gtest/gtest.h>

#include "core/avc.hpp"
#include "harness/experiment.hpp"
#include "population/configuration.hpp"
#include "protocols/four_state.hpp"
#include "protocols/three_state.hpp"
#include "protocols/voter.hpp"
#include "util/stats.hpp"
#include "zoo/registry.hpp"

namespace popbean {
namespace {

TEST(ExactChainTest, EnumeratesCompositionCount) {
  VoterProtocol voter;
  // Compositions of 10 into 2 parts: 11 configurations.
  ExactChain chain(voter, 10);
  EXPECT_EQ(chain.num_configs(), 11u);
  FourStateProtocol four;
  // C(5+3, 3) = 56 for n = 5, s = 4.
  ExactChain chain4(four, 5);
  EXPECT_EQ(chain4.num_configs(), 56u);
}

TEST(ExactChainTest, RefusesOversizedSpaces) {
  avc::AvcProtocol big(99, 1);
  EXPECT_THROW(ExactChain(big, 50, /*max_configs=*/1000), std::logic_error);
}

TEST(ExactChainTest, VoterAbsorptionIsTheInitialFraction) {
  // Martingale ground truth [HP99]: P(all-A) = initial A fraction, exactly.
  VoterProtocol voter;
  ExactChain chain(voter, 12);
  for (std::uint64_t a : {1u, 3u, 6u, 9u, 11u}) {
    const Counts initial = majority_instance(voter, 12, a);
    EXPECT_NEAR(chain.absorption_probability(initial, 1),
                static_cast<double>(a) / 12.0, 1e-9)
        << "a=" << a;
    EXPECT_NEAR(chain.absorption_probability(initial, 0),
                1.0 - static_cast<double>(a) / 12.0, 1e-9);
  }
}

TEST(ExactChainTest, ExactProtocolsAbsorbWithProbabilityOne) {
  FourStateProtocol four;
  ExactChain chain(four, 9);
  for (std::uint64_t a : {5u, 6u, 8u}) {
    const Counts initial = majority_instance(four, 9, a);
    EXPECT_NEAR(chain.absorption_probability(initial, 1), 1.0, 1e-9);
    EXPECT_NEAR(chain.absorption_probability(initial, 0), 0.0, 1e-9);
  }
  avc::AvcProtocol avc_protocol(3, 1);
  ExactChain avc_chain(avc_protocol, 7);
  const Counts initial = majority_instance(avc_protocol, 7, 3);  // B majority
  EXPECT_NEAR(avc_chain.absorption_probability(initial, 0), 1.0, 1e-9);
}

TEST(ExactChainTest, UnanimousStartHasZeroExpectedTime) {
  VoterProtocol voter;
  ExactChain chain(voter, 8);
  const Counts initial = majority_instance(voter, 8, 8);
  EXPECT_EQ(chain.expected_interactions_to_unanimity(initial), 0.0);
}

TEST(ExactChainTest, VoterExpectedTimeMatchesClosedFormAtNTwo) {
  // n = 2, one A one B: each interaction decides (responder adopts), so
  // exactly one interaction is needed.
  VoterProtocol voter;
  ExactChain chain(voter, 2);
  const Counts initial = majority_instance(voter, 2, 1);
  EXPECT_NEAR(chain.expected_interactions_to_unanimity(initial), 1.0, 1e-9);
}

TEST(ExactChainTest, ThreeStateErrorMatchesSimulation) {
  ThreeStateProtocol protocol;
  constexpr std::uint64_t kN = 15;
  ExactChain chain(protocol, kN);
  const Counts initial = majority_instance(protocol, kN, 9);
  const double exact_error = chain.absorption_probability(initial, 0);
  EXPECT_GT(exact_error, 0.0);
  EXPECT_LT(exact_error, 0.5);

  ThreadPool pool(2);
  const MajorityInstance instance{kN, 3, Opinion::A};
  const ReplicationSummary summary =
      run_replicates(pool, protocol, instance, EngineKind::kSkip,
                     /*replicates=*/3000, /*seed=*/801, 1'000'000'000ULL);
  const auto interval = wilson_interval(summary.wrong, summary.replicates);
  EXPECT_GT(exact_error, interval.low);
  EXPECT_LT(exact_error, interval.high);
}

TEST(ExactChainTest, TransientDistributionIsStochastic) {
  FourStateProtocol protocol;
  ExactChain chain(protocol, 8);
  const Counts initial = majority_instance(protocol, 8, 5);
  for (std::uint64_t steps : {0u, 1u, 5u, 40u}) {
    const std::vector<double> dist =
        chain.transient_distribution(initial, steps);
    double total = 0;
    for (double p : dist) {
      EXPECT_GE(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-12) << "steps=" << steps;
  }
  // Zero steps: all mass on the initial configuration.
  const auto at_zero = chain.transient_distribution(initial, 0);
  EXPECT_DOUBLE_EQ(at_zero[chain.index_of(initial)], 1.0);
}

TEST(ExactChainTest, TransientDistributionOneStepByHand) {
  // n = 2, one A one B under the four-state protocol: the only ordered
  // pairs are (A,B) and (B,A), both annihilating, so after one step all
  // mass sits on {a, b}.
  FourStateProtocol protocol;
  ExactChain chain(protocol, 2);
  const Counts initial = majority_instance(protocol, 2, 1);
  const auto dist = chain.transient_distribution(initial, 1);
  Counts weak(4, 0);
  weak[FourStateProtocol::kWeakA] = 1;
  weak[FourStateProtocol::kWeakB] = 1;
  EXPECT_NEAR(dist[chain.index_of(weak)], 1.0, 1e-12);
}

// Strongest engine oracle in the suite: empirical configuration frequencies
// at a fixed horizon must match the exactly-computed distribution, for
// every engine, by a chi-square test over the likely configurations.
template <template <typename> class Engine, typename P>
std::vector<std::uint64_t> empirical_config_counts(
    const P& protocol, const ExactChain& chain, const Counts& initial,
    std::uint64_t horizon, int replicates, std::uint64_t seed) {
  std::vector<std::uint64_t> counts(chain.num_configs(), 0);
  for (int rep = 0; rep < replicates; ++rep) {
    Engine<P> engine(protocol, initial);
    Xoshiro256ss rng(seed, static_cast<std::uint64_t>(rep));
    Counts at_horizon = engine.counts();
    while (engine.steps() < horizon) {
      const Counts before = engine.counts();
      const std::uint64_t steps_before = engine.steps();
      engine.step(rng);
      if (engine.steps() == steps_before) {  // absorbing (skip engine)
        at_horizon = before;
        break;
      }
      at_horizon = engine.steps() <= horizon ? engine.counts() : before;
    }
    ++counts[chain.index_of(at_horizon)];
  }
  return counts;
}

TEST(ExactChainTest, TransientDistributionMatchesEveryEngine) {
  ThreeStateProtocol protocol;
  constexpr std::uint64_t kN = 10;
  constexpr std::uint64_t kHorizon = 25;
  constexpr int kReps = 4000;
  ExactChain chain(protocol, kN);
  const Counts initial = majority_instance(protocol, kN, 6);
  const std::vector<double> exact =
      chain.transient_distribution(initial, kHorizon);

  const auto agent = empirical_config_counts<AgentEngine>(
      protocol, chain, initial, kHorizon, kReps, 811);
  const auto count = empirical_config_counts<CountEngine>(
      protocol, chain, initial, kHorizon, kReps, 812);
  const auto skip = empirical_config_counts<SkipEngine>(
      protocol, chain, initial, kHorizon, kReps, 813);

  // Chi-square over configurations with expected count >= 8; pool the rest.
  auto check = [&](const std::vector<std::uint64_t>& observed,
                   const std::string& label) {
    std::vector<std::uint64_t> obs_bins;
    std::vector<double> exp_bins;
    std::uint64_t obs_tail = 0;
    double exp_tail = 0.0;
    for (std::size_t i = 0; i < exact.size(); ++i) {
      const double expected = exact[i] * kReps;
      if (expected >= 8.0) {
        obs_bins.push_back(observed[i]);
        exp_bins.push_back(expected);
      } else {
        obs_tail += observed[i];
        exp_tail += expected;
      }
    }
    if (exp_tail > 0.0) {
      obs_bins.push_back(obs_tail);
      exp_bins.push_back(exp_tail);
    }
    ASSERT_GE(obs_bins.size(), 3u) << label;
    EXPECT_GT(chi_square_p_value(obs_bins, exp_bins), 1e-4) << label;
  };
  check(agent, "agent");
  check(count, "count");
  check(skip, "skip");
}

// Mean interactions to convergence over fixed-seed replicates, and how many
// of them converged on output 1 (opinion A).
struct SimulatedRuns {
  double mean = 0.0;
  int decided_a = 0;
};

template <template <typename> class Engine, typename P>
SimulatedRuns simulate_runs(const P& protocol, const Counts& initial,
                            int replicates, std::uint64_t seed) {
  OnlineStats stats;
  SimulatedRuns runs;
  for (int rep = 0; rep < replicates; ++rep) {
    Engine<P> engine(protocol, initial);
    Xoshiro256ss rng(seed, static_cast<std::uint64_t>(rep));
    const RunResult result = run_to_convergence(engine, rng, 1'000'000'000);
    stats.add(static_cast<double>(result.interactions));
    if (result.converged() && result.decided == 1) ++runs.decided_a;
  }
  runs.mean = stats.mean();
  return runs;
}

TEST(ExactChainTest, FourStateExpectedTimeMatchesEveryEngine) {
  FourStateProtocol protocol;
  constexpr std::uint64_t kN = 12;
  ExactChain chain(protocol, kN);
  const Counts initial = majority_instance(protocol, kN, 8);
  const double exact = chain.expected_interactions_to_unanimity(initial);
  constexpr int kReps = 4000;
  // Monte Carlo error ~ sd/sqrt(reps); allow 5%.
  const double tolerance = exact * 0.05;
  EXPECT_NEAR(
      simulate_runs<AgentEngine>(protocol, initial, kReps, 802).mean,
      exact, tolerance);
  EXPECT_NEAR(
      simulate_runs<CountEngine>(protocol, initial, kReps, 803).mean,
      exact, tolerance);
  EXPECT_NEAR(
      simulate_runs<SkipEngine>(protocol, initial, kReps, 804).mean,
      exact, tolerance);
}

TEST(ExactChainTest, AvcExpectedTimeMatchesSimulation) {
  avc::AvcProtocol protocol(3, 1);  // s = 6
  constexpr std::uint64_t kN = 8;
  ExactChain chain(protocol, kN);
  const Counts initial = majority_instance_with_margin(protocol, kN, 2);
  const double exact = chain.expected_interactions_to_unanimity(initial);
  const double simulated =
      simulate_runs<SkipEngine>(protocol, initial, 4000, 805).mean;
  EXPECT_NEAR(simulated, exact, exact * 0.05);
}

// The zoo members compute δ in code, and every engine calls it for the
// pair it draws. On the verification-gate runtimes the exact chain is small
// enough to solve: each engine's mean time must match it, and every run
// must decide the majority, since the chain absorbs there with probability 1.
TEST(ExactChainTest, ZooGateRuntimesMatchEveryEngine) {
  constexpr int kReps = 4000;
  auto check = [&](std::string_view spec, std::uint64_t n,
                   std::uint64_t seed) {
    zoo::with_zoo_runtime_gate(spec, [&](const auto& runtime) {
      ExactChain chain(runtime, n);
      const Counts initial = majority_instance_with_margin(runtime, n, 2);
      EXPECT_NEAR(chain.absorption_probability(initial, 1), 1.0, 1e-9)
          << spec;
      const double exact = chain.expected_interactions_to_unanimity(initial);
      const double tolerance = exact * 0.05;
      const SimulatedRuns agent =
          simulate_runs<AgentEngine>(runtime, initial, kReps, seed);
      const SimulatedRuns count =
          simulate_runs<CountEngine>(runtime, initial, kReps, seed + 1);
      const SimulatedRuns skip =
          simulate_runs<SkipEngine>(runtime, initial, kReps, seed + 2);
      EXPECT_NEAR(agent.mean, exact, tolerance) << spec << " agent";
      EXPECT_NEAR(count.mean, exact, tolerance) << spec << " count";
      EXPECT_NEAR(skip.mean, exact, tolerance) << spec << " skip";
      EXPECT_EQ(agent.decided_a, kReps) << spec << " agent";
      EXPECT_EQ(count.decided_a, kReps) << spec << " count";
      EXPECT_EQ(skip.decided_a, kReps) << spec << " skip";
      return 0;
    });
  };
  check("zoo:doubling", 10, 821);   // s = 8, 19448 configs, E[T] ≈ 43.2
  check("zoo:berenbrink", 6, 831);  // s = 16, 54264 configs, E[T] ≈ 15.0
}

TEST(ExactChainTest, AvcSmallerMarginTakesLongerExactly) {
  // Monotonicity visible only through exact values (simulation noise would
  // need many runs): expected time at margin 2 exceeds margin 6 exceeds
  // margin 8 (unanimous-ish start).
  avc::AvcProtocol protocol(3, 1);
  ExactChain chain(protocol, 8);
  const double t2 = chain.expected_interactions_to_unanimity(
      majority_instance_with_margin(protocol, 8, 2));
  const double t6 = chain.expected_interactions_to_unanimity(
      majority_instance_with_margin(protocol, 8, 6));
  const double t8 = chain.expected_interactions_to_unanimity(
      majority_instance_with_margin(protocol, 8, 8));
  EXPECT_GT(t2, t6);
  EXPECT_GT(t6, t8);
}

}  // namespace
}  // namespace popbean

// The zero-rate identity, in its two halves.
//
// The fault sweep's rate-0 column is the unperturbed control: a cell whose
// fault rates are all zero under the uniform schedule runs the plain count
// engine on its own stream, so its outcome is bit-for-bit that engine's
// (CountEngineIsBitExact, FullRunsDecideIdentically), and a cell with any
// active model or a skewed schedule runs through the adapter
// (ActiveModelDisablesPassthrough).
//
// The adapter itself steps at the counts level. At zero rates its uniform
// schedule must still be the engines' selection law: one step at a time
// (ManualUniformMatchesPairLaw), and over whole runs, whose mean length
// must match the exact Markov chain's expected time to unanimity
// (AgentEngineIsBitExact on AVC, SkipEngineIsBitExact on four-state).
#include <cstdint>
#include <optional>

#include <gtest/gtest.h>

#include "analysis/exact_markov.hpp"
#include "core/avc.hpp"
#include "faults/perturbed_engine.hpp"
#include "harness/fault_sweep.hpp"
#include "population/count_engine.hpp"
#include "population/run.hpp"
#include "protocols/four_state.hpp"
#include "verify/builtin_invariants.hpp"

namespace popbean::faults {
namespace {

constexpr std::uint64_t kSeed = 20150721;

Counts avc_counts(const avc::AvcProtocol& protocol, std::uint64_t a,
                  std::uint64_t b) {
  Counts counts(protocol.num_states(), 0);
  counts[protocol.initial_state(Opinion::A)] = a;
  counts[protocol.initial_state(Opinion::B)] = b;
  return counts;
}

// All-zero-rate composite: every model constructed, none active.
auto zero_rate_faults() {
  return ComposedFaults(CrashRecovery(0.0, 0.0), TransientCorruption(0.0),
                        StuckAt(0.0), four_state_sign_flip(0.0));
}

FaultSweepConfig sweep_config(std::uint64_t n) {
  FaultSweepConfig config;
  config.n = n;
  config.replicates = 4;
  config.seed = kSeed;
  config.max_interactions = 1'000'000;
  return config;
}

// Sweep cell (point, replicate) of an AVC sweep over `initial`.
template <typename MakeFaults, typename MakeSchedule>
FaultCellOutcome avc_cell(const avc::AvcProtocol& protocol,
                          const Counts& initial, const FaultSweepConfig& config,
                          std::size_t point, std::size_t replicate,
                          MakeFaults make_faults, MakeSchedule make_schedule) {
  const std::optional<FaultCellOutcome> out = detail::run_fault_cell(
      protocol, verify::avc_sum_invariant(protocol), initial, config,
      /*rate=*/0.0, point, replicate, make_faults, make_schedule,
      [] { return false; }, 1024);
  EXPECT_TRUE(out.has_value());
  return out.value_or(FaultCellOutcome{});
}

// The plain count engine on the stream sweep cell (point, replicate) uses.
RunResult plain_count_run(const avc::AvcProtocol& protocol,
                          const Counts& initial, const FaultSweepConfig& config,
                          std::size_t point, std::size_t replicate) {
  CountEngine<avc::AvcProtocol> engine(protocol, initial);
  Xoshiro256ss rng(config.seed, point * config.replicates + replicate);
  return run_to_convergence(engine, rng, config.max_interactions);
}

void expect_same_run(const FaultCellOutcome& cell, const RunResult& plain) {
  EXPECT_EQ(cell.result.status, plain.status);
  EXPECT_EQ(cell.result.decided, plain.decided);
  EXPECT_EQ(cell.result.interactions, plain.interactions);
  EXPECT_EQ(cell.counters.total_faults(), 0u);
  EXPECT_EQ(cell.counters.injected_interactions, 0u);
  EXPECT_FALSE(cell.violated);
}

TEST(ZeroRateIdentityTest, CountEngineIsBitExact) {
  const avc::AvcProtocol protocol(3, 1);
  const Counts counts = avc_counts(protocol, 35, 25);
  const FaultSweepConfig config = sweep_config(60);
  for (std::size_t point = 0; point < 3; ++point) {
    for (std::size_t replicate = 0; replicate < config.replicates;
         ++replicate) {
      expect_same_run(
          avc_cell(protocol, counts, config, point, replicate,
                   [](double) { return zero_rate_faults(); },
                   [] { return UniformSchedule{}; }),
          plain_count_run(protocol, counts, config, point, replicate));
    }
  }
}

TEST(ZeroRateIdentityTest, FullRunsDecideIdentically) {
  const avc::AvcProtocol protocol(3, 2);
  const Counts counts = avc_counts(protocol, 52, 48);
  const FaultSweepConfig config = sweep_config(100);
  for (std::size_t replicate = 0; replicate < config.replicates; ++replicate) {
    const FaultCellOutcome cell =
        avc_cell(protocol, counts, config, 1, replicate,
                 [](double) { return NoFaults{}; },
                 [] { return UniformSchedule{}; });
    const RunResult plain = plain_count_run(protocol, counts, config, 1,
                                            replicate);
    EXPECT_EQ(cell.result.status, RunStatus::kConverged);
    expect_same_run(cell, plain);
  }
}

TEST(ZeroRateIdentityTest, ActiveModelDisablesPassthrough) {
  const avc::AvcProtocol protocol(3, 1);
  const Counts counts = avc_counts(protocol, 6, 4);
  const FaultSweepConfig config = sweep_config(10);
  // An active fault model runs the cell through the adapter...
  const FaultCellOutcome corrupt =
      avc_cell(protocol, counts, config, 0, 0,
               [](double) { return TransientCorruption(0.5); },
               [] { return UniformSchedule{}; });
  EXPECT_GT(corrupt.result.interactions, 0u);
  EXPECT_EQ(corrupt.counters.injected_interactions,
            corrupt.result.interactions);
  // ...and so does a non-delegating schedule, faults or not.
  const FaultCellOutcome zipf =
      avc_cell(protocol, counts, config, 0, 0,
               [](double) { return NoFaults{}; },
               [] { return ZipfSchedule(1.0); });
  EXPECT_GT(zipf.result.interactions, 0u);
  EXPECT_EQ(zipf.counters.injected_interactions, zipf.result.interactions);
}

// Mean interactions to unanimity of `runs` zero-rate adapter runs, replicate
// r on stream (seed, r).
template <ProtocolLike P>
double mean_zero_rate_interactions(const P& protocol, const Counts& initial,
                                   int runs, std::uint64_t seed) {
  double total = 0.0;
  for (int r = 0; r < runs; ++r) {
    Xoshiro256ss rng(seed, static_cast<std::uint64_t>(r));
    auto engine = make_perturbed(protocol, initial, zero_rate_faults(),
                                 UniformSchedule{}, rng);
    const RunResult run = run_to_convergence(engine, rng);
    EXPECT_EQ(run.status, RunStatus::kConverged);
    total += static_cast<double>(run.interactions);
  }
  return total / runs;
}

// Monte Carlo error ~ sd/sqrt(runs); 4000 runs sit well inside 5%.
constexpr int kExactRuns = 4000;

TEST(ZeroRateIdentityTest, AgentEngineIsBitExact) {
  const avc::AvcProtocol protocol(3, 1);  // s = 6
  constexpr std::uint64_t kN = 8;
  const Counts initial = majority_instance_with_margin(protocol, kN, 2);
  const double exact =
      ExactChain(protocol, kN).expected_interactions_to_unanimity(initial);
  EXPECT_NEAR(mean_zero_rate_interactions(protocol, initial, kExactRuns, 806),
              exact, exact * 0.05);
}

TEST(ZeroRateIdentityTest, SkipEngineIsBitExact) {
  const FourStateProtocol protocol;
  constexpr std::uint64_t kN = 12;
  const Counts initial = majority_instance(protocol, kN, 8);
  const double exact =
      ExactChain(protocol, kN).expected_interactions_to_unanimity(initial);
  EXPECT_NEAR(mean_zero_rate_interactions(protocol, initial, kExactRuns, 807),
              exact, exact * 0.05);
}

// The uniform schedule drawn through the adapter's manual path must still
// match the engines' selection law in distribution — checked here at the
// one-step level against exhaustive pair probabilities.
TEST(ZeroRateIdentityTest, ManualUniformMatchesPairLaw) {
  const Counts active{3, 2};
  const std::uint64_t total = 5;
  Xoshiro256ss rng(7);
  std::uint64_t seen[2][2] = {{0, 0}, {0, 0}};
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) {
    const auto [a, b] = sample_uniform_pair(active, total, rng);
    ++seen[a][b];
  }
  // Ordered-pair probabilities: P(a, b) = c_a (c_b - [a = b]) / (n (n - 1)).
  const double denom = static_cast<double>(total * (total - 1));
  auto expect_near = [&](State a, State b, double pairs) {
    EXPECT_NEAR(static_cast<double>(seen[a][b]) / kDraws, pairs / denom, 0.01)
        << "(" << a << ", " << b << ")";
  };
  expect_near(0, 0, 3.0 * 2.0);
  expect_near(0, 1, 3.0 * 2.0);
  expect_near(1, 0, 2.0 * 3.0);
  expect_near(1, 1, 2.0 * 1.0);
}

}  // namespace
}  // namespace popbean::faults

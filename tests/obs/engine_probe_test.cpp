// EngineProbe + classify: the probe's interaction clock matches each
// engine's own, the kind tallies partition it, AVC's classifier agrees
// with the transition function, PerturbedEngine records each pair it
// schedules, and a fault sweep's rate-0 control probes its plain engine.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/avc.hpp"
#include "faults/fault_model.hpp"
#include "faults/perturbed_engine.hpp"
#include "faults/schedule_model.hpp"
#include "harness/fault_sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/probe.hpp"
#include "population/agent_engine.hpp"
#include "population/configuration.hpp"
#include "population/count_engine.hpp"
#include "population/run.hpp"
#include "population/skip_engine.hpp"
#include "protocols/four_state.hpp"
#include "util/rng.hpp"
#include "verify/builtin_invariants.hpp"

namespace popbean::obs {
namespace {

constexpr std::uint64_t kSeed = 20150721;

#if POPBEAN_OBS_ENABLED

std::uint64_t kinds_total(const EngineProbe& probe) {
  std::uint64_t total = 0;
  for (const std::uint64_t k : probe.kinds) total += k;
  return total;
}

// Runs `steps` engine steps with a probe attached and checks the probe's
// bookkeeping invariants against the engine's own interaction clock.
template <typename Engine>
void expect_probe_matches(Engine& engine, std::uint64_t steps) {
  EngineProbe probe;
  engine.attach_probe(&probe);
  Xoshiro256ss rng(kSeed);
  for (std::uint64_t i = 0; i < steps; ++i) engine.step(rng);
  EXPECT_EQ(probe.interactions, engine.steps());
  EXPECT_EQ(kinds_total(probe), probe.interactions);
  EXPECT_EQ(probe.productive,
            probe.interactions -
                probe.kinds[static_cast<std::size_t>(ReactionKind::kNull)]);
  EXPECT_GT(probe.productive, 0u);
}

TEST(EngineProbeTest, AgentEngineCountsEveryInteraction) {
  const avc::AvcProtocol protocol(7, 1);
  AgentEngine<avc::AvcProtocol> engine(
      protocol, majority_instance_with_margin(protocol, 200, 20));
  expect_probe_matches(engine, 5000);
}

TEST(EngineProbeTest, CountEngineCountsEveryInteraction) {
  const avc::AvcProtocol protocol(7, 1);
  CountEngine<avc::AvcProtocol> engine(
      protocol, majority_instance_with_margin(protocol, 200, 20));
  expect_probe_matches(engine, 5000);
}

TEST(EngineProbeTest, SkipEngineAccountsForSkippedNulls) {
  // The skip engine advances the interaction clock by the skipped-null run
  // length plus the productive reaction; the probe must see both.
  const avc::AvcProtocol protocol(7, 1);
  SkipEngine<avc::AvcProtocol> engine(
      protocol, majority_instance_with_margin(protocol, 200, 20));
  EngineProbe probe;
  engine.attach_probe(&probe);
  Xoshiro256ss rng(kSeed);
  std::uint64_t productive = 0;
  for (int i = 0; i < 300 && !engine.absorbing() && !engine.all_same_output();
       ++i) {
    engine.step(rng);
    ++productive;
  }
  EXPECT_EQ(probe.interactions, engine.steps());
  EXPECT_EQ(probe.productive, productive);
  EXPECT_EQ(kinds_total(probe), probe.interactions);
  EXPECT_GT(probe.kinds[static_cast<std::size_t>(ReactionKind::kNull)], 0u);
}

TEST(EngineProbeTest, AvcRunTouchesTheReactionFamilies) {
  const avc::AvcProtocol protocol(7, 1);
  CountEngine<avc::AvcProtocol> engine(
      protocol, majority_instance_with_margin(protocol, 300, 30));
  EngineProbe probe;
  engine.attach_probe(&probe);
  Xoshiro256ss rng(kSeed);
  for (int i = 0; i < 20000; ++i) engine.step(rng);
  // A near-balanced AVC run exercises averaging and the zero-spreading
  // families; a classified protocol never reports kOther.
  EXPECT_GT(probe.kinds[static_cast<std::size_t>(ReactionKind::kAveraging)],
            0u);
  EXPECT_GT(probe.kinds[static_cast<std::size_t>(ReactionKind::kSignToZero)],
            0u);
  EXPECT_EQ(probe.kinds[static_cast<std::size_t>(ReactionKind::kOther)], 0u);
}

TEST(EngineProbeTest, UnclassifiedProtocolsReportOther) {
  const FourStateProtocol protocol;
  CountEngine<FourStateProtocol> engine(
      protocol, majority_instance_with_margin(protocol, 100, 10));
  EngineProbe probe;
  engine.attach_probe(&probe);
  Xoshiro256ss rng(kSeed);
  for (int i = 0; i < 2000; ++i) engine.step(rng);
  EXPECT_EQ(probe.interactions, engine.steps());
  EXPECT_EQ(probe.productive,
            probe.kinds[static_cast<std::size_t>(ReactionKind::kOther)]);
}

// The fault sweep's rate-0 control runs the plain count engine with the
// cell's probe attached, so its flushed engine.* counters are exactly a
// probed plain run's on the same stream.
TEST(EngineProbeTest, PerturbedPassthroughForwardsToTheBase) {
  const avc::AvcProtocol protocol(3, 1);
  const Counts counts = majority_instance_with_margin(protocol, 100, 10);
  FaultSweepConfig config;
  config.n = 100;
  config.replicates = 2;
  config.seed = kSeed;
  config.max_interactions = 1'000'000;

  MetricsRegistry cell_metrics;
  ObsContext obs;
  obs.metrics = &cell_metrics;
  ASSERT_TRUE(popbean::detail::run_fault_cell(
      protocol, verify::avc_sum_invariant(protocol), counts, config, 0.0, 1,
      1, [](double rate) { return faults::TransientCorruption(rate); },
      [] { return faults::UniformSchedule{}; }, [] { return false; }, 1024,
      obs));

  CountEngine<avc::AvcProtocol> plain(protocol, counts);
  EngineProbe probe;
  plain.attach_probe(&probe);
  Xoshiro256ss rng(kSeed, 1 * config.replicates + 1);
  run_to_convergence(plain, rng, config.max_interactions);
  MetricsRegistry plain_metrics;
  flush_engine_probe(plain_metrics, probe);

  const auto engine_counters = [](const MetricsRegistry& metrics) {
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const auto& counter : metrics.snapshot().counters) {
      if (counter.first.rfind("engine.", 0) == 0) out.push_back(counter);
    }
    return out;
  };
  const auto expected = engine_counters(plain_metrics);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(engine_counters(cell_metrics), expected);
}

TEST(EngineProbeTest, PerturbedCountsModeRecordsScheduledPairs) {
  const avc::AvcProtocol protocol(3, 1);
  const Counts counts = majority_instance_with_margin(protocol, 100, 10);
  Xoshiro256ss root(kSeed);
  faults::PerturbedEngine perturbed(protocol, counts,
                                    faults::TransientCorruption(0.05),
                                    faults::UniformSchedule{}, root);
  expect_probe_matches(perturbed, 3000);
}

#endif  // POPBEAN_OBS_ENABLED

TEST(ClassifyTest, AvcClassifierAgreesWithTheTransitionFunction) {
  const avc::AvcProtocol protocol(7, 1);
  const auto s = static_cast<State>(protocol.num_states());
  for (State a = 0; a < s; ++a) {
    for (State b = 0; b < s; ++b) {
      const ReactionKind kind = classify_interaction(protocol, a, b);
      const Transition t = protocol.apply(a, b);
      EXPECT_EQ(kind == ReactionKind::kNull, is_null(t, a, b))
          << "pair (" << a << ", " << b << ")";
      EXPECT_NE(kind, ReactionKind::kOther);
    }
  }
}

TEST(ClassifyTest, ProtocolsWithoutClassifierMapToOther) {
  const FourStateProtocol protocol;
  EXPECT_EQ(classify_interaction(protocol, State{0}, State{1}),
            ReactionKind::kOther);
}

TEST(FlushTest, FlushEngineProbeWritesPrefixedCounters) {
  MetricsRegistry registry;
  EngineProbe probe;
#if POPBEAN_OBS_ENABLED
  probe.record(ReactionKind::kAveraging);
  probe.record(ReactionKind::kNull);
  probe.record_nulls(3);
#endif
  flush_engine_probe(registry, probe, "engine");
  const MetricsRegistry::Snapshot snapshot = registry.snapshot();
#if POPBEAN_OBS_ENABLED
  bool found_interactions = false;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "engine.interactions") {
      found_interactions = true;
      EXPECT_EQ(value, 5u);
    }
    if (name == "engine.productive") {
      EXPECT_EQ(value, 1u);
    }
    if (name == "engine.reactions.averaging") {
      EXPECT_EQ(value, 1u);
    }
    if (name == "engine.reactions.null") {
      EXPECT_EQ(value, 4u);
    }
  }
  EXPECT_TRUE(found_interactions);
#else
  EXPECT_TRUE(snapshot.counters.empty());
#endif
}

}  // namespace
}  // namespace popbean::obs

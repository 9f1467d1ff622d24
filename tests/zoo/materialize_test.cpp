// MaterializedView ≡ programmatic Runtime, bit for bit.
//
// Materialization promises that every verdict reached about the frozen
// table holds verbatim for the programmatic original. These tests pin that
// promise down to the strongest possible form: identical dense ids, names,
// outputs, and δ on every pair — and, driven by the *same* RNG stream,
// identical trajectories on all three engines. Plus the member name the
// view keeps.
#include <string>

#include <gtest/gtest.h>

#include "population/agent_engine.hpp"
#include "population/configuration.hpp"
#include "population/count_engine.hpp"
#include "population/skip_engine.hpp"
#include "util/rng.hpp"
#include "zoo/berenbrink.hpp"
#include "zoo/doubling.hpp"
#include "zoo/materialize.hpp"
#include "zoo/registry.hpp"
#include "zoo/runtime.hpp"

namespace popbean::zoo {
namespace {

template <typename RT>
void expect_same_protocol(const RT& runtime, const MaterializedView& view) {
  ASSERT_EQ(view.num_states(), runtime.num_states());
  EXPECT_EQ(view.initial_state(Opinion::A), runtime.initial_state(Opinion::A));
  EXPECT_EQ(view.initial_state(Opinion::B), runtime.initial_state(Opinion::B));
  const auto s = static_cast<State>(runtime.num_states());
  for (State q = 0; q < s; ++q) {
    EXPECT_EQ(view.output(q), runtime.output(q));
    EXPECT_EQ(view.state_name(q), runtime.state_name(q));
  }
  for (State a = 0; a < s; ++a) {
    for (State b = 0; b < s; ++b) {
      const Transition programmatic = runtime.apply(a, b);
      const Transition frozen = view.apply(a, b);
      EXPECT_EQ(programmatic.initiator, frozen.initiator);
      EXPECT_EQ(programmatic.responder, frozen.responder);
    }
  }
}

// Same seed, same stream → the engines must visit identical count vectors
// at every single step, whichever form of the protocol they host.
template <template <typename> class Engine, typename RT>
void expect_lockstep(const RT& runtime, const MaterializedView& view,
                     std::uint64_t n, int steps) {
  const Counts initial = majority_instance_with_margin(runtime, n, 2);
  Engine<RT> programmatic(runtime, initial);
  Engine<MaterializedView> frozen(view, initial);
  Xoshiro256ss rng_a(2024, 5);
  Xoshiro256ss rng_b(2024, 5);
  for (int i = 0; i < steps; ++i) {
    programmatic.step(rng_a);
    frozen.step(rng_b);
    ASSERT_EQ(programmatic.counts(), frozen.counts()) << "step " << i;
    ASSERT_EQ(programmatic.steps(), frozen.steps()) << "step " << i;
  }
}

template <typename Z>
void expect_equivalence_everywhere(const Runtime<Z>& runtime) {
  const MaterializedView view = materialize(runtime);
  expect_same_protocol(runtime, view);
  expect_lockstep<AgentEngine>(runtime, view, 60, 3000);
  expect_lockstep<CountEngine>(runtime, view, 60, 3000);
  expect_lockstep<SkipEngine>(runtime, view, 60, 800);
}

TEST(MaterializeTest, DoublingRuntimeAndViewAreBitExactOnAllEngines) {
  expect_equivalence_everywhere(Runtime<DoublingProtocol>{DoublingProtocol(4)});
}

TEST(MaterializeTest, BerenbrinkRuntimeAndViewAreBitExactOnAllEngines) {
  expect_equivalence_everywhere(
      Runtime<BerenbrinkProtocol>{BerenbrinkProtocol(3, 2, 2)});
}

TEST(MaterializeTest, IdentityIsSharedAndNamed) {
  const Runtime<DoublingProtocol> runtime{DoublingProtocol(4)};
  const MaterializedView view = materialize(runtime);
  EXPECT_EQ(view.zoo_name(), "doubling");
  EXPECT_EQ(view.zoo_name(), runtime.member().name());
  const Runtime<BerenbrinkProtocol> other{BerenbrinkProtocol(3, 2, 2)};
  EXPECT_EQ(materialize(other).zoo_name(), "berenbrink");
}

TEST(MaterializeTest, RegistryRuntimesMaterializeWithinEngineCaps) {
  // Both simulation-default members must stay materializable (TabulatedProtocol
  // cap) — the zoo-verify CI gate and the .pbp toolchain depend on it.
  with_zoo_runtime("zoo:doubling", [](const auto& runtime) {
    const MaterializedView view = materialize(runtime);
    EXPECT_EQ(view.num_states(), runtime.num_states());
    return 0;
  });
  with_zoo_runtime("zoo:berenbrink", [](const auto& runtime) {
    const MaterializedView view = materialize(runtime);
    EXPECT_EQ(view.num_states(), runtime.num_states());
    return 0;
  });
}

}  // namespace
}  // namespace popbean::zoo

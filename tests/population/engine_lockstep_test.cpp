// Lockstep differential test: each engine against a reference sampler.
//
// The reference classes below are the straightforward samplers: the skip
// engine's O(s) row scan over per-row responder sums with a fresh O(s)
// weight sum, and the count engine's exclude-draw-restore responder draw
// by linear prefix scans. Neither uses the engines' search structures.
// The engines' incremental samplers promise to draw the same RNG values and
// map them to the same (initiator, responder) pair, so from one seed the
// two must visit identical configurations, step for step.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/avc.hpp"
#include "core/avc_params.hpp"
#include "population/configuration.hpp"
#include "population/count_engine.hpp"
#include "population/skip_engine.hpp"
#include "protocols/four_state.hpp"
#include "protocols/mobile.hpp"
#include "protocols/random_protocol.hpp"
#include "protocols/three_state.hpp"
#include "protocols/voter.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace popbean {
namespace {

// Skip sampler with O(s) work per step: W is re-summed over rows, the pair
// is found by a linear row scan and a linear column scan, and every count
// change walks all rows reactive with that responder.
template <ProtocolLike P>
class ReferenceSkip {
 public:
  ReferenceSkip(const P& protocol, const Counts& counts)
      : s_(protocol.num_states()),
        counts_(counts),
        table_(s_ * s_),
        reactive_(s_ * s_),
        rows_by_responder_(s_),
        responder_sum_(s_, 0) {
    for (State a = 0; a < s_; ++a) {
      for (State b = 0; b < s_; ++b) {
        table_[a * s_ + b] = protocol.apply(a, b);
        reactive_[a * s_ + b] = !is_null(table_[a * s_ + b], a, b);
        if (reactive_[a * s_ + b]) {
          rows_by_responder_[b].push_back(a);
          responder_sum_[a] += counts_[b];
        }
      }
    }
    n_ = population_size(counts_);
  }

  const Counts& counts() const { return counts_; }
  std::uint64_t steps() const { return steps_; }
  bool absorbing() const { return absorbing_; }

  std::uint64_t reactive_weight() const {
    std::uint64_t total = 0;
    for (State i = 0; i < s_; ++i) total += row_weight(i);
    return total;
  }

  void step(Xoshiro256ss& rng) {
    if (absorbing_) return;
    const std::uint64_t weight = reactive_weight();
    if (weight == 0) {
      absorbing_ = true;
      return;
    }
    const double p = static_cast<double>(weight) /
                     (static_cast<double>(n_) * static_cast<double>(n_ - 1));
    steps_ += rng.geometric_failures(p) + 1;
    std::uint64_t target = rng.below(weight);
    State i = 0;
    for (; target >= row_weight(i); ++i) target -= row_weight(i);
    target /= counts_[i];
    State j = 0;
    for (;; ++j) {
      if (!reactive_[i * s_ + j]) continue;
      const std::uint64_t w = counts_[j] - (i == j ? 1 : 0);
      if (target < w) break;
      target -= w;
    }
    const Transition t = table_[i * s_ + j];
    adjust(i, -1);
    adjust(j, -1);
    adjust(t.initiator, +1);
    adjust(t.responder, +1);
  }

 private:
  std::uint64_t row_weight(State i) const {
    const std::uint64_t base = counts_[i] * responder_sum_[i];
    return reactive_[i * s_ + i] ? base - counts_[i] : base;
  }

  void adjust(State q, std::int64_t delta) {
    counts_[q] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(counts_[q]) + delta);
    for (State row : rows_by_responder_[q]) {
      responder_sum_[row] = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(responder_sum_[row]) + delta);
    }
  }

  std::size_t s_;
  Counts counts_;
  std::vector<Transition> table_;
  std::vector<char> reactive_;
  std::vector<std::vector<State>> rows_by_responder_;
  std::vector<std::uint64_t> responder_sum_;
  std::uint64_t n_ = 0;
  std::uint64_t steps_ = 0;
  bool absorbing_ = false;
};

// Count sampler that finds each partner by a linear prefix scan over its
// counts, and excludes the initiator from the counts for the responder draw
// and restores it afterwards.
template <ProtocolLike P>
class ReferenceCount {
 public:
  ReferenceCount(const P& protocol, const Counts& counts)
      : protocol_(protocol), counts_(counts) {
    n_ = population_size(counts_);
  }

  const Counts& counts() const { return counts_; }
  std::uint64_t steps() const { return steps_; }

  void step(Xoshiro256ss& rng) {
    const State a = find(rng.below(n_));
    adjust(a, -1);
    const State b = find(rng.below(n_ - 1));
    adjust(a, +1);
    const Transition t = protocol_.apply(a, b);
    adjust(a, -1);
    adjust(b, -1);
    adjust(t.initiator, +1);
    adjust(t.responder, +1);
    ++steps_;
  }

 private:
  // The state of the agent at position target when agents are laid out in
  // state order: the smallest q with c_0 + … + c_q > target.
  State find(std::uint64_t target) const {
    State q = 0;
    for (; target >= counts_[q]; ++q) target -= counts_[q];
    return q;
  }

  void adjust(State q, std::int64_t delta) {
    counts_[q] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(counts_[q]) + delta);
  }

  P protocol_;
  Counts counts_;
  std::uint64_t n_ = 0;
  std::uint64_t steps_ = 0;
};

// Mid-run events at a given step index: move one agent from `from` to `to`
// and rebuild both sides from the moved configuration, or reload the engine
// from its own snapshot.
struct Event {
  int at = -1;
  enum Kind { kMoveAgent, kReload } kind = kMoveAgent;
  State from = 0;
  State to = 0;
};

template <typename Engine, typename Ref>
void expect_same_state(const Engine& engine, const Ref& ref, int step) {
  ASSERT_EQ(engine.counts(), ref.counts()) << "step " << step;
  ASSERT_EQ(engine.steps(), ref.steps()) << "step " << step;
  if constexpr (requires { ref.reactive_weight(); }) {
    ASSERT_EQ(engine.reactive_weight(), ref.reactive_weight())
        << "step " << step;
    ASSERT_EQ(engine.absorbing(), ref.absorbing()) << "step " << step;
  }
}

template <template <typename> class Engine, template <typename> class Ref,
          ProtocolLike P>
void run_lockstep(const P& protocol, const Counts& initial, int steps,
                  std::uint64_t seed, const std::vector<Event>& events = {}) {
  Engine<P> engine(protocol, initial);
  Ref<P> ref(protocol, initial);
  Xoshiro256ss rng_engine(seed);
  Xoshiro256ss rng_ref(seed);
  expect_same_state(engine, ref, -1);
  for (int i = 0; i < steps; ++i) {
    for (const Event& e : events) {
      if (e.at != i) continue;
      if (e.kind == Event::kMoveAgent) {
        if (ref.counts()[e.from] == 0) continue;
        Counts moved = ref.counts();
        --moved[e.from];
        ++moved[e.to];
        engine = Engine<P>(protocol, moved);
        ref = Ref<P>(protocol, moved);
      } else {
        BinaryWriter out;
        engine.save_state(out);
        Engine<P> restored(protocol, initial);
        BinaryReader in(out.bytes());
        restored.load_state(in);
        engine = std::move(restored);
      }
      expect_same_state(engine, ref, i);
    }
    engine.step(rng_engine);
    ref.step(rng_ref);
    expect_same_state(engine, ref, i);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

template <ProtocolLike P>
void lockstep_both(const P& protocol, const Counts& initial, int steps,
                   std::uint64_t seed, const std::vector<Event>& events = {}) {
  {
    SCOPED_TRACE("skip engine");
    run_lockstep<SkipEngine, ReferenceSkip>(protocol, initial, steps, seed,
                                            events);
  }
  SCOPED_TRACE("count engine");
  run_lockstep<CountEngine, ReferenceCount>(protocol, initial, 20 * steps,
                                            seed + 1, events);
}

avc::AvcProtocol avc_with_states(avc::AvcParams params) {
  return avc::AvcProtocol(params.m, params.d);
}

TEST(EngineLockstepTest, AvcAtOneHundredStates) {
  const auto protocol = avc_with_states(avc::for_epsilon(0.01));
  ASSERT_EQ(protocol.num_states(), 100u);
  lockstep_both(protocol,
                majority_instance_with_margin(protocol, 2001, 21, Opinion::B),
                20000, 11);
}

TEST(EngineLockstepTest, AvcWithSeveralBlocksAndAPartialLastBlock) {
  const auto protocol = avc_with_states(avc::from_state_budget(300));
  ASSERT_EQ(protocol.num_states(), 300u);
  lockstep_both(protocol, majority_instance_with_margin(protocol, 1501, 3),
                8000, 12);
}

TEST(EngineLockstepTest, NStateAvcShortRun) {
  const auto protocol = avc_with_states(avc::n_state(1001));
  ASSERT_GE(protocol.num_states(), 990u);
  lockstep_both(protocol, majority_instance_with_margin(protocol, 1001, 1),
                3000, 13);
}

// The regime of fig3 and Fig. 4's large cells: s ≈ 10^4 states, so the
// count tree has five levels and most states are empty.
TEST(EngineLockstepTest, CountEngineNStateAvcAtTenThousandStates) {
  const auto protocol = avc_with_states(avc::n_state(10001));
  ASSERT_GE(protocol.num_states(), 10000u);
  run_lockstep<CountEngine, ReferenceCount>(
      protocol, majority_instance_with_margin(protocol, 10001, 1), 20000, 23,
      {{5000, Event::kReload},
       {9000, Event::kMoveAgent, protocol.initial_state(Opinion::A), 5000}});
}

TEST(EngineLockstepTest, SmallProtocols) {
  FourStateProtocol four;
  lockstep_both(four, majority_instance_with_margin(four, 301, 1), 5000, 14);
  ThreeStateProtocol three;
  lockstep_both(three, majority_instance_with_margin(three, 301, 3), 5000, 15);
  VoterProtocol voter;
  lockstep_both(voter, majority_instance_with_margin(voter, 101, 5), 5000, 16);
  Mobile<VoterProtocol> mobile{VoterProtocol{}};
  lockstep_both(mobile, majority_instance_with_margin(mobile, 101, 5), 3000,
                17);
}

TEST(EngineLockstepTest, RandomProtocolsMixingDenseAndSparseColumns) {
  // Null fractions around one half put columns on both sides of the
  // dense/sparse split; 257 states give several blocks and a partial one.
  struct Case {
    std::size_t states;
    double null_fraction;
    std::uint64_t n;
  };
  for (const Case c : {Case{6, 0.5, 50}, Case{40, 0.5, 400},
                       Case{40, 0.1, 400}, Case{40, 0.9, 400},
                       Case{257, 0.5, 2000}, Case{257, 0.97, 2000}}) {
    SCOPED_TRACE(std::to_string(c.states) + " states, null fraction " +
                 std::to_string(c.null_fraction));
    const RandomProtocol protocol(c.states, 100 + c.states, c.null_fraction);
    Counts initial(c.states, 0);
    Xoshiro256ss spread(c.states);
    for (std::uint64_t a = 0; a < c.n; ++a) ++initial[spread.below(c.states)];
    lockstep_both(protocol, initial, 3000, 18);
  }
}

TEST(EngineLockstepTest, ForceMoveAndReloadMidRun) {
  const auto protocol = avc_with_states(avc::for_epsilon(0.01));
  const std::vector<Event> events = {
      {500, Event::kMoveAgent, 0, 99},    {900, Event::kReload},
      {1200, Event::kMoveAgent, 50, 50},  {1300, Event::kMoveAgent, 49, 0},
      {2000, Event::kReload},             {2500, Event::kMoveAgent, 51, 98}};
  lockstep_both(protocol, majority_instance_with_margin(protocol, 601, 7),
                4000, 19, events);

  const RandomProtocol random(257, 7, 0.5);
  Counts initial(257, 3);
  lockstep_both(random, initial, 3000, 20,
                {{100, Event::kMoveAgent, 3, 200}, {700, Event::kReload},
                 {701, Event::kMoveAgent, 256, 0}});
}

TEST(EngineLockstepTest, AbsorbingConfigurationAndItsRevival) {
  // Weak a and weak b never react in the four-state protocol: the skip
  // engine must report zero weight and stall, and an engine rebuilt with
  // one strong agent in place of a weak one must react again.
  FourStateProtocol four;
  Counts weak(4, 0);
  weak[FourStateProtocol::kWeakA] = 20;
  weak[FourStateProtocol::kWeakB] = 30;
  run_lockstep<SkipEngine, ReferenceSkip>(
      four, weak, 400, 21,
      {{50, Event::kReload},
       {100, Event::kMoveAgent, FourStateProtocol::kWeakB,
        FourStateProtocol::kStrongA}});
  SkipEngine<FourStateProtocol> engine(four, weak);
  Xoshiro256ss rng(22);
  engine.step(rng);
  EXPECT_TRUE(engine.absorbing());
  EXPECT_EQ(engine.reactive_weight(), 0u);
  EXPECT_EQ(engine.steps(), 0u);
}

}  // namespace
}  // namespace popbean

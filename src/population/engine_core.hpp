// Engine-independent run state shared by the exact engines (agent, count,
// skip): the protocol, the population size, the interaction count and the
// two-camp output tally that run_to_convergence polls.
//
// Each engine inherits it, reports every agent that changes state through
// move(), and keeps only its own sampling structures. The tally makes
// all_same_output() O(1); it is derived from the configuration on
// construction. The constructor is the only way into an engine: on the
// clique the count vector is the whole state of the chain, so an engine
// built from another's counts() continues the same chain.
#pragma once

#include <cstdint>
#include <utility>

#include "population/configuration.hpp"
#include "population/protocol.hpp"
#include "util/check.hpp"

namespace popbean {

template <ProtocolLike P>
class EngineCore {
 public:
  const P& protocol() const noexcept { return protocol_; }
  std::uint64_t num_agents() const noexcept { return num_agents_; }
  std::uint64_t steps() const noexcept { return steps_; }
  double parallel_time() const noexcept {
    return static_cast<double>(steps_) / static_cast<double>(num_agents_);
  }

  std::uint64_t output_agents(Output output) const noexcept {
    return out_count_[index(output)];
  }

  bool all_same_output() const noexcept {
    return out_count_[0] == 0 || out_count_[1] == 0;
  }

  // The output held by the larger camp (the unanimous one when converged).
  Output dominant_output() const noexcept {
    return out_count_[1] >= out_count_[0] ? 1 : 0;
  }

 protected:
  // `counts` is the initial configuration: one entry per protocol state and
  // at least two agents.
  EngineCore(P protocol, const Counts& counts)
      : protocol_(std::move(protocol)) {
    POPBEAN_CHECK(counts.size() == protocol_.num_states());
    num_agents_ = population_size(counts);
    POPBEAN_CHECK(num_agents_ >= 2);
    recount(counts);
  }

  // One agent changed state from `from` to `to`.
  void move(State from, State to) noexcept {
    const Output before = protocol_.output(from);
    const Output after = protocol_.output(to);
    if (before != after) {
      --out_count_[index(before)];
      ++out_count_[index(after)];
    }
  }

  // Re-derives the output tally from a whole configuration.
  void recount(const Counts& counts) noexcept {
    out_count_[0] = 0;
    out_count_[1] = 0;
    for (State q = 0; q < counts.size(); ++q) {
      out_count_[index(protocol_.output(q))] += counts[q];
    }
  }

  P protocol_;
  std::uint64_t num_agents_ = 0;
  std::uint64_t steps_ = 0;

 private:
  static constexpr std::size_t index(Output o) noexcept {
    return o == 0 ? 0 : 1;
  }

  std::uint64_t out_count_[2] = {0, 0};
};

}  // namespace popbean

// Per-layer timing of a protocol's transition function δ (Protocol::apply)
// on state pairs drawn from configurations that a workload's runs visit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common.hpp"
#include "population/configuration.hpp"
#include "population/count_engine.hpp"
#include "population/protocol.hpp"
#include "util/rng.hpp"

namespace perfbench {

using StatePair = std::pair<popbean::State, popbean::State>;

// Follows one count-engine trajectory from `counts`. Before each of up to
// `snapshots` stretches of n interactions (one unit of parallel time) it
// draws `per_snapshot` agent pairs from the current configuration, so the
// pairs weight each state by how many agents hold it along the run.
template <popbean::ProtocolLike P>
std::vector<StatePair> visited_pairs(const P& protocol,
                                     const popbean::Counts& counts,
                                     std::uint64_t seed, std::size_t snapshots,
                                     std::size_t per_snapshot) {
  popbean::CountEngine<P> engine(protocol, counts);
  popbean::Xoshiro256ss rng(seed, 0xde17a);
  const std::uint64_t n = engine.num_agents();
  std::vector<StatePair> pairs;
  pairs.reserve(snapshots * per_snapshot);
  std::vector<std::uint64_t> prefix;
  for (std::size_t s = 0; s < snapshots; ++s) {
    const popbean::Counts& now = engine.counts();
    prefix.resize(now.size());
    std::partial_sum(now.begin(), now.end(), prefix.begin());
    const auto draw = [&] {
      const std::uint64_t agent = rng.below(n);
      return static_cast<popbean::State>(
          std::upper_bound(prefix.begin(), prefix.end(), agent) -
          prefix.begin());
    };
    for (std::size_t k = 0; k < per_snapshot; ++k) {
      const popbean::State a = draw();
      pairs.emplace_back(a, draw());
    }
    if (engine.all_same_output()) break;
    for (std::uint64_t i = 0; i < n && !engine.all_same_output(); ++i) {
      engine.step(rng);
    }
  }
  return pairs;
}

// Median over `repeats` sweeps of the wall time per apply() call, in ns.
template <popbean::ProtocolLike P>
double apply_ns(const P& protocol, const std::vector<StatePair>& pairs,
                int repeats = 9) {
  std::vector<double> per_call;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    const auto start = Clock::now();
    for (const auto& [a, b] : pairs) {
      const popbean::Transition t = protocol.apply(a, b);
      sink += t.initiator ^ (static_cast<std::uint64_t>(t.responder) << 20);
    }
    const auto end = Clock::now();
    per_call.push_back(seconds_between(start, end) * 1e9 /
                       static_cast<double>(pairs.size()));
  }
  // Keep the loop's results observable so the calls are not elided.
  asm volatile("" : : "r"(sink) : "memory");
  return median(per_call);
}

}  // namespace perfbench

// Count-based simulation engine for the complete interaction graph.
//
// On a clique, agents are exchangeable, so the configuration is fully
// described by per-state counts. One interaction samples the initiator state
// with probability c_i / n and the responder state from the remaining n − 1
// agents, via two prefix searches in a Fenwick tree — O(log s) per
// interaction, with tree updates only for agents that change state. This is
// the engine of choice when the state count s is large (the paper's Figure 4
// uses s up to 16340 and the "n-state AVC" of Figure 3 uses s ≈ n, where an
// s × s reaction table would not fit in memory).
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>

#include "obs/probe.hpp"
#include "population/configuration.hpp"
#include "population/protocol.hpp"
#include "util/binary_io.hpp"
#include "util/check.hpp"
#include "util/fenwick.hpp"
#include "util/rng.hpp"

namespace popbean {

template <ProtocolLike P>
class CountEngine {
 public:
  CountEngine(P protocol, const Counts& counts)
      : protocol_(std::move(protocol)), counts_(counts), tree_(counts) {
    POPBEAN_CHECK(counts_.size() == protocol_.num_states());
    num_agents_ = population_size(counts_);
    POPBEAN_CHECK(num_agents_ >= 2);
    for (State q = 0; q < counts_.size(); ++q) {
      out_count_[index(protocol_.output(q))] += counts_[q];
    }
  }

  const P& protocol() const noexcept { return protocol_; }
  std::uint64_t num_agents() const noexcept { return num_agents_; }
  std::uint64_t steps() const noexcept { return steps_; }
  double parallel_time() const noexcept {
    return static_cast<double>(steps_) / static_cast<double>(num_agents_);
  }

  const Counts& counts() const noexcept { return counts_; }

  std::uint64_t output_agents(Output output) const noexcept {
    return out_count_[index(output)];
  }

  // Attaches an interaction probe (src/obs); pass nullptr to detach. The
  // probe must outlive the engine or be detached first. Recording compiles
  // out entirely when POPBEAN_OBS_ENABLED=0.
  void attach_probe(obs::EngineProbe* probe) noexcept { probe_ = probe; }

  bool all_same_output() const noexcept {
    return out_count_[0] == 0 || out_count_[1] == 0;
  }

  Output dominant_output() const noexcept {
    return out_count_[1] >= out_count_[0] ? 1 : 0;
  }

  // External-perturbation hook (src/faults/): moves one agent of state
  // `from` to state `to`, outside the protocol's transition function. Agents
  // of equal state are exchangeable here, so no sampling is needed; the rng
  // parameter keeps the signature uniform across engines.
  void force_move(State from, State to, Xoshiro256ss&) {
    POPBEAN_CHECK(from < protocol_.num_states());
    POPBEAN_CHECK(to < protocol_.num_states());
    if (from == to) return;
    POPBEAN_CHECK_MSG(counts_[from] > 0,
                      "force_move: no agent holds `from` state");
    adjust(from, -1);
    adjust(to, +1);
    move_output(from, to);
  }

  // --- snapshot hooks (src/recovery) ---------------------------------------
  // Serializes counts and step count; the Fenwick tree and output tallies
  // are derived state, rebuilt (and cross-checked) on load.
  static constexpr std::string_view kSnapshotKind = "engine/count";

  void save_state(BinaryWriter& out) const {
    out.u64(steps_);
    out.vec_u64(counts_);
  }

  void load_state(BinaryReader& in) {
    const std::uint64_t steps = in.u64();
    Counts counts = in.vec_u64();
    POPBEAN_CHECK_MSG(counts.size() == protocol_.num_states(),
                      "snapshot state count does not match the protocol");
    POPBEAN_CHECK_MSG(population_size(counts) == num_agents_,
                      "snapshot population size does not match this engine");
    counts_ = std::move(counts);
    tree_ = FenwickTree(counts_);
    steps_ = steps;
    out_count_[0] = 0;
    out_count_[1] = 0;
    for (State q = 0; q < counts_.size(); ++q) {
      out_count_[index(protocol_.output(q))] += counts_[q];
    }
  }

  // Executes one interaction on a uniformly random ordered pair of distinct
  // agents.
  void step(Xoshiro256ss& rng) {
    // Agents are laid out in state order; the initiator is the agent at
    // position u and the responder the agent at position v of the other
    // n − 1, i.e. at v, or v + 1 once past u.
    const std::uint64_t u = rng.below(num_agents_);
    const auto a = static_cast<State>(tree_.find_by_prefix(u));
    const std::uint64_t v = rng.below(num_agents_ - 1);
    const auto b = static_cast<State>(tree_.find_by_prefix(v < u ? v : v + 1));

    const Transition t = protocol_.apply(a, b);
    const bool null = is_null(t, a, b);
    if (!null) {
      apply_reaction(a, b, t);
    }
    POPBEAN_OBS_HOOK(if (probe_ != nullptr) {
      probe_->record(null ? obs::ReactionKind::kNull
                          : obs::classify_interaction(protocol_, a, b));
    })
    ++steps_;
  }

 private:
  static constexpr std::size_t index(Output o) noexcept {
    return o == 0 ? 0 : 1;
  }

  void adjust(State q, std::int64_t delta) {
    counts_[q] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(counts_[q]) + delta);
    tree_.add(q, delta);
  }

  // Moves only the participants whose state changes.
  void apply_reaction(State a, State b, const Transition& t) {
    if (t.initiator != a) {
      adjust(a, -1);
      adjust(t.initiator, +1);
      move_output(a, t.initiator);
    }
    if (t.responder != b) {
      adjust(b, -1);
      adjust(t.responder, +1);
      move_output(b, t.responder);
    }
  }

  void move_output(State from, State to) noexcept {
    const Output before = protocol_.output(from);
    const Output after = protocol_.output(to);
    if (before != after) {
      --out_count_[index(before)];
      ++out_count_[index(after)];
    }
  }

  P protocol_;
  Counts counts_;
  FenwickTree tree_;
  obs::EngineProbe* probe_ = nullptr;
  std::uint64_t num_agents_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t out_count_[2] = {0, 0};
};

}  // namespace popbean

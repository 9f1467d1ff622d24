// Count-based simulation engine for the complete interaction graph.
//
// On a clique, agents are exchangeable, so the configuration is fully
// described by per-state counts. One interaction samples the initiator state
// with probability c_i / n and the responder state from the remaining n − 1
// agents, via one paired search (two interleaved prefix descents) in a K-ary
// count tree (util/count_tree.hpp) — O(log_K s) per interaction, with tree
// updates only for agents that change state. This is the engine of choice
// when the state count s is large (the paper's Figure 4 uses s up to 16340
// and the "n-state AVC" of Figure 3 uses s ≈ n, where an s × s reaction
// table would not fit in memory).
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>

#include "obs/probe.hpp"
#include "population/configuration.hpp"
#include "population/engine_core.hpp"
#include "population/protocol.hpp"
#include "util/binary_io.hpp"
#include "util/check.hpp"
#include "util/count_tree.hpp"
#include "util/rng.hpp"

namespace popbean {

template <ProtocolLike P>
class CountEngine : public EngineCore<P> {
 public:
  CountEngine(P protocol, const Counts& counts)
      : EngineCore<P>(std::move(protocol), counts), tree_(counts) {}

  const Counts& counts() const noexcept { return tree_.weights(); }

  // Attaches an interaction probe (src/obs); pass nullptr to detach. The
  // probe must outlive the engine or be detached first. Recording compiles
  // out entirely when POPBEAN_OBS_ENABLED=0.
  void attach_probe(obs::EngineProbe* probe) noexcept { probe_ = probe; }

  // --- snapshot hooks (src/recovery) ---------------------------------------
  // Serializes counts and step count; the tree's upper levels and the output
  // tallies are derived state, rebuilt (and cross-checked) on load.
  static constexpr std::string_view kSnapshotKind = "engine/count";

  void save_state(BinaryWriter& out) const {
    out.u64(steps_);
    out.vec_u64(counts());
  }

  void load_state(BinaryReader& in) {
    const std::uint64_t steps = in.u64();
    tree_ = CountTree(this->load_counts(in));
    steps_ = steps;
  }

  // Executes one interaction on a uniformly random ordered pair of distinct
  // agents.
  void step(Xoshiro256ss& rng) {
    // Agents are laid out in state order; the initiator is the agent at
    // position u and the responder the agent at position v of the other
    // n − 1, i.e. at v, or v + 1 once past u. Both positions are drawn
    // before either search, so the two descents run side by side.
    const std::uint64_t u = rng.below(num_agents_);
    const std::uint64_t v = rng.below(num_agents_ - 1);
    const auto [i, j] = tree_.find_pair(u, v < u ? v : v + 1);
    const auto a = static_cast<State>(i);
    const auto b = static_cast<State>(j);

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
  using EngineCore<P>::move;
  using EngineCore<P>::num_agents_;
  using EngineCore<P>::protocol_;
  using EngineCore<P>::steps_;

  // Moves only the participants whose state changes.
  void apply_reaction(State a, State b, const Transition& t) {
    if (t.initiator != a) {
      tree_.add(a, -1);
      tree_.add(t.initiator, +1);
      move(a, t.initiator);
    }
    if (t.responder != b) {
      tree_.add(b, -1);
      tree_.add(t.responder, +1);
      move(b, t.responder);
    }
  }

  CountTree tree_;
  obs::EngineProbe* probe_ = nullptr;
};

}  // namespace popbean

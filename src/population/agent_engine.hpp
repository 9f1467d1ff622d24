// Agent-array simulation engine.
//
// Keeps the explicit state of each agent; one interaction costs O(1). This is
// the reference engine: it is the only one that supports arbitrary
// interaction graphs, and the accelerated engines are validated against it.
// Its state is the agent array. An engine built from counts() places the
// agents in state order again: on the complete graph it continues the run
// in law but not draw for draw, and on other graphs the placement is lost.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph_concept.hpp"
#include "graph/interaction_graph.hpp"
#include "obs/probe.hpp"
#include "population/configuration.hpp"
#include "population/engine_core.hpp"
#include "population/protocol.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace popbean {

// G may be the uniform-edge InteractionGraph (default) or any GraphLike
// type, e.g. the rate-weighted WeightedInteractionGraph of [DV12]'s
// general-rates model.
template <ProtocolLike P, GraphLike G = InteractionGraph>
class AgentEngine : public EngineCore<P> {
 public:
  // Complete-graph engine; agents are created per `counts` (state order).
  AgentEngine(P protocol, const Counts& counts)
    requires std::same_as<G, InteractionGraph>
      : AgentEngine(std::move(protocol), counts,
                    InteractionGraph::complete(
                        static_cast<NodeId>(checked_size(counts)))) {}

  // Engine on an explicit interaction graph. Initial states are assigned to
  // nodes in state order; call shuffle_placement() for a random assignment
  // (placement matters on non-complete graphs).
  AgentEngine(P protocol, const Counts& counts, G graph)
      : EngineCore<P>(std::move(protocol), counts), graph_(std::move(graph)) {
    POPBEAN_CHECK(graph_.num_nodes() == num_agents_);
    agents_.reserve(num_agents_);
    for (State q = 0; q < counts.size(); ++q) {
      agents_.insert(agents_.end(), counts[q], q);
    }
  }

  // Fisher–Yates shuffle of the agent-to-node assignment.
  void shuffle_placement(Xoshiro256ss& rng) {
    for (std::size_t i = agents_.size(); i > 1; --i) {
      std::swap(agents_[i - 1], agents_[rng.below(i)]);
    }
  }

  const G& graph() const noexcept { return graph_; }

  State state_of(NodeId node) const {
    POPBEAN_CHECK(node < agents_.size());
    return agents_[node];
  }

  Counts counts() const {
    Counts c(protocol_.num_states(), 0);
    for (State q : agents_) ++c[q];
    return c;
  }

  // Attaches an interaction probe (src/obs); pass nullptr to detach. The
  // probe must outlive the engine or be detached first. Recording compiles
  // out entirely when POPBEAN_OBS_ENABLED=0.
  void attach_probe(obs::EngineProbe* probe) noexcept { probe_ = probe; }

  // Executes one interaction: draws a uniformly random directed edge and
  // applies the transition function to (initiator, responder).
  void step(Xoshiro256ss& rng) {
    const auto [u, v] = graph_.sample_directed_edge(rng);
    const State a = agents_[u];
    const State b = agents_[v];
    const Transition t = protocol_.apply(a, b);
    const bool null = is_null(t, a, b);
    if (!null) {
      move(a, t.initiator);
      move(b, t.responder);
      agents_[u] = t.initiator;
      agents_[v] = t.responder;
    }
    POPBEAN_OBS_HOOK(if (probe_ != nullptr) {
      probe_->record(null ? obs::ReactionKind::kNull
                          : obs::classify_interaction(protocol_, a, b));
    })
    ++steps_;
  }

 private:
  static std::uint64_t checked_size(const Counts& counts) {
    const std::uint64_t n = population_size(counts);
    POPBEAN_CHECK(n >= 2);
    POPBEAN_CHECK_MSG(n <= 0xffffffffULL,
                      "AgentEngine node ids are 32-bit; population too large");
    return n;
  }

  using EngineCore<P>::move;
  using EngineCore<P>::num_agents_;
  using EngineCore<P>::protocol_;
  using EngineCore<P>::steps_;

  G graph_;
  std::vector<State> agents_;
  obs::EngineProbe* probe_ = nullptr;
};

}  // namespace popbean

// The engine dispatch point: a caller that runs a protocol from an initial
// configuration names an EngineKind, and with_engine builds that engine.
#pragma once

#include <string>
#include <utility>

#include "population/agent_engine.hpp"
#include "population/configuration.hpp"
#include "population/count_engine.hpp"
#include "population/protocol.hpp"
#include "population/skip_engine.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace popbean {

enum class EngineKind {
  kAgent,  // explicit agent array, O(1)/interaction
  kCount,  // counts in a K-ary count tree, O(log_K s)/interaction
  kSkip,   // jump-chain (null-interaction skipping), O(√s + L)/productive step
  kAuto,   // the harness's rule (run_majority_once): kSkip when the state
           // space is small enough, else kCount
};

inline std::string to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kAgent: return "agent";
    case EngineKind::kCount: return "count";
    case EngineKind::kSkip: return "skip";
    case EngineKind::kAuto: return "auto";
  }
  return "unknown";
}

// Builds the `kind` engine on `counts` and returns fn(engine), which must
// compile for all three engines. Only the agent engine draws from `rng`
// here, to shuffle its placement. kAuto must be resolved by the caller.
template <ProtocolLike P, typename Fn>
auto with_engine(EngineKind kind, const P& protocol, const Counts& counts,
                 Xoshiro256ss& rng, Fn&& fn) {
  if (kind == EngineKind::kAgent) {
    AgentEngine<P> engine(protocol, counts);
    engine.shuffle_placement(rng);
    return fn(engine);
  }
  if (kind == EngineKind::kCount) {
    CountEngine<P> engine(protocol, counts);
    return fn(engine);
  }
  POPBEAN_CHECK_MSG(kind == EngineKind::kSkip,
                    "with_engine needs a concrete engine kind");
  SkipEngine<P> engine(protocol, counts);
  return fn(engine);
}

}  // namespace popbean

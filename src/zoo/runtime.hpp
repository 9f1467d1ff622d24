// Runtime<Z> — adapts a programmatic CodeProtocol to the engines'
// ProtocolLike interface (DESIGN.md §11).
//
// Construction seeds the state universe with the two initial codes and
// interns the pairwise-reachable closure under δ (zoo/universe.hpp), after
// which the universe is frozen: the runtime presents a fixed dense state
// space exactly like a tabulated protocol, but apply() *computes* each
// transition — decode the raw codes, run the member's δ, re-encode — so no
// s² table ever exists. All three engines accept a Runtime directly; the
// count engine is the natural host (O(log s) sampling, O(s) memory), while
// the skip engine stores s² reactivity bytes and so has its own state cap.
//
// Decoding is a flat array lookup (raw codes are small packed integers),
// and outputs are cached per dense id, so the per-interaction overhead vs
// a table lookup is the δ computation itself — measured by the
// engine_microbench zoo cases.
//
// A runtime is named by its registry spec, "zoo:" + member().name()
// (zoo/registry.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/probe.hpp"
#include "population/protocol.hpp"
#include "util/check.hpp"
#include "zoo/code_protocol.hpp"
#include "zoo/universe.hpp"

namespace popbean::zoo {

template <CodeProtocol Z>
class Runtime {
 public:
  explicit Runtime(Z member) : member_(std::move(member)) {
    initial_[0] = universe_.intern(member_.initial_code(Opinion::B));
    initial_[1] = universe_.intern(member_.initial_code(Opinion::A));
    close_over_pairs(
        universe_,
        [this](std::uint32_t a, std::uint32_t b) {
          return member_.delta(a, b);
        },
        member_.max_states());

    // Dense decode table: the closure is frozen, so code → id becomes one
    // bounds-checked array read on the apply() hot path.
    std::uint32_t max_code = 0;
    for (const std::uint32_t code : universe_.codes()) {
      max_code = std::max(max_code, code);
    }
    POPBEAN_CHECK_MSG(max_code < kMaxRawCode,
                      "packed codes too wide for the dense decode table");
    code_to_id_.assign(static_cast<std::size_t>(max_code) + 1, kUnmapped);
    outputs_.resize(universe_.size());
    for (State id = 0; id < universe_.size(); ++id) {
      code_to_id_[universe_.code_of(id)] = id;
      outputs_[id] = member_.output_code(universe_.code_of(id));
    }
  }

  std::size_t num_states() const noexcept { return universe_.size(); }

  State initial_state(Opinion opinion) const noexcept {
    return initial_[opinion == Opinion::A ? 1 : 0];
  }

  Output output(State q) const noexcept {
    POPBEAN_DCHECK(q < outputs_.size());
    return outputs_[q];
  }

  Transition apply(State a, State b) const {
    const CodePair out = member_.delta(code_of(a), code_of(b));
    return {id_of(out.initiator), id_of(out.responder)};
  }

  std::string state_name(State q) const {
    return member_.code_name(code_of(q));
  }

  // Reaction-family hook for obs::EngineProbe, present iff the member
  // classifies (obs/probe.hpp detects this via requires-expression).
  obs::ReactionKind classify(State a, State b) const
    requires ClassifyingCodeProtocol<Z>
  {
    return member_.classify_codes(code_of(a), code_of(b));
  }

  const Z& member() const noexcept { return member_; }

  std::uint32_t code_of(State id) const { return universe_.code_of(id); }

  const StateUniverse& universe() const noexcept { return universe_; }

 private:
  static constexpr std::uint32_t kMaxRawCode = 1u << 24;
  static constexpr State kUnmapped = ~State{0};

  State id_of(std::uint32_t code) const {
    POPBEAN_CHECK_MSG(code < code_to_id_.size() &&
                          code_to_id_[code] != kUnmapped,
                      "δ left the closed state universe");
    return code_to_id_[code];
  }

  Z member_;
  StateUniverse universe_;
  std::vector<State> code_to_id_;
  std::vector<Output> outputs_;
  State initial_[2] = {0, 0};
};

}  // namespace popbean::zoo

// MaterializedView — a zoo runtime frozen into a TabulatedProtocol
// (DESIGN.md §11).
//
// The whole point of a programmatic protocol is *not* having an s² table —
// but the verification toolchain (inferred invariants over the
// stoichiometry matrix, exhaustive model checking, .pbp serialization,
// replayable counterexamples) wants exactly that table. Materialization
// evaluates δ over the runtime's closed universe once, producing a
// TabulatedProtocol with identical dense ids, outputs, names, and initial
// states — every verdict the verifier reaches about the view holds
// verbatim for the programmatic original, and the bit-exact equivalence of
// the two under every engine is itself a tested property (tests/zoo).
//
// The view keeps the member's name (zoo_name()); the registry spec of
// either form is "zoo:" + that name.
#pragma once

#include <string>
#include <utility>

#include "population/protocol.hpp"
#include "protocols/tabulated.hpp"
#include "zoo/code_protocol.hpp"
#include "zoo/runtime.hpp"

namespace popbean::zoo {

class MaterializedView {
 public:
  template <CodeProtocol Z>
  explicit MaterializedView(const Runtime<Z>& runtime)
      : table_(runtime),
        zoo_name_(runtime.member().name()) {}

  std::size_t num_states() const noexcept { return table_.num_states(); }

  State initial_state(Opinion opinion) const noexcept {
    return table_.initial_state(opinion);
  }

  Output output(State q) const noexcept { return table_.output(q); }

  Transition apply(State a, State b) const noexcept {
    return table_.apply(a, b);
  }

  std::string state_name(State q) const { return table_.state_name(q); }

  const std::string& zoo_name() const noexcept { return zoo_name_; }

  // The underlying table, for toolchain paths that want a plain
  // TabulatedProtocol (.pbp serialization, equality against re-parses).
  const TabulatedProtocol& table() const noexcept { return table_; }

 private:
  TabulatedProtocol table_;
  std::string zoo_name_;
};

static_assert(ProtocolLike<MaterializedView>);

template <CodeProtocol Z>
MaterializedView materialize(const Runtime<Z>& runtime) {
  return MaterializedView(runtime);
}

}  // namespace popbean::zoo

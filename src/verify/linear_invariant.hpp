// Linear invariants: weight vectors conserved by every transition.
//
// A weight vector w : Q → ℤ induces the configuration functional
// Φ(c) = Σ_q w(q)·c(q). Φ is conserved along *every* execution iff every
// ordered transition δ(a, b) = (a′, b′) satisfies
//
//     w(a′) + w(b′) = w(a) + w(b),
//
// a purely local, exhaustively checkable condition — s² equations, no
// simulation. Where faults::InvariantMonitor watches Φ along one run,
// check_conservation *proves* it for all runs at once (the paper's
// Invariant 4.3 is exactly the statement for w = value).
#pragma once

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "population/configuration.hpp"
#include "population/protocol.hpp"
#include "util/check.hpp"
#include "verify/finding.hpp"

namespace popbean::verify {

class LinearInvariant {
 public:
  LinearInvariant(std::string name, std::vector<std::int64_t> weights)
      : name_(std::move(name)), weights_(std::move(weights)) {
    POPBEAN_CHECK_MSG(!weights_.empty(), "invariant needs at least one state");
  }

  const std::string& name() const noexcept { return name_; }
  std::size_t num_states() const noexcept { return weights_.size(); }

  std::int64_t weight(State q) const {
    POPBEAN_CHECK(q < weights_.size());
    return weights_[q];
  }

  // Φ(c) = Σ_q w(q)·c(q).
  std::int64_t value(const Counts& counts) const {
    POPBEAN_CHECK(counts.size() == weights_.size());
    std::int64_t total = 0;
    for (State q = 0; q < weights_.size(); ++q) {
      total += weights_[q] * static_cast<std::int64_t>(counts[q]);
    }
    return total;
  }

  // Local conservation of one ordered transition.
  bool preserved_by(State a, State b, const Transition& t) const {
    return weight(t.initiator) + weight(t.responder) == weight(a) + weight(b);
  }

 private:
  std::string name_;
  std::vector<std::int64_t> weights_;
};

// Exhaustively checks w(a′)+w(b′) = w(a)+w(b) over all ordered pairs; adds
// one error finding per violating transition (check
// "invariant.conservation"), rendered as the offending reaction. Returns
// the number of violations. Requires a well-formed protocol whose state
// count matches the invariant's.
template <ProtocolLike P>
std::size_t check_conservation(const P& protocol,
                               const LinearInvariant& invariant,
                               Report& report) {
  POPBEAN_CHECK_MSG(invariant.num_states() == protocol.num_states(),
                    "invariant weight vector does not match the state space");
  const std::size_t s = protocol.num_states();
  std::size_t violations = 0;
  for (State a = 0; a < s; ++a) {
    for (State b = 0; b < s; ++b) {
      const Transition t = protocol.apply(a, b);
      if (invariant.preserved_by(a, b, t)) continue;
      ++violations;
      std::ostringstream os;
      os << "invariant '" << invariant.name() << "' broken by "
         << protocol.state_name(a) << " + " << protocol.state_name(b)
         << " -> " << protocol.state_name(t.initiator) << " + "
         << protocol.state_name(t.responder) << " (weight "
         << invariant.weight(a) + invariant.weight(b) << " -> "
         << invariant.weight(t.initiator) + invariant.weight(t.responder)
         << ")";
      report.error("invariant.conservation", os.str());
    }
  }
  return violations;
}

// --- Generic instances ------------------------------------------------------

// Σ_q c(q) = n: conserved by construction in the pairwise model (every
// interaction maps two agents to two agents), so any violation means the
// table encodes something other than a population protocol. Holds for every
// ProtocolLike by the shape of Transition; kept as the degenerate sanity
// instance (and the only linear invariant of the three-state protocol).
template <ProtocolLike P>
LinearInvariant agent_count_invariant(const P& protocol) {
  return LinearInvariant("agent count",
                         std::vector<std::int64_t>(protocol.num_states(), 1));
}

// The output-count difference Σ_{γ(q)=1} c(q) − Σ_{γ(q)=0} c(q). Almost no
// protocol conserves this — any transition that flips an agent's output
// moves it by ±2 (voter's (A,B)→(A,A) does exactly that) — so it serves as
// a deliberately-usually-broken instance for exercising the checker's
// violation reporting in tests and fixtures.
template <ProtocolLike P>
LinearInvariant output_balance_invariant(const P& protocol) {
  std::vector<std::int64_t> weights(protocol.num_states());
  for (State q = 0; q < protocol.num_states(); ++q) {
    weights[q] = protocol.output(q) == 1 ? +1 : -1;
  }
  return LinearInvariant("output balance", std::move(weights));
}

}  // namespace popbean::verify

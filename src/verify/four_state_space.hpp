// Machinery behind the paper's Ω(1/ε) lower bound for four-state exact
// majority (§5.1, Theorem B.1 and Claims B.2–B.9).
//
// The proof is a case analysis over *all* deterministic four-state
// algorithms. We reproduce its skeleton executably:
//
//  * `FourStateTable` — a candidate algorithm: an unordered-pair transition
//    table over states {S0, S1, X, Y} with the paper's WLOG output map
//    γ(S0) = γ(X) = 0, γ(S1) = γ(Y) = 1. It is a ProtocolLike (opinion A
//    starts in S1, opinion B in S0), so the generic verifier runs on it.
//  * `correct_up_to` — Theorem B.1's three correctness properties
//    (non-empty absorbing sets C_i, safety: a wrong commitment is
//    unreachable, liveness: a correct commitment stays reachable), decided
//    exactly per n by verify::model_check_population. At a fixed n they
//    hold iff every terminal component reachable from a non-tie split is
//    correct-stable: every reachable configuration reaches some terminal
//    component, and a terminal component is committed to the output it is
//    unanimous for, or to none.
//  * Claim B.8's structural test: does the table conserve #S0 − #S1?
//    (Such algorithms need Ω(1/ε) expected parallel time.)
//  * Claim B.9's potential test: is there a {±1, ±3} potential with S0, X
//    positive conserved by every interaction? (Such algorithms are incorrect.)
//
// The test suite enumerates candidate tables and checks the paper's
// conclusion empirically: every candidate that is correct for all small n
// conserves #S0 − #S1 — hence the Ω(1/ε) bound applies to it.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "population/protocol.hpp"

namespace popbean::fourstate {

// State ids within the abstract four-state space.
inline constexpr int kS0 = 0;
inline constexpr int kS1 = 1;
inline constexpr int kX = 2;
inline constexpr int kY = 3;

// γ from the paper's WLOG normal form (§5.1 after Claim B.2).
inline constexpr int output_of(int state) {
  return (state == kS1 || state == kY) ? 1 : 0;
}

// An unordered pair of states, canonicalized first <= second.
struct StatePair {
  std::uint8_t first = 0;
  std::uint8_t second = 0;

  static StatePair canonical(int a, int b);

  friend bool operator==(const StatePair&, const StatePair&) = default;
};

// Index of an unordered pair in [0, 10).
int pair_index(int a, int b);
StatePair pair_from_index(int index);

// A deterministic four-state algorithm: unordered pair -> unordered pair.
// (Per Claim B.5, for *correct* algorithms same-output pairs are fixed
// points; the constructor does not enforce this so that incorrect
// candidates can be represented and refuted.)
class FourStateTable {
 public:
  // Identity on every pair.
  FourStateTable();

  // Sets the reaction for the unordered pair {a, b}.
  void set(int a, int b, int result_a, int result_b);

  StatePair result(int a, int b) const;

  // The [DV12]/[MNRS14] protocol expressed in this normal form
  // (S0 = B-strong, S1 = A-strong, X = b-weak, Y = a-weak):
  //   [S0,S1] -> [X,Y], [S0,Y] -> [S0,X], [S1,X] -> [S1,Y].
  static FourStateTable dv12();

  // ProtocolLike. δ(a, b) is the unordered result; a pair the table leaves
  // unchanged keeps its order, so it reads as a null interaction.
  std::size_t num_states() const noexcept { return 4; }
  Transition apply(State a, State b) const;
  Output output(State q) const { return output_of(static_cast<int>(q)); }
  State initial_state(Opinion opinion) const noexcept {
    return static_cast<State>(opinion == Opinion::A ? kS1 : kS0);
  }
  std::string state_name(State q) const;

  // Claim B.8: every reaction conserves #S0 − #S1.
  bool conserves_strong_difference() const;

  // Claim B.9: some potential assignment from {±1, ±3} with S0, X positive
  // is conserved by every reaction. Returns the potential (indexed by
  // state) if one exists.
  std::optional<std::array<int, 4>> conserved_potential() const;

  std::string describe() const;

 private:
  std::array<StatePair, 10> table_;
};

static_assert(ProtocolLike<FourStateTable>);

// Does the candidate satisfy Theorem B.1's correctness properties for every
// population size in [2, max_n]? Checks n ascending and stops at the first
// n with a reachable wrong-stable or livelock component.
bool correct_up_to(const FourStateTable& table, std::uint32_t max_n);

}  // namespace popbean::fourstate

#include "verify/four_state_space.hpp"

#include <sstream>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "verify/linear_invariant.hpp"
#include "verify/model_check.hpp"

namespace popbean::fourstate {

namespace {

constexpr const char* kStateNames[4] = {"S0", "S1", "X", "Y"};

// Claims B.8 and B.9 are statements about every reaction, so all 16 ordered
// pairs are checked.
bool conserves(const FourStateTable& table,
               const verify::LinearInvariant& invariant) {
  for (State a = 0; a < 4; ++a) {
    for (State b = 0; b < 4; ++b) {
      if (!invariant.preserved_by(a, b, table.apply(a, b))) return false;
    }
  }
  return true;
}

}  // namespace

StatePair StatePair::canonical(int a, int b) {
  POPBEAN_CHECK(a >= 0 && a < 4 && b >= 0 && b < 4);
  if (a > b) std::swap(a, b);
  return {static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)};
}

int pair_index(int a, int b) {
  const StatePair p = StatePair::canonical(a, b);
  // Row-major over the upper triangle of a 4x4 grid (10 cells).
  static constexpr int kOffset[4] = {0, 4, 7, 9};
  return kOffset[p.first] + (p.second - p.first);
}

StatePair pair_from_index(int index) {
  POPBEAN_CHECK(index >= 0 && index < 10);
  for (int a = 0; a < 4; ++a) {
    for (int b = a; b < 4; ++b) {
      if (pair_index(a, b) == index) {
        return StatePair::canonical(a, b);
      }
    }
  }
  POPBEAN_CHECK_MSG(false, "unreachable");
  return {};
}

FourStateTable::FourStateTable() {
  for (int i = 0; i < 10; ++i) table_[static_cast<std::size_t>(i)] = pair_from_index(i);
}

void FourStateTable::set(int a, int b, int result_a, int result_b) {
  table_[static_cast<std::size_t>(pair_index(a, b))] =
      StatePair::canonical(result_a, result_b);
}

StatePair FourStateTable::result(int a, int b) const {
  return table_[static_cast<std::size_t>(pair_index(a, b))];
}

Transition FourStateTable::apply(State a, State b) const {
  const auto x = static_cast<int>(a);
  const auto y = static_cast<int>(b);
  const StatePair out = result(x, y);
  if (out == StatePair::canonical(x, y)) return {a, b};
  return {out.first, out.second};
}

std::string FourStateTable::state_name(State q) const {
  POPBEAN_CHECK(q < 4);
  return kStateNames[q];
}

FourStateTable FourStateTable::dv12() {
  FourStateTable t;
  t.set(kS0, kS1, kX, kY);
  t.set(kS0, kY, kS0, kX);
  t.set(kS1, kX, kS1, kY);
  return t;
}

bool FourStateTable::conserves_strong_difference() const {
  return conserves(*this, verify::LinearInvariant("#S0 - #S1", {1, -1, 0, 0}));
}

std::optional<std::array<int, 4>> FourStateTable::conserved_potential() const {
  // Claim B.9: potentials {−3, −1, 1, 3}, one per state, S0 and X positive.
  static constexpr std::array<std::array<int, 4>, 4> kAssignments = {{
      // {pot(S0), pot(S1), pot(X), pot(Y)}
      {{3, -3, 1, -1}},
      {{3, -1, 1, -3}},
      {{1, -3, 3, -1}},
      {{1, -1, 3, -3}},
  }};
  for (const auto& pot : kAssignments) {
    const verify::LinearInvariant potential(
        "potential", std::vector<std::int64_t>(pot.begin(), pot.end()));
    if (conserves(*this, potential)) return pot;
  }
  return std::nullopt;
}

std::string FourStateTable::describe() const {
  std::ostringstream os;
  for (int i = 0; i < 10; ++i) {
    const StatePair in = pair_from_index(i);
    const StatePair out = table_[static_cast<std::size_t>(i)];
    if (in == out) continue;
    os << "[" << kStateNames[in.first] << "," << kStateNames[in.second]
       << "]->[" << kStateNames[out.first] << "," << kStateNames[out.second]
       << "] ";
  }
  const std::string text = os.str();
  return text.empty() ? "identity" : text;
}

bool correct_up_to(const FourStateTable& table, std::uint32_t max_n) {
  verify::ModelCheckOptions options;
  options.max_counterexamples = 0;
  for (std::uint64_t n = 2; n <= max_n; ++n) {
    verify::Report report;
    verify::ModelCheckSummary summary;
    summary.fired.assign(16, false);
    std::vector<verify::Counterexample> counterexamples;
    const bool complete = verify::model_check_population(
        table, n, options, report, summary, counterexamples);
    POPBEAN_CHECK_MSG(complete, "configuration budget exhausted; keep n small");
    if (summary.wrong_stable != 0 || summary.livelocks != 0) return false;
  }
  return true;
}

}  // namespace popbean::fourstate

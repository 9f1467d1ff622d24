// Executable reproduction of the structure behind Theorem B.1 (Ω(1/ε) for
// four-state exact majority): every candidate four-state algorithm is run
// through the exhaustive model checker (verify/model_check.hpp), next to
// the paper's structural claims B.5, B.8 and B.9. The ConfigurationGraphTest
// cases exercise correct_up_to, verify::check_model and ExactChain on the
// four-state configuration graphs.
#include "verify/four_state_space.hpp"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/exact_markov.hpp"
#include "population/configuration.hpp"
#include "protocols/four_state.hpp"
#include "verify/model_check.hpp"

namespace popbean::fourstate {
namespace {

TEST(PairIndexTest, BijectiveOverTenUnorderedPairs) {
  std::vector<bool> seen(10, false);
  for (int a = 0; a < 4; ++a) {
    for (int b = a; b < 4; ++b) {
      const int index = pair_index(a, b);
      ASSERT_GE(index, 0);
      ASSERT_LT(index, 10);
      EXPECT_FALSE(seen[static_cast<std::size_t>(index)]);
      seen[static_cast<std::size_t>(index)] = true;
      EXPECT_EQ(pair_index(b, a), index);
      const StatePair round_trip = pair_from_index(index);
      EXPECT_EQ(round_trip, StatePair::canonical(a, b));
    }
  }
}

TEST(FourStateTableTest, DefaultIsIdentity) {
  FourStateTable table;
  for (int a = 0; a < 4; ++a) {
    for (int b = a; b < 4; ++b) {
      EXPECT_EQ(table.result(a, b), StatePair::canonical(a, b));
    }
  }
  EXPECT_EQ(table.describe(), "identity");
}

TEST(FourStateTableTest, Dv12ConservesStrongDifference) {
  EXPECT_TRUE(FourStateTable::dv12().conserves_strong_difference());
}

TEST(FourStateTableTest, Dv12HasNoConservedPotential) {
  // DV12 is correct, so by Claim B.9 it cannot conserve such a potential.
  EXPECT_FALSE(FourStateTable::dv12().conserved_potential().has_value());
}

TEST(FourStateTableTest, PotentialDetectedWhenPresent) {
  // Case 1.4.4 of the proof: [S0,S1]->[X,Y], [X,Y]->[S0,S1],
  // [S0,Y]->[X,X], [S1,X]->[Y,Y] conserves pot(S0)=3, pot(X)=1,
  // pot(S1)=-3, pot(Y)=-1.
  FourStateTable table;
  table.set(kS0, kS1, kX, kY);
  table.set(kX, kY, kS0, kS1);
  table.set(kS0, kY, kX, kX);
  table.set(kS1, kX, kY, kY);
  const auto pot = table.conserved_potential();
  ASSERT_TRUE(pot.has_value());
  EXPECT_GT((*pot)[kS0], 0);
  EXPECT_GT((*pot)[kX], 0);
  EXPECT_LT((*pot)[kS1], 0);
  EXPECT_LT((*pot)[kY], 0);
}

TEST(FourStateTableTest, Dv12IsTheSimulatedFourStateProtocol) {
  // S0 -> B, S1 -> A, X -> b, Y -> a: the normal form's DV12 is the
  // protocol the engines run (Fig. 3), not a lookalike.
  const State to_protocol[4] = {
      FourStateProtocol::kStrongB, FourStateProtocol::kStrongA,
      FourStateProtocol::kWeakB, FourStateProtocol::kWeakA};
  const FourStateTable dv12 = FourStateTable::dv12();
  const FourStateProtocol protocol;
  for (const Opinion opinion : {Opinion::A, Opinion::B}) {
    EXPECT_EQ(to_protocol[dv12.initial_state(opinion)],
              protocol.initial_state(opinion));
  }
  for (State a = 0; a < 4; ++a) {
    EXPECT_EQ(dv12.output(a), protocol.output(to_protocol[a]));
    for (State b = 0; b < 4; ++b) {
      const Transition t = dv12.apply(a, b);
      const Transition u = protocol.apply(to_protocol[a], to_protocol[b]);
      EXPECT_EQ((std::multiset<State>{to_protocol[t.initiator],
                                      to_protocol[t.responder]}),
                (std::multiset<State>{u.initiator, u.responder}))
          << dv12.state_name(a) << " + " << dv12.state_name(b);
    }
  }
  verify::ModelCheckOptions options;
  options.max_n = 8;
  verify::Report table_report;
  verify::Report protocol_report;
  const verify::ModelCheckSummary table =
      verify::check_model(dv12, table_report, options).summary;
  const verify::ModelCheckSummary simulated =
      verify::check_model(protocol, protocol_report, options).summary;
  EXPECT_EQ(table.searched_up_to, 8u);
  EXPECT_EQ(table.nodes, simulated.nodes);
  EXPECT_EQ(table.edges, simulated.edges);
  EXPECT_EQ(table.terminal_sccs, simulated.terminal_sccs);
}

TEST(ConfigurationGraphTest, EnumeratesAllConfigurations) {
  // C(4+3,3) = 35 compositions of 4 into 4 parts.
  EXPECT_EQ(ExactChain(FourStateTable::dv12(), 4).num_configs(), 35u);
}

TEST(ConfigurationGraphTest, Dv12IsCorrectForSmallPopulations) {
  EXPECT_TRUE(correct_up_to(FourStateTable::dv12(), 8));
}

TEST(ConfigurationGraphTest, IdentityAlgorithmIsIncorrect) {
  // The do-nothing algorithm can never converge from a mixed start: every
  // mixed initial split is its own terminal, mixed-output component.
  verify::ModelCheckOptions options;
  options.max_n = 3;
  verify::Report report;
  const auto summary = verify::check_model(FourStateTable(), report, options)
                           .summary;
  EXPECT_GT(summary.livelocks, 0u);
  EXPECT_EQ(summary.wrong_stable, 0u);
  EXPECT_FALSE(correct_up_to(FourStateTable(), 3));
}

TEST(ConfigurationGraphTest, VoterStyleAlgorithmIsIncorrect) {
  // [S0,S1] -> [S0,S0] immediately violates safety (can reach all-S0 from a
  // majority-S1 start). Cf. Corollary B.3.
  FourStateTable table;
  table.set(kS0, kS1, kS0, kS0);
  verify::ModelCheckOptions options;
  options.max_n = 3;
  verify::Report report;
  EXPECT_GT(verify::check_model(table, report, options).summary.wrong_stable,
            0u);
  EXPECT_FALSE(correct_up_to(table, 3));
}

TEST(ConfigurationGraphTest, ThreeStateStyleAlgorithmIsIncorrect) {
  // Collapse X and Y into one blank-like role: [S0,S1]->[X,X],
  // [S0,X]->[S0,S0], [S1,X]->[S1,S1] is the (incorrect for exactness)
  // three-state approximate protocol embedded in four states: it can
  // converge to the minority.
  FourStateTable table;
  table.set(kS0, kS1, kX, kX);
  table.set(kS0, kX, kS0, kS0);
  table.set(kS1, kX, kS1, kS1);
  EXPECT_FALSE(correct_up_to(table, 7));
}

TEST(ConfigurationGraphTest, CommittedSetsOfDv12AreMonochrome) {
  // Every terminal component reachable from a non-tie split is unanimous
  // for that split's majority, so the absorbing sets C_o are monochrome.
  verify::ModelCheckOptions options;
  options.max_n = 5;
  verify::Report report;
  const auto summary =
      verify::check_model(FourStateTable::dv12(), report, options).summary;
  EXPECT_EQ(summary.wrong_stable, 0u);
  EXPECT_EQ(summary.livelocks, 0u);
  // #S0 − #S1 is conserved, so each split has exactly one terminal
  // configuration: the surviving strong opinion with every weak agent.
  EXPECT_EQ(summary.correct_stable, summary.splits);
  EXPECT_EQ(report.count_check("model_check.certified"), 1u);
}

TEST(ConfigurationGraphTest, ReachabilityContainsStart) {
  const ExactChain chain(FourStateTable::dv12(), 5);
  const Counts start = {3, 2, 0, 0};
  const auto reach = chain.reachable_from(start);
  EXPECT_TRUE(reach[chain.index_of(start)]);
}

// --- The main event: exhaustive enumeration ---------------------------------
//
// Fix the six same-output pairs to identity (Claim B.5 proves correct
// algorithms must do this) and enumerate all 10^4 choices for the four
// cross-output pairs. The paper's conclusion, checked exhaustively: every
// candidate that satisfies the three correctness properties for all
// n <= 7 conserves #S0 - #S1 (Claim B.8) and therefore needs Ω(1/ε) time;
// none of them conserves a Claim B.9 potential.
TEST(FourStateEnumerationTest, AllCorrectCandidatesConserveStrongDifference) {
  const int cross_pairs[4][2] = {
      {kS0, kS1}, {kS0, kY}, {kS1, kX}, {kX, kY}};
  int correct_count = 0;
  int correct_without_invariant = 0;
  for (int r0 = 0; r0 < 10; ++r0) {
    for (int r1 = 0; r1 < 10; ++r1) {
      for (int r2 = 0; r2 < 10; ++r2) {
        for (int r3 = 0; r3 < 10; ++r3) {
          FourStateTable table;
          const int choice[4] = {r0, r1, r2, r3};
          for (int k = 0; k < 4; ++k) {
            const StatePair out = pair_from_index(choice[k]);
            table.set(cross_pairs[k][0], cross_pairs[k][1], out.first,
                      out.second);
          }
          // correct_up_to checks n ascending and rejects most candidates at
          // n = 2 or 3, keeping the 10^4-candidate sweep fast.
          if (!correct_up_to(table, 7)) continue;
          ++correct_count;
          if (!table.conserves_strong_difference()) {
            ++correct_without_invariant;
            ADD_FAILURE() << "correct candidate without the B.8 invariant: "
                          << table.describe();
          }
          EXPECT_FALSE(table.conserved_potential().has_value())
              << table.describe();
        }
      }
    }
  }
  EXPECT_EQ(correct_without_invariant, 0);
  // The proof's case analysis leaves a handful of correct families; DV12 is
  // one of the 18 survivors.
  EXPECT_EQ(correct_count, 18);
}

TEST(FourStateEnumerationTest, PerturbingSameOutputPairsBreaksDv12) {
  // Claim B.5 says correct algorithms leave same-output pairs unchanged (as
  // multisets). Check the claim's bite: every single-pair perturbation of
  // DV12's same-output pairs yields an incorrect algorithm.
  const int same_pairs[6][2] = {{kS0, kS0}, {kS0, kX}, {kX, kX},
                                {kS1, kS1}, {kS1, kY}, {kY, kY}};
  for (const auto& pair : same_pairs) {
    for (int r = 0; r < 10; ++r) {
      const StatePair out = pair_from_index(r);
      if (out == StatePair::canonical(pair[0], pair[1])) continue;
      FourStateTable table = FourStateTable::dv12();
      table.set(pair[0], pair[1], out.first, out.second);
      EXPECT_FALSE(correct_up_to(table, 9))
          << "perturbation survived: " << table.describe();
    }
  }
}

}  // namespace
}  // namespace popbean::fourstate

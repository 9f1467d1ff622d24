// Tests for the K-ary count tree. The FenwickPropertyTest suite name is kept
// from the binary-indexed tree this structure replaced, so those checks keep
// their test IDs.
#include "util/count_tree.hpp"

#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace popbean {
namespace {

using Weights = std::vector<std::uint64_t>;

// The definition of find_by_prefix: the smallest i whose prefix sum over
// [0, i] exceeds target.
std::size_t linear_find(const Weights& weights, std::uint64_t target) {
  std::size_t i = 0;
  while (target >= weights[i]) target -= weights[i++];
  return i;
}

std::uint64_t sum(const Weights& weights) {
  return std::accumulate(weights.begin(), weights.end(), std::uint64_t{0});
}

TEST(CountTreeTest, EmptyTreeHasZeroTotal) {
  const CountTree tree(Weights(8, 0));
  EXPECT_EQ(tree.size(), 8u);
  EXPECT_EQ(tree.total(), 0u);
  EXPECT_EQ(tree.weights(), Weights(8, 0));
}

TEST(CountTreeTest, BulkConstructionMatchesWeights) {
  // Nine weights: two level-0 groups, the second one partial.
  const Weights weights = {3, 0, 7, 1, 0, 5, 2, 9, 4};
  const CountTree tree(weights);
  EXPECT_EQ(tree.weights(), weights);
  EXPECT_EQ(tree.total(), sum(weights));
  for (std::uint64_t t = 0; t < tree.total(); ++t) {
    EXPECT_EQ(tree.find_by_prefix(t), linear_find(weights, t)) << "t " << t;
  }
}

TEST(CountTreeTest, AddUpdatesPointAndTotal) {
  CountTree tree(Weights(5, 0));
  tree.add(2, 10);
  tree.add(4, 3);
  tree.add(2, -4);
  EXPECT_EQ(tree.weights(), (Weights{0, 0, 6, 0, 3}));
  EXPECT_EQ(tree.total(), 9u);
  EXPECT_EQ(tree.find_by_prefix(5), 2u);
  EXPECT_EQ(tree.find_by_prefix(6), 4u);
  EXPECT_EQ(tree.find_by_prefix(8), 4u);
}

TEST(CountTreeTest, FindByPrefixLocatesEveryUnit) {
  const CountTree tree(Weights{2, 0, 3, 1});
  // Targets 0,1 -> index 0; 2,3,4 -> index 2; 5 -> index 3.
  EXPECT_EQ(tree.find_by_prefix(0), 0u);
  EXPECT_EQ(tree.find_by_prefix(1), 0u);
  EXPECT_EQ(tree.find_by_prefix(2), 2u);
  EXPECT_EQ(tree.find_by_prefix(3), 2u);
  EXPECT_EQ(tree.find_by_prefix(4), 2u);
  EXPECT_EQ(tree.find_by_prefix(5), 3u);
  // Both partners of one interaction, searched together.
  EXPECT_EQ(tree.find_pair(0, 5), (std::pair<std::size_t, std::size_t>{0, 3}));
  EXPECT_EQ(tree.find_pair(4, 4), (std::pair<std::size_t, std::size_t>{2, 2}));
}

TEST(CountTreeTest, FindByPrefixSkipsZeroWeightStates) {
  const CountTree tree(Weights{0, 0, 1, 0, 0});
  EXPECT_EQ(tree.find_by_prefix(0), 2u);
  // The same across a level boundary: one unit at the last of 4097 states.
  Weights last(4097, 0);
  last.back() = 1;
  EXPECT_EQ(CountTree(last).find_by_prefix(0), 4096u);
}

class FenwickPropertyTest : public ::testing::TestWithParam<std::size_t> {};
class CountTreePropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FenwickPropertyTest, RandomOperationsMatchNaiveModel) {
  const std::size_t size = GetParam();
  Xoshiro256ss rng(1000 + size);
  Weights model(size, 0);
  CountTree tree(model);
  for (int op = 0; op < 2000; ++op) {
    const auto i = static_cast<std::size_t>(rng.below(size));
    // Random delta keeping the weight non-negative.
    const std::int64_t delta =
        model[i] > 0 && rng.bernoulli(0.4)
            ? -static_cast<std::int64_t>(rng.below(model[i]) + 1)
            : static_cast<std::int64_t>(rng.below(10));
    model[i] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(model[i]) + delta);
    tree.add(i, delta);

    ASSERT_EQ(tree.weights()[i], model[i]);
    ASSERT_EQ(tree.total(), sum(model));
    if (tree.total() == 0) continue;
    const std::uint64_t target = rng.below(tree.total());
    ASSERT_EQ(tree.find_by_prefix(target), linear_find(model, target))
        << "op " << op << ", target " << target;
  }
  EXPECT_EQ(tree.weights(), model);
}

TEST_P(FenwickPropertyTest, SamplingFrequenciesMatchWeights) {
  const std::size_t size = GetParam();
  Xoshiro256ss rng(2000 + size);
  Weights weights(size);
  for (auto& w : weights) w = rng.below(20);
  weights[0] += 1;  // ensure positive total
  const CountTree tree(weights);

  constexpr int kDraws = 50000;
  std::vector<std::uint64_t> hits(size, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++hits[tree.find_by_prefix(rng.below(tree.total()))];
  }
  const auto total = static_cast<double>(tree.total());
  for (std::size_t i = 0; i < size; ++i) {
    const double expected = kDraws * static_cast<double>(weights[i]) / total;
    if (weights[i] == 0) {
      EXPECT_EQ(hits[i], 0u);
    } else {
      EXPECT_NEAR(static_cast<double>(hits[i]), expected,
                  5.0 * std::sqrt(expected) + 5.0);
    }
  }
}

// find_pair is two find_by_prefix calls, on sparse weights (many zero
// states, as in a run of the n-state AVC) and after every update.
TEST_P(CountTreePropertyTest, FindPairEqualsTwoSingleSearches) {
  const std::size_t size = GetParam();
  Xoshiro256ss rng(3000 + size);
  Weights weights(size, 0);
  for (std::size_t k = 0; k < size; k += 1 + rng.below(4)) {
    weights[k] = rng.below(5);
  }
  weights[rng.below(size)] += 1;  // ensure positive total
  CountTree tree(weights);
  for (int op = 0; op < 2000; ++op) {
    const std::uint64_t t0 = rng.below(tree.total());
    const std::uint64_t t1 = rng.below(tree.total());
    const auto [i, j] = tree.find_pair(t0, t1);
    ASSERT_EQ(i, tree.find_by_prefix(t0)) << "op " << op << ", t0 " << t0;
    ASSERT_EQ(j, tree.find_by_prefix(t1)) << "op " << op << ", t1 " << t1;
    // Move one unit out of the first pick, as an interaction does.
    const auto to = static_cast<std::size_t>(rng.below(size));
    tree.add(i, -1);
    tree.add(to, +1);
  }
}

// Sizes on both sides of each level boundary (8, 64, 512, 4096 entries)
// and with partial last groups.
const auto kSizes = ::testing::Values(1, 2, 3, 7, 8, 9, 17, 63, 64, 65, 100,
                                      255, 513, 4097);
INSTANTIATE_TEST_SUITE_P(Sizes, FenwickPropertyTest, kSizes);
INSTANTIATE_TEST_SUITE_P(Sizes, CountTreePropertyTest, kSizes);

}  // namespace
}  // namespace popbean

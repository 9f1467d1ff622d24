// K-ary prefix-count tree over non-negative integer weights, with
// O(log_K n) point update and weighted sampling by prefix search.
//
// The count-based simulation engine keeps one weight per protocol state
// (the number of agents currently in that state) and samples both
// interaction partners proportionally to the counts. For the paper's
// Figure 3 "n-state AVC" s ≈ n = 10^5, so the search is the hot loop. A
// binary tree reads one cache line per level, 17 levels at s = 10^5; with
// K = 8 sums per 64-byte node a search reads 6 nodes and scans each left
// to right.
//
// Layout: level 0 is the weight vector itself (weights()). Entry j of level
// l ≥ 1 is the sum of entries [jK, jK + K) of level l − 1; the top level has
// at most K entries, i.e. one node. The upper levels share one allocation,
// each starting on a 64-byte boundary so that every node is one line. (A
// copied tree keeps its offsets, so its nodes may straddle lines; the
// searches stay exact.)
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace popbean {

class CountTree {
 public:
  static constexpr std::size_t kFanout = 8;

  CountTree() = default;

  // Builds in O(n) from initial weights.
  explicit CountTree(std::vector<std::uint64_t> weights)
      : weights_(std::move(weights)) {
    std::size_t entries = 0;
    for (std::size_t width = weights_.size(); width > kFanout;) {
      width = groups(width);
      POPBEAN_CHECK(levels_ < offset_.size());
      offset_[levels_++] = entries;
      entries += groups(width) * kFanout;
    }
    if (levels_ > 0) {
      // kFanout − 1 spare entries let the first level start on a line. An
      // over-aligned element type would do the same through aligned new,
      // which in glibc's per-thread arenas raised a 4-thread fig3 pass's
      // peak RSS from 40 to 69 MB.
      upper_.resize(entries + kFanout - 1);
      const auto address = reinterpret_cast<std::uintptr_t>(upper_.data());
      const std::size_t skip =
          (kLine - address % kLine) % kLine / sizeof(std::uint64_t);
      for (std::size_t l = 0; l < levels_; ++l) offset_[l] += skip;
      for (std::size_t j = 0; j < weights_.size(); ++j) {
        entry(0, j / kFanout) += weights_[j];
      }
    }
    std::size_t width = weights_.size();
    for (std::size_t l = 1; l < levels_; ++l) {
      width = groups(width);
      for (std::size_t j = 0; j < width; ++j) {
        entry(l, j / kFanout) += entry(l - 1, j);
      }
    }
    for (const std::uint64_t w : weights_) total_ += w;
  }

  // Level 0: the weight at every index.
  const std::vector<std::uint64_t>& weights() const noexcept {
    return weights_;
  }

  std::size_t size() const noexcept { return weights_.size(); }

  std::uint64_t total() const noexcept { return total_; }

  // Adds delta (may be negative) to the weight at index i.
  void add(std::size_t i, std::int64_t delta) {
    POPBEAN_DCHECK(i < size());
    // Unsigned wrap-around adds a negative delta exactly.
    const auto d = static_cast<std::uint64_t>(delta);
    weights_[i] += d;
    for (std::size_t l = 0; l < levels_; ++l) {
      i /= kFanout;
      entry(l, i) += d;
    }
    total_ += d;
  }

  // Returns the smallest index i such that the weights at [0, i] sum to more
  // than target. For target drawn uniformly from [0, total()), this samples
  // index i with probability weight(i) / total(). Requires target < total().
  std::size_t find_by_prefix(std::uint64_t target) const {
    POPBEAN_DCHECK(target < total_);
    std::size_t node = 0;
    for (std::size_t l = levels_; l > 0; --l) {
      node = node * kFanout + pick(node_at(l - 1, node), target);
    }
    return node * kFanout + pick(weights_.data() + node * kFanout, target);
  }

  // {find_by_prefix(t0), find_by_prefix(t1)}, with the two descents
  // interleaved level by level: the second node's load is issued before the
  // first node's scan, so the two cache misses of a level overlap.
  std::pair<std::size_t, std::size_t> find_pair(std::uint64_t t0,
                                                std::uint64_t t1) const {
    POPBEAN_DCHECK(t0 < total_ && t1 < total_);
    std::size_t n0 = 0;
    std::size_t n1 = 0;
    for (std::size_t l = levels_; l > 0; --l) {
      const std::uint64_t* second = node_at(l - 1, n1);
      __builtin_prefetch(second);
      const std::size_t k0 = pick(node_at(l - 1, n0), t0);
      const std::size_t k1 = pick(second, t1);
      n0 = n0 * kFanout + k0;
      n1 = n1 * kFanout + k1;
    }
    const std::uint64_t* second = weights_.data() + n1 * kFanout;
    __builtin_prefetch(second);
    const std::size_t k0 = pick(weights_.data() + n0 * kFanout, t0);
    const std::size_t k1 = pick(second, t1);
    return {n0 * kFanout + k0, n1 * kFanout + k1};
  }

 private:
  static constexpr std::size_t kLine = kFanout * sizeof(std::uint64_t);

  static constexpr std::size_t groups(std::size_t width) noexcept {
    return (width + kFanout - 1) / kFanout;
  }

  // Entry j of upper level l + 1, and the node of its children's sums.
  std::uint64_t& entry(std::size_t l, std::size_t j) noexcept {
    return upper_[offset_[l] + j];
  }
  const std::uint64_t* node_at(std::size_t l, std::size_t node) const noexcept {
    return upper_.data() + offset_[l] + node * kFanout;
  }

  // Index of the first of a node's entries whose running sum exceeds
  // target, which is left relative to that entry. The node's entries sum to
  // more than target, so the scan stops inside the node's live entries.
  static std::size_t pick(const std::uint64_t* entries,
                          std::uint64_t& target) noexcept {
    std::size_t k = 0;
    while (target >= entries[k]) target -= entries[k++];
    return k;
  }

  std::vector<std::uint64_t> weights_;
  std::vector<std::uint64_t> upper_;
  // Where each upper level starts in upper_; 22 levels of fan-out 8 cover
  // any 64-bit size.
  std::array<std::size_t, 22> offset_{};
  std::size_t levels_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace popbean

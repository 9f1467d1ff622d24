// Null-step-skipping engine (jump-chain simulation) for the complete graph.
//
// For protocols with few states, most late-run interactions are null: they
// pick a pair whose transition changes nothing. The paper's Figure 3 runs
// the four-state protocol at ε = 1/n with n = 10^5, which needs ~10^11 raw
// interactions but only ~10^6 *productive* ones. This engine samples the
// embedded chain exactly:
//
//   1. With W = Σ over reactive ordered state pairs (i, j) of c_i·(c_j − [i=j])
//      and T = n(n−1) total ordered agent pairs, the number of null
//      interactions before the next productive one is Geometric(W / T).
//   2. The productive pair is then (i, j) with probability ∝ its weight.
//
// Both facts follow from interactions being i.i.d. uniform over ordered
// agent pairs, so the simulated distribution over (configuration trajectory,
// interaction counts) is identical to direct simulation — verified by
// distribution-equivalence tests against AgentEngine/CountEngine.
//
// Cost per productive interaction: O(√s + L) for the pair draw, one δ call
// for the drawn pair and O(L) per count change, where L is the length of the
// exception lists below; memory is s² reactivity bytes (kMaxStates bounds s).
//
// The derived state that makes this cheap (all exact integers):
//
//   * Per-column lists. Column q (responder state q) keeps the shorter of
//     its reactive-initiator and null-initiator lists. Let R_i be row i's
//     responder sum Σ_j [i × j reactive]·c_j and r(i,i) = [i × i reactive].
//     With D = Σ c_q over the "dense" columns (those listing their null
//     rows), R_i − r(i,i) = D + E_i and row i weighs c_i·(D + E_i); a change
//     to c_q walks only column q's list to patch E_i. AVC has ~96% reactive
//     pairs, so L ≈ 0.04·s.
//   * The running weight W. Changing c_q by δ changes W by
//     δ(C_q + R_q) + (δ² − δ)·r(q,q) = δ(C_q + D + E_q) + δ²·r(q,q), where
//     C_q is column q's reactive sum, from the same list walk and against
//     the live agent total (n − 1 in the middle of a step).
//   * Blocks of B ≈ √s states (a power of two derived from s). Each block
//     keeps its agent count and Σ c_i·E_i, so its row weight is O(1): the
//     initiator is found block first, then row. The responder is found the
//     same way; row i's sum over a block is the block count minus its null
//     entries there (or the sum of its reactive ones, whichever list is
//     shorter). Protocols with s ≤ 16 use one block, i.e. plain row and
//     column scans.
//
// The draw consumes the same RNG values and picks the same (initiator,
// responder) pair as a linear scan over rows and columns in state order, so
// seeded trajectories do not depend on the block layout. All of the derived
// state is a function of the counts, so an engine built from another's
// counts() continues its trajectory on the same rng stream.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "obs/probe.hpp"
#include "population/configuration.hpp"
#include "population/engine_core.hpp"
#include "population/protocol.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace popbean {

template <ProtocolLike P>
class SkipEngine : public EngineCore<P> {
 public:
  // Largest supported state count; the reactivity table is s² bytes.
  static constexpr std::size_t kMaxStates = 1024;

  SkipEngine(P protocol, const Counts& counts)
      : EngineCore<P>(std::move(protocol), counts),
        num_states_(protocol_.num_states()),
        counts_(counts) {
    POPBEAN_CHECK_MSG(num_states_ <= kMaxStates,
                      "SkipEngine keeps s^2 reactivity bytes; use "
                      "CountEngine for protocols with many states");

    reactive_.resize(num_states_ * num_states_);
    for (State a = 0; a < num_states_; ++a) {
      for (State b = 0; b < num_states_; ++b) {
        reactive_[cell(a, b)] = !is_null(protocol_.apply(a, b), a, b);
      }
    }

    // Blocks of 2^block_shift_ = bit_ceil(⌈√s⌉) states; s ≤ 16 is one block.
    const auto root = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(num_states_))));
    block_shift_ = static_cast<std::size_t>(
        std::bit_width(num_states_ <= 16 ? num_states_ : root - 1));
    num_blocks_ = ((num_states_ - 1) >> block_shift_) + 1;

    // Column q lists the rows i of its minority kind of cell (i, q).
    columns_.spans.reserve(num_states_);
    for (State q = 0; q < num_states_; ++q) {
      columns_.add(0, static_cast<State>(num_states_),
                   [&](State i) { return reactive_[cell(i, q)] != 0; });
    }
    // Segment (i, b) lists the columns j in block b of its minority kind of
    // cell (i, j); only the blocked search reads them.
    if (num_blocks_ > 1) {
      segments_.spans.reserve(num_states_ * num_blocks_);
      for (State i = 0; i < num_states_; ++i) {
        for (std::size_t b = 0; b < num_blocks_; ++b) {
          segments_.add(block_first(b), block_first(b + 1),
                        [&](State j) { return reactive_[cell(i, j)] != 0; });
        }
      }
    }
    rebuild();
  }

  const Counts& counts() const noexcept { return counts_; }

  // Attaches an interaction probe (src/obs); pass nullptr to detach. The
  // probe must outlive the engine or be detached first. Skipped null runs
  // are bulk-recorded, so the probe's interaction total still matches
  // steps(). Recording compiles out entirely when POPBEAN_OBS_ENABLED=0.
  void attach_probe(obs::EngineProbe* probe) noexcept {
    probe_ = probe;
    POPBEAN_OBS_HOOK(if (probe_ != nullptr && kind_table_.empty()) {
      kind_table_.resize(num_states_ * num_states_, obs::ReactionKind::kNull);
      for (State a = 0; a < num_states_; ++a) {
        for (State b = 0; b < num_states_; ++b) {
          if (reactive_[cell(a, b)]) {
            kind_table_[cell(a, b)] =
                obs::classify_interaction(protocol_, a, b);
          }
        }
      }
    })
  }

  // True once no productive interaction is possible (the configuration is
  // absorbing); step() becomes a no-op.
  bool absorbing() const noexcept { return absorbing_; }

  // Total weight of productive ordered agent pairs in the current
  // configuration (0 ⇔ absorbing).
  std::uint64_t reactive_weight() const noexcept { return weight_; }

  // Advances time past the pending run of null interactions and executes the
  // next productive interaction (or marks the configuration absorbing). When
  // that interaction would land past `max_steps`, time stops at max_steps
  // instead and the configuration is left as it is: every interaction up to
  // there is null, so the stop is exact. Requires steps() < max_steps.
  void step(Xoshiro256ss& rng, std::uint64_t max_steps =
                                    std::numeric_limits<std::uint64_t>::max()) {
    if (absorbing_) return;
    POPBEAN_DCHECK(weight_ == summed_row_weights());
    if (weight_ == 0) {
      absorbing_ = true;
      return;
    }
    const double total_pairs = static_cast<double>(num_agents_) *
                               static_cast<double>(num_agents_ - 1);
    const double p = static_cast<double>(weight_) / total_pairs;
    const std::uint64_t skipped = rng.geometric_failures(p);
    if (skipped >= max_steps - steps_) {
      POPBEAN_OBS_HOOK(if (probe_ != nullptr) {
        probe_->record_nulls(max_steps - steps_);
      })
      steps_ = max_steps;
      return;
    }
    steps_ += skipped + 1;
    POPBEAN_OBS_HOOK(
        if (probe_ != nullptr) { probe_->record_nulls(skipped); })

    // Pick the productive ordered pair ∝ c_i · (c_j − [i = j]): the first
    // row, then the first column, whose running weight passes the target.
    std::uint64_t target = rng.below(weight_);
    State i = 0;
    if (num_blocks_ > 1) {
      i = block_first(first_passing<std::size_t>(
          target, [&](std::size_t b) { return block_weight(b); }));
    }
    i += first_passing<State>(target,
                              [&](State k) { return row_weight(i + k); });
    POPBEAN_DCHECK(i < num_states_ && counts_[i] > 0);
    POPBEAN_DCHECK(row_offset(i) + (reactive_[cell(i, i)] ? 1U : 0U) ==
                   reactive_sum(i));
    target /= counts_[i];  // responder choice repeats identically per initiator
    State j = 0;
    if (num_blocks_ > 1) {
      j = block_first(first_passing<std::size_t>(
          target, [&](std::size_t b) { return segment_weight(i, b); }));
    }
    j += first_passing<State>(target, [&](State k) -> std::uint64_t {
      const State c = j + k;
      return reactive_[cell(i, c)] ? counts_[c] - (i == c ? 1 : 0) : 0;
    });
    POPBEAN_DCHECK(j < num_states_ && reactive_[cell(i, j)]);

    const Transition t = protocol_.apply(i, j);
    if (t.initiator != i) {
      adjust(i, -1);
      adjust(t.initiator, +1);
      move(i, t.initiator);
    }
    if (t.responder != j) {
      adjust(j, -1);
      adjust(t.responder, +1);
      move(j, t.responder);
    }
    POPBEAN_OBS_HOOK(
        if (probe_ != nullptr) { probe_->record(kind_table_[cell(i, j)]); })
  }

 private:
  using EngineCore<P>::move;
  using EngineCore<P>::num_agents_;
  using EngineCore<P>::protocol_;
  using EngineCore<P>::steps_;

  std::size_t cell(State a, State b) const noexcept {
    return static_cast<std::size_t>(a) * num_states_ + b;
  }

  // The first k whose running sum weight(0) + … + weight(k) exceeds
  // `target`, which is left reduced by the weights before it.
  template <typename Index, typename Weight>
  static Index first_passing(std::uint64_t& target, Weight weight) {
    for (Index k = 0;; ++k) {
      const std::uint64_t w = weight(k);
      if (target < w) return k;
      target -= w;
    }
  }

  State block_first(std::size_t b) const noexcept {
    return static_cast<State>(std::min(b << block_shift_, num_states_));
  }

  // R_i − r(i,i) = D + E_i: the responder sum of row i less its self-pair.
  std::uint64_t row_offset(State i) const noexcept {
    return static_cast<std::uint64_t>(dense_sum_ + row_extra_[i]);
  }

  // Weight of productive ordered pairs whose initiator has state i.
  std::uint64_t row_weight(State i) const noexcept {
    return counts_[i] * row_offset(i);
  }

  // Sum of row_weight over block b.
  std::uint64_t block_weight(std::size_t b) const noexcept {
    return static_cast<std::uint64_t>(
        dense_sum_ * static_cast<std::int64_t>(block_count_[b]) +
        block_extra_[b]);
  }

  // Responder weight Σ c_j − [i = j] over the reactive columns j of row i
  // inside block b.
  std::uint64_t segment_weight(State i, std::size_t b) const noexcept {
    const auto span = segments_.spans[i * num_blocks_ + b];
    std::uint64_t listed = 0;
    for (std::uint32_t k = span.begin; k < span.end; ++k) {
      listed += counts_[segments_.items[k]];
    }
    std::uint64_t w = span.dense ? block_count_[b] - listed : listed;
    if ((i >> block_shift_) == b && reactive_[cell(i, i)]) --w;
    return w;
  }

  // Moves c_q by delta and patches every derived quantity: the walk over
  // column q's list updates E_i (and its block's Σ c_i·E_i) for the listed
  // rows and sums their counts into C_q; W then moves by
  // δ(C_q + D + E_q) + δ²·r(q,q), all taken before c_q changes.
  void adjust(State q, std::int64_t delta) {
    const auto column = columns_.spans[q];
    const bool dense = column.dense;
    const std::int64_t shift = dense ? -delta : delta;
    const bool blocked = num_blocks_ > 1;
    const std::int64_t offset_q = dense_sum_ + row_extra_[q];
    std::uint64_t listed = 0;
    for (std::uint32_t k = column.begin; k < column.end; ++k) {
      const State i = columns_.items[k];
      listed += counts_[i];
      row_extra_[i] += shift;
      if (blocked) {
        block_extra_[i >> block_shift_] +=
            shift * static_cast<std::int64_t>(counts_[i]);
      }
    }
    const std::uint64_t column_sum = dense ? live_agents_ - listed : listed;
    weight_ += static_cast<std::uint64_t>(
        delta * (static_cast<std::int64_t>(column_sum) + offset_q) +
        delta * delta * reactive_[cell(q, q)]);
    if (dense) dense_sum_ += delta;
    counts_[q] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(counts_[q]) + delta);
    live_agents_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(live_agents_) + delta);
    if (blocked) {
      const std::size_t b = q >> block_shift_;
      block_count_[b] = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(block_count_[b]) + delta);
      block_extra_[b] += delta * row_extra_[q];  // c_q·E_q with the new E_q
    }
  }

  // Recomputes the count-dependent derived state from counts_.
  void rebuild() {
    live_agents_ = num_agents_;
    dense_sum_ = 0;
    row_extra_.assign(num_states_, 0);
    for (State q = 0; q < num_states_; ++q) {
      const auto c = static_cast<std::int64_t>(counts_[q]);
      const auto column = columns_.spans[q];
      if (column.dense) dense_sum_ += c;
      row_extra_[q] -= reactive_[cell(q, q)];
      for (std::uint32_t k = column.begin; k < column.end; ++k) {
        row_extra_[columns_.items[k]] += column.dense ? -c : c;
      }
    }
    weight_ = summed_row_weights();
    block_count_.assign(num_blocks_, 0);
    block_extra_.assign(num_blocks_, 0);
    for (State q = 0; q < num_states_; ++q) {
      block_count_[q >> block_shift_] += counts_[q];
      block_extra_[q >> block_shift_] +=
          static_cast<std::int64_t>(counts_[q]) * row_extra_[q];
    }
  }

  std::uint64_t summed_row_weights() const noexcept {
    std::uint64_t total = 0;
    for (State i = 0; i < num_states_; ++i) total += row_weight(i);
    return total;
  }

  // R_i straight from the reactivity table (debug cross-check).
  std::uint64_t reactive_sum(State i) const noexcept {
    std::uint64_t total = 0;
    for (State j = 0; j < num_states_; ++j) {
      if (reactive_[cell(i, j)]) total += counts_[j];
    }
    return total;
  }

  std::size_t num_states_;
  Counts counts_;
  std::vector<char> reactive_;
  obs::EngineProbe* probe_ = nullptr;
  std::vector<obs::ReactionKind> kind_table_;  // built lazily by attach_probe

  // Exception lists: list k is items[spans[k].begin, spans[k].end) and
  // holds the null cells of a range that is mostly reactive (spans[k].dense)
  // or else its reactive cells, so a walk costs at most half the range.
  struct ExceptionLists {
    struct Span {
      std::uint32_t begin = 0;
      std::uint32_t end = 0;
      bool dense = false;
    };
    std::vector<Span> spans;
    std::vector<State> items;

    template <typename IsReactive>
    void add(State first, State last, IsReactive reactive_at) {
      std::size_t reactive = 0;
      for (State k = first; k < last; ++k) {
        if (reactive_at(k)) ++reactive;
      }
      Span span;
      span.begin = static_cast<std::uint32_t>(items.size());
      span.dense = 2 * reactive > last - first;
      for (State k = first; k < last; ++k) {
        if (reactive_at(k) != span.dense) items.push_back(k);
      }
      span.end = static_cast<std::uint32_t>(items.size());
      spans.push_back(span);
    }
  };

  // Count-independent layout, fixed at construction.
  std::size_t block_shift_ = 0;
  std::size_t num_blocks_ = 1;
  ExceptionLists columns_;   // one list per responder state
  ExceptionLists segments_;  // one list per (row, block), when blocked

  // Count-dependent bookkeeping, rebuilt by rebuild().
  std::int64_t dense_sum_ = 0;             // D
  std::vector<std::int64_t> row_extra_;    // E_i
  std::vector<std::uint64_t> block_count_;
  std::vector<std::int64_t> block_extra_;  // Σ c_i·E_i per block
  std::uint64_t live_agents_ = 0;          // n, or n − 1 mid-adjustment
  std::uint64_t weight_ = 0;               // W

  bool absorbing_ = false;
};

}  // namespace popbean

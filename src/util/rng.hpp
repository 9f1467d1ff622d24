// Deterministic, platform-independent pseudo-random number generation.
//
// All stochastic behaviour in popbean flows through Xoshiro256ss seeded via
// splitmix64, so a run is fully reproducible from a (seed, stream) pair.
// We deliberately avoid <random> distributions: their output is
// implementation-defined, which would make recorded experiment results
// non-portable across standard libraries.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/check.hpp"

namespace popbean {

// SplitMix64 (Steele, Lea, Flood 2014). Used for seeding and for hashing
// (seed, stream) pairs into independent generator states.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Mixes a base seed and a stream index into a single 64-bit seed, so that
// replicate r of experiment e gets an independent, reproducible stream.
constexpr std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  std::uint64_t s = seed;
  std::uint64_t a = splitmix64(s);
  s ^= stream * 0xda942042e4dd58b5ULL;
  std::uint64_t b = splitmix64(s);
  return a ^ (b + 0x9e3779b97f4a7c15ULL);
}

// xoshiro256** 1.0 (Blackman & Vigna 2018). Fast, 256-bit state, passes
// BigCrush; the authors' recommended all-purpose generator.
class Xoshiro256ss {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256ss(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  Xoshiro256ss(std::uint64_t seed, std::uint64_t stream) noexcept
      : Xoshiro256ss(mix_seed(seed, stream)) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound) via Lemire's multiply-shift rejection
  // method — unbiased and branch-light.
  std::uint64_t below(std::uint64_t bound) noexcept {
    POPBEAN_DCHECK(bound > 0);
    // 128-bit multiply; GCC/Clang extension, hence the __extension__ marker.
    __extension__ using uint128 = unsigned __int128;
    uint128 product = static_cast<uint128>((*this)()) * bound;
    auto low = static_cast<std::uint64_t>(product);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        product = static_cast<uint128>((*this)()) * bound;
        low = static_cast<std::uint64_t>(product);
      }
    }
    return static_cast<std::uint64_t>(product >> 64);
  }

  // Uniform double in [0, 1) with 53 random bits.
  double unit() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  // Uniform double in (0, 1] — safe as a log() argument.
  double unit_positive() noexcept {
    return (static_cast<double>((*this)() >> 11) + 1.0) * 0x1.0p-53;
  }

  // Exponential with the given rate (mean 1/rate).
  double exponential(double rate) noexcept {
    POPBEAN_DCHECK(rate > 0.0);
    return -std::log(unit_positive()) / rate;
  }

  // Number of failures before the first success for success probability p,
  // i.e. the Geometric(p) distribution supported on {0, 1, 2, ...}.
  // Used by the skip engine to count null interactions between reactions.
  std::uint64_t geometric_failures(double p) noexcept {
    POPBEAN_DCHECK(p > 0.0 && p <= 1.0);
    if (p >= 1.0) return 0;
    const double draws = std::floor(std::log(unit_positive()) / std::log1p(-p));
    // Guard against pathological p ~ 0 producing values beyond uint64 range.
    constexpr double kMax = 9.2e18;
    return draws >= kMax ? static_cast<std::uint64_t>(kMax)
                         : static_cast<std::uint64_t>(draws);
  }

  // True with probability p.
  bool bernoulli(double p) noexcept { return unit() < p; }

  // Derives an independent child generator from the current state and a
  // stream id WITHOUT advancing this generator. Deterministic: the same
  // (state, stream_id) pair always yields the same child, distinct stream
  // ids yield decorrelated streams (the state words are folded through
  // splitmix64 before mixing in the id). This is how composed components
  // (simulation engine vs fault model vs scheduler) obtain private streams
  // from one root: a component drawing from its split — or not existing at
  // all — can never perturb a sibling's sequence.
  Xoshiro256ss split(std::uint64_t stream_id) const noexcept {
    std::uint64_t s = state_[0];
    std::uint64_t folded = splitmix64(s);
    s ^= rotl(state_[1], 13);
    folded ^= splitmix64(s);
    s ^= rotl(state_[2], 29);
    folded ^= splitmix64(s);
    s ^= rotl(state_[3], 43);
    folded ^= splitmix64(s);
    return Xoshiro256ss(mix_seed(folded, stream_id));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

}  // namespace popbean

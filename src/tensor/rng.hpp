// Deterministic random number generation. Every experiment object owns an
// Rng derived from (experiment seed, component tag) so runs are exactly
// reproducible and components draw decorrelated streams.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/common.hpp"

namespace ckv {

/// MT19937-64 (Matsumoto & Nishimura): the same seeding, twist and
/// tempering as std::mt19937_64, so it yields that engine's exact output
/// sequence. The state is refilled one 312-word block at a time and
/// tempered on output. Satisfies UniformRandomBitGenerator.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateWords = 312;

  explicit Mt19937_64(result_type seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (index_ == kStateWords) {
      refill();
    }
    result_type z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  void refill() noexcept;

  std::array<result_type, kStateWords> state_;
  std::size_t index_ = kStateWords;
};

namespace detail {

/// libstdc++'s generate_canonical<double, 53> for one 64-bit draw: the
/// draw divided by 2^64, clamped to the largest double below 1 (the top
/// 1024 draws round to 2^64 and would give 1). The two 32-bit halves
/// convert to double exactly and their sum rounds once, so it equals the
/// direct u64 -> double conversion without that conversion's sign branch.
inline double canonical(std::uint64_t draw) noexcept {
  constexpr double kBelowOne = 0x1.fffffffffffffp-1;
  const double d =
      static_cast<double>(static_cast<std::int64_t>(draw >> 32)) * 0x1p32 +
      static_cast<double>(static_cast<std::int64_t>(draw & 0xffffffffULL));
  const double r = d * 0x1p-64;
  return r < kBelowOne ? r : kBelowOne;
}

}  // namespace detail

/// Seeded generator with the sampling helpers the reproduction needs
/// (Gaussian fills, unit directions, permutations). Every method draws
/// exactly what libstdc++'s std::mt19937_64 with the matching std::
/// distribution (or std::shuffle) draws, one fresh distribution per call,
/// and returns the same values; the streams no longer depend on the
/// standard library the repo is built with.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_(seed), seed_(seed) {}

  /// Child generator with an independent, reproducible stream derived from
  /// this generator's seed and the tag (not from consumed state).
  [[nodiscard]] Rng fork(std::string_view tag) const;

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  Index uniform_int(Index lo, Index hi);

  /// Standard normal sample.
  double normal();

  /// Normal sample with the given mean / standard deviation. A zero
  /// standard deviation returns the mean and draws nothing.
  double normal(double mean, double stddev);

  /// Fills the span with i.i.d. normal(mean, stddev) samples: the same
  /// values, and the same generator state afterwards, as out.size()
  /// sequential normal(mean, stddev) calls, at about half the cost.
  void normals(std::span<double> out, double mean, double stddev);

  /// Fills the span with i.i.d. normal(mean, stddev) samples.
  void fill_normal(std::span<float> out, double mean, double stddev);

  /// Returns a uniformly random unit vector of the given dimension.
  std::vector<float> unit_vector(Index dim);

  /// Returns a random permutation of [0, n).
  std::vector<Index> permutation(Index n);

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<Index> sample_without_replacement(Index n, Index k);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Weights must be non-negative with a positive sum.
  Index weighted_choice(std::span<const double> weights);

  /// Bernoulli draw with probability p.
  bool bernoulli(double p);

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  Mt19937_64 gen_;
  std::uint64_t seed_ = 0;
};

}  // namespace ckv

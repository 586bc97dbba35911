// Oracle test: ckv::Rng against the standard library it replicates. Every
// method must return exactly what libstdc++'s std::mt19937_64 with the
// matching std:: distribution (a fresh one per call) or std::shuffle
// returns, over at least a million draws per method. The reproduction's
// seeded streams were produced by those std:: objects, so this is what
// keeps every recorded figure reproducible. Other standard libraries
// implement the distributions differently; there the test skips.
//
// This file and src/tensor/rng.* are the only places the raw-random lint
// rule lets use std:: engines and distributions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "tensor/rng.hpp"

namespace ckv {
namespace {

#if defined(__GLIBCXX__)

constexpr std::uint64_t kSeeds[] = {0, 5489, 0x9e3779b97f4a7c15ULL};
constexpr int kDraws = 1 << 20;

TEST(RngOracle, EngineMatchesStdMt19937_64) {
  for (const std::uint64_t seed : kSeeds) {
    Mt19937_64 ours(seed);
    std::mt19937_64 oracle(seed);
    for (int i = 0; i < kDraws; ++i) {
      ASSERT_EQ(ours(), oracle()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(RngOracle, UniformMatchesStd) {
  for (const std::uint64_t seed : kSeeds) {
    Rng ours(seed);
    std::mt19937_64 oracle(seed);
    for (int i = 0; i < kDraws; ++i) {
      ASSERT_EQ(ours.uniform(), std::uniform_real_distribution<double>(0.0, 1.0)(oracle))
          << "seed " << seed << " draw " << i;
    }
  }
}

TEST(RngOracle, UniformRangeMatchesStd) {
  Rng ours(7);
  std::mt19937_64 oracle(7);
  for (int i = 0; i < kDraws; ++i) {
    const double lo = -3.0 + 0.001 * (i % 997);
    const double hi = lo + 0.5 * (i % 13);
    const double expected = std::uniform_real_distribution<double>(lo, hi)(oracle);
    ASSERT_EQ(ours.uniform(lo, hi), expected) << "draw " << i;
  }
}

TEST(RngOracle, CanonicalMatchesStd) {
  // One fixed engine output, so the conversion sees chosen draws: the
  // clamp (within 1024 of 2^64 the draw rounds to 2^64 and divides to
  // 1.0), ties at every rounding position, and a sweep of raw draws.
  struct Fixed {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type value;
    result_type operator()() const { return value; }
  };
  std::vector<std::uint64_t> draws{0, 1, ~0ULL, ~0ULL - 511, ~0ULL - 512, ~0ULL - 1023,
                                   ~0ULL - 1024, ~0ULL - 1025, ~0ULL - 2048};
  for (int bit = 53; bit < 64; ++bit) {
    const std::uint64_t top = 1ULL << bit;
    const std::uint64_t half_ulp = 1ULL << (bit - 53);
    for (const std::uint64_t base : {top, top + 2 * half_ulp, top | (top >> 1)}) {
      for (const std::uint64_t delta : {half_ulp - 1, half_ulp, half_ulp + 1}) {
        draws.push_back(base + delta);
      }
    }
  }
  Mt19937_64 sweep(29);
  for (int i = 0; i < kDraws; ++i) {
    draws.push_back(sweep());
  }
  for (const std::uint64_t v : draws) {
    Fixed g{v};
    const double oracle = std::generate_canonical<double, 53>(g);
    ASSERT_EQ(detail::canonical(v), oracle) << "draw " << v;
  }
}

TEST(RngOracle, UniformIntMatchesStd) {
  constexpr Index kMin = std::numeric_limits<Index>::min();
  constexpr Index kMax = std::numeric_limits<Index>::max();
  const std::pair<Index, Index> ranges[] = {
      {0, 0},   {0, 1},          {3, 7},       {-100, 100},       {0, 1000003},
      {5, 5},   {0, Index{1} << 40}, {kMin, kMax}, {kMin, -1},  {0, kMax},
      {-7, kMax}, {kMin + 1, 0}};
  for (const std::uint64_t seed : kSeeds) {
    Rng ours(seed);
    std::mt19937_64 oracle(seed);
    for (int i = 0; i < kDraws; ++i) {
      const auto& [lo, hi] = ranges[static_cast<std::size_t>(i) % std::size(ranges)];
      ASSERT_EQ(ours.uniform_int(lo, hi),
                std::uniform_int_distribution<Index>(lo, hi)(oracle))
          << "seed " << seed << " draw " << i << " range [" << lo << ", " << hi << "]";
    }
  }
}

TEST(RngOracle, NormalMatchesStd) {
  for (const std::uint64_t seed : kSeeds) {
    Rng ours(seed);
    std::mt19937_64 oracle(seed);
    for (int i = 0; i < kDraws; ++i) {
      ASSERT_EQ(ours.normal(), std::normal_distribution<double>(0.0, 1.0)(oracle))
          << "seed " << seed << " draw " << i;
    }
  }
}

TEST(RngOracle, NormalMeanStddevMatchesStd) {
  Rng ours(11);
  std::mt19937_64 oracle(11);
  for (int i = 0; i < kDraws; ++i) {
    const double mean = 0.01 * (i % 101) - 0.5;
    const double stddev = 0.001 + 0.25 * (i % 7);
    ASSERT_EQ(ours.normal(mean, stddev),
              std::normal_distribution<double>(mean, stddev)(oracle))
        << "draw " << i;
  }
}

TEST(RngOracle, NormalsMatchStd) {
  for (const std::uint64_t seed : kSeeds) {
    Rng ours(seed);
    std::mt19937_64 oracle(seed);
    std::vector<double> out(kDraws);
    ours.normals(out, 0.75, 0.3);
    for (int i = 0; i < kDraws; ++i) {
      ASSERT_EQ(out[static_cast<std::size_t>(i)],
                std::normal_distribution<double>(0.75, 0.3)(oracle))
          << "seed " << seed << " draw " << i;
    }
    EXPECT_EQ(ours.uniform(), std::uniform_real_distribution<double>(0.0, 1.0)(oracle));
  }
}

TEST(RngOracle, FillNormalMatchesStd) {
  Rng ours(13);
  std::mt19937_64 oracle(13);
  std::vector<float> out(kDraws);
  ours.fill_normal(out, -1.0, 2.0);
  for (int i = 0; i < kDraws; ++i) {
    ASSERT_EQ(out[static_cast<std::size_t>(i)],
              static_cast<float>(std::normal_distribution<double>(-1.0, 2.0)(oracle)))
        << "draw " << i;
  }
}

TEST(RngOracle, UnitVectorMatchesStd) {
  Rng ours(17);
  std::mt19937_64 oracle(17);
  long draws = 0;
  for (Index dim = 1; draws < kDraws; dim = dim % 200 + 1) {
    const auto v = ours.unit_vector(dim);
    // The pre-replica unit_vector: per-element std normal draws.
    std::vector<float> expected(static_cast<std::size_t>(dim));
    double norm_sq = 0.0;
    do {
      norm_sq = 0.0;
      for (float& x : expected) {
        const double s = std::normal_distribution<double>(0.0, 1.0)(oracle);
        x = static_cast<float>(s);
        norm_sq += s * s;
      }
    } while (norm_sq == 0.0);
    const auto inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
    for (float& x : expected) {
      x *= inv;
    }
    ASSERT_EQ(v, expected) << "dim " << dim;
    draws += dim;
  }
}

TEST(RngOracle, PermutationMatchesStdShuffle) {
  Rng ours(19);
  std::mt19937_64 oracle(19);
  std::vector<Index> sizes;
  for (Index n = 0; n <= 300; ++n) {
    sizes.push_back(n);
  }
  sizes.push_back(4097);
  sizes.push_back(Index{1} << 20);
  for (const Index n : sizes) {
    std::vector<Index> expected(static_cast<std::size_t>(n));
    std::iota(expected.begin(), expected.end(), Index{0});
    std::shuffle(expected.begin(), expected.end(), oracle);
    ASSERT_EQ(ours.permutation(n), expected) << "n " << n;
  }
  EXPECT_EQ(ours.uniform(), std::uniform_real_distribution<double>(0.0, 1.0)(oracle));
}

TEST(RngOracle, SamplingHelpersMatchStd) {
  Rng ours(23);
  std::mt19937_64 oracle(23);
  const auto std_uniform = [&] {
    return std::uniform_real_distribution<double>(0.0, 1.0)(oracle);
  };
  const std::vector<double> weights{0.5, 0.0, 2.0, 1.25, 0.25};
  double total = 0.0;
  for (const double w : weights) {
    total += w;
  }
  for (int i = 0; i < kDraws; ++i) {
    // weighted_choice: one uniform scaled by the total, walked down.
    double r = std_uniform() * total;
    Index expected = static_cast<Index>(weights.size()) - 1;
    for (std::size_t w = 0; w < weights.size(); ++w) {
      r -= weights[w];
      if (r <= 0.0) {
        expected = static_cast<Index>(w);
        break;
      }
    }
    ASSERT_EQ(ours.weighted_choice(weights), expected) << "draw " << i;
    ASSERT_EQ(ours.bernoulli(0.3), std_uniform() < 0.3) << "draw " << i;
  }
  const std::pair<Index, Index> samples[] = {{100, 30}, {10, 10}, {1 << 20, 4096}};
  for (const auto& [n, k] : samples) {
    // sample_without_replacement: a partial Fisher-Yates over std draws.
    std::vector<Index> pool(static_cast<std::size_t>(n));
    std::iota(pool.begin(), pool.end(), Index{0});
    for (Index i = 0; i < k; ++i) {
      const Index j = std::uniform_int_distribution<Index>(i, n - 1)(oracle);
      std::swap(pool[static_cast<std::size_t>(i)], pool[static_cast<std::size_t>(j)]);
    }
    pool.resize(static_cast<std::size_t>(k));
    ASSERT_EQ(ours.sample_without_replacement(n, k), pool) << "n " << n << " k " << k;
  }
}

#else

TEST(RngOracle, SkippedWithoutLibstdcxx) {
  GTEST_SKIP() << "the replicated streams are libstdc++'s; this standard library's "
                  "std:: distributions differ";
}

#endif

}  // namespace
}  // namespace ckv

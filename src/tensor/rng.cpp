#include "tensor/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace ckv {

#if !defined(__SIZEOF_INT128__)
#error "Rng::uniform_int needs unsigned __int128 (GCC or Clang, 64-bit target)"
#endif

Mt19937_64::Mt19937_64(result_type seed) noexcept {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    const result_type prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::refill() noexcept {
  constexpr std::size_t kShift = 156;  // the recurrence's middle offset m
  constexpr result_type kUpper = ~result_type{0} << 31;
  constexpr result_type kLower = ~kUpper;
  const auto twist = [](result_type upper_from, result_type lower_from,
                        result_type far) {
    const result_type y = (upper_from & kUpper) | (lower_from & kLower);
    // (y & 1) ? a : 0 without a branch, so the block loops vectorize.
    return far ^ (y >> 1) ^ ((result_type{0} - (y & 1)) & 0xb5026f5aa96619e9ULL);
  };
  for (std::size_t k = 0; k < kStateWords - kShift; ++k) {
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift]);
  }
  for (std::size_t k = kStateWords - kShift; k < kStateWords - 1; ++k) {
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift - kStateWords]);
  }
  state_[kStateWords - 1] =
      twist(state_[kStateWords - 1], state_[0], state_[kShift - 1]);
  index_ = 0;
}

namespace {

/// libstdc++'s uniform_int_distribution<uint64_t> on a 64-bit engine:
/// a uniform integer in [0, range] by Lemire's nearly-divisionless
/// multiply-shift; the full 64-bit range is one raw draw.
std::uint64_t bounded(Mt19937_64& gen, std::uint64_t range) {
  if (range == Mt19937_64::max()) {
    return gen();
  }
  __extension__ typedef unsigned __int128 U128;
  const std::uint64_t span = range + 1;
  U128 product = static_cast<U128>(gen()) * span;
  auto low = static_cast<std::uint64_t>(product);
  if (low < span) {
    const std::uint64_t threshold = (std::uint64_t{0} - span) % span;
    while (low < threshold) {
      product = static_cast<U128>(gen()) * span;
      low = static_cast<std::uint64_t>(product);
    }
  }
  return static_cast<std::uint64_t>(product >> 64);
}

/// One accepted point of the Marsaglia polar method as libstdc++'s
/// normal_distribution draws it: x then y uniform in [-1, 1), rejected
/// unless 0 < r2 = x^2 + y^2 <= 1. A fresh distribution returns the
/// y-half of the pair and discards the x-half.
struct PolarPoint {
  double y;
  double r2;
};

inline PolarPoint polar_point(Mt19937_64& gen) {
  double x = 0.0;
  double y = 0.0;
  double r2 = 0.0;
  do {
    x = 2.0 * detail::canonical(gen()) - 1.0;
    y = 2.0 * detail::canonical(gen()) - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  return {y, r2};
}

/// The polar method's transform, in libstdc++'s operation order.
inline double polar_normal(double y, double r2, double mean, double stddev) {
  return y * std::sqrt(-2.0 * std::log(r2) / r2) * stddev + mean;
}

/// Draw block for normals(): the accept loop fills a block, then the
/// transform runs over it without the accept loop's branches in its way.
constexpr std::size_t kNormalBlock = 64;

}  // namespace

Rng Rng::fork(std::string_view tag) const {
  return Rng(derive_seed(seed_, tag));
}

double Rng::uniform() {
  // uniform_real_distribution(0, 1): canonical * (1 - 0) + 0 is canonical.
  return detail::canonical(gen_());
}

double Rng::uniform(double lo, double hi) {
  expects(lo <= hi, "Rng::uniform: lo must not exceed hi");
  return detail::canonical(gen_()) * (hi - lo) + lo;
}

Index Rng::uniform_int(Index lo, Index hi) {
  expects(lo <= hi, "Rng::uniform_int: lo must not exceed hi");
  const auto base = static_cast<std::uint64_t>(lo);
  return static_cast<Index>(base + bounded(gen_, static_cast<std::uint64_t>(hi) - base));
}

double Rng::normal() { return normal(0.0, 1.0); }

double Rng::normal(double mean, double stddev) {
  expects(stddev >= 0.0, "Rng::normal: stddev must be non-negative");
  if (stddev == 0.0) {
    return mean;
  }
  const PolarPoint p = polar_point(gen_);
  return polar_normal(p.y, p.r2, mean, stddev);
}

void Rng::normals(std::span<double> out, double mean, double stddev) {
  expects(stddev >= 0.0, "Rng::normals: stddev must be non-negative");
  if (stddev == 0.0) {
    std::fill(out.begin(), out.end(), mean);
    return;
  }
  std::array<double, kNormalBlock> r2;
  for (std::size_t base = 0; base < out.size(); base += kNormalBlock) {
    const std::size_t n = std::min(kNormalBlock, out.size() - base);
    double* block = out.data() + base;
    for (std::size_t i = 0; i < n; ++i) {
      const PolarPoint p = polar_point(gen_);
      block[i] = p.y;
      r2[i] = p.r2;
    }
    for (std::size_t i = 0; i < n; ++i) {
      block[i] = polar_normal(block[i], r2[i], mean, stddev);
    }
  }
}

void Rng::fill_normal(std::span<float> out, double mean, double stddev) {
  std::array<double, kNormalBlock> draws;
  for (std::size_t base = 0; base < out.size(); base += kNormalBlock) {
    const std::size_t n = std::min(kNormalBlock, out.size() - base);
    normals(std::span<double>(draws.data(), n), mean, stddev);
    for (std::size_t i = 0; i < n; ++i) {
      out[base + i] = static_cast<float>(draws[i]);
    }
  }
}

std::vector<float> Rng::unit_vector(Index dim) {
  expects(dim > 0, "Rng::unit_vector: dim must be positive");
  std::vector<double> draws(static_cast<std::size_t>(dim));
  double norm_sq = 0.0;
  do {
    normals(draws, 0.0, 1.0);
    norm_sq = 0.0;
    for (const double s : draws) {
      norm_sq += s * s;
    }
  } while (norm_sq == 0.0);
  const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
  std::vector<float> v(draws.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<float>(draws[i]) * inv;
  }
  return v;
}

std::vector<Index> Rng::permutation(Index n) {
  expects(n >= 0, "Rng::permutation: n must be non-negative");
  std::vector<Index> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), Index{0});
  // libstdc++'s std::shuffle: while n^2 fits the engine's range, one draw
  // over [0, (i + 1)(i + 2)) picks the swap partners of i and i + 1.
  const auto count = static_cast<std::uint64_t>(n);
  if (count == 0) {
    return p;
  }
  if (Mt19937_64::max() / count >= count) {
    std::uint64_t i = 1;
    if (count % 2 == 0) {
      std::swap(p[i], p[bounded(gen_, 1)]);
      ++i;
    }
    while (i != count) {
      const std::uint64_t range = i + 1;
      const std::uint64_t pair = bounded(gen_, range * (range + 1) - 1);
      std::swap(p[i], p[pair / (range + 1)]);
      ++i;
      std::swap(p[i], p[pair % (range + 1)]);
      ++i;
    }
  } else {
    for (std::uint64_t i = 1; i < count; ++i) {
      std::swap(p[i], p[bounded(gen_, i)]);
    }
  }
  return p;
}

std::vector<Index> Rng::sample_without_replacement(Index n, Index k) {
  expects(k >= 0 && k <= n, "Rng::sample_without_replacement: need 0 <= k <= n");
  // Partial Fisher-Yates: O(n) memory but O(k) swaps; n here is at most the
  // context length, so the allocation is acceptable and exact.
  std::vector<Index> pool(static_cast<std::size_t>(n));
  std::iota(pool.begin(), pool.end(), Index{0});
  for (Index i = 0; i < k; ++i) {
    const Index j = uniform_int(i, n - 1);
    std::swap(pool[static_cast<std::size_t>(i)], pool[static_cast<std::size_t>(j)]);
  }
  pool.resize(static_cast<std::size_t>(k));
  return pool;
}

Index Rng::weighted_choice(std::span<const double> weights) {
  expects(!weights.empty(), "Rng::weighted_choice: weights must not be empty");
  double total = 0.0;
  for (const double w : weights) {
    expects(w >= 0.0, "Rng::weighted_choice: weights must be non-negative");
    total += w;
  }
  expects(total > 0.0, "Rng::weighted_choice: weights must have positive sum");
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) {
      return static_cast<Index>(i);
    }
  }
  return static_cast<Index>(weights.size() - 1);
}

bool Rng::bernoulli(double p) {
  expects(p >= 0.0 && p <= 1.0, "Rng::bernoulli: p must be in [0, 1]");
  return uniform() < p;
}

}  // namespace ckv

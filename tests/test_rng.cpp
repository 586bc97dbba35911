#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <string>

#include "stream_digest.hpp"
#include "tensor/rng.hpp"

namespace ckv {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, ForkIsIndependentOfConsumption) {
  Rng a(42);
  Rng b(42);
  (void)a.uniform();  // consume state from a only
  // fork derives from the seed, not from generator state.
  EXPECT_DOUBLE_EQ(a.fork("child").uniform(), b.fork("child").uniform());
}

TEST(Rng, ForksWithDifferentTagsDiffer) {
  Rng a(42);
  EXPECT_NE(a.fork("x").uniform(), a.fork("y").uniform());
}

TEST(Rng, UniformIntBounds) {
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const Index v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, UniformRangeBounds) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.uniform(-1.5, 2.5);
    EXPECT_GE(v, -1.5);
    EXPECT_LT(v, 2.5);
  }
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng(3);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, ZeroStddevIsDeterministic) {
  Rng rng(4);
  EXPECT_DOUBLE_EQ(rng.normal(5.0, 0.0), 5.0);
}

TEST(Rng, UnitVectorHasUnitNorm) {
  Rng rng(5);
  for (const Index dim : {2, 7, 64}) {
    const auto v = rng.unit_vector(dim);
    double norm_sq = 0.0;
    for (const float x : v) {
      norm_sq += static_cast<double>(x) * static_cast<double>(x);
    }
    EXPECT_NEAR(norm_sq, 1.0, 1e-5);
  }
}

TEST(Rng, PermutationIsBijection) {
  Rng rng(6);
  const auto p = rng.permutation(50);
  std::set<Index> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 49);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(7);
  const auto s = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<Index> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 30u);
  for (const Index v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(Rng, SampleWithoutReplacementFullRange) {
  Rng rng(8);
  const auto s = rng.sample_without_replacement(10, 10);
  std::set<Index> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, SampleRejectsBadK) {
  Rng rng(9);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(Rng, WeightedChoiceRespectsWeights) {
  Rng rng(10);
  const std::vector<double> w{0.0, 0.0, 1.0};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.weighted_choice(w), 2);
  }
}

TEST(Rng, WeightedChoiceFrequencies) {
  Rng rng(11);
  const std::vector<double> w{1.0, 3.0};
  int count1 = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.weighted_choice(w) == 1) {
      ++count1;
    }
  }
  EXPECT_NEAR(static_cast<double>(count1) / n, 0.75, 0.02);
}

TEST(Rng, WeightedChoiceRejectsDegenerate) {
  Rng rng(12);
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_THROW(rng.weighted_choice(zero), std::invalid_argument);
  const std::vector<double> negative{1.0, -0.5};
  EXPECT_THROW(rng.weighted_choice(negative), std::invalid_argument);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, NormalsMatchSequentialNormalCalls) {
  for (const std::uint64_t seed : {3ULL, 17ULL, 90210ULL}) {
    for (const std::size_t n : {0u, 1u, 2u, 63u, 64u, 65u, 1000u}) {
      for (const auto& [mean, stddev] :
           {std::pair{0.0, 1.0}, std::pair{2.5, 0.125}, std::pair{-1.0, 7.0}}) {
        Rng batched(seed);
        Rng sequential(seed);
        std::vector<double> out(n);
        batched.normals(out, mean, stddev);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], sequential.normal(mean, stddev))
              << "seed " << seed << " n " << n << " draw " << i;
        }
        // Both generators must sit at the same stream position afterwards.
        EXPECT_EQ(batched.normal(), sequential.normal()) << "seed " << seed;
        EXPECT_EQ(batched.uniform(), sequential.uniform()) << "seed " << seed;
      }
    }
  }
}

TEST(Rng, ZeroStddevDrawsNothing) {
  Rng rng(21);
  Rng untouched(21);
  EXPECT_EQ(rng.normal(1.5, 0.0), 1.5);
  std::vector<double> out(100, -1.0);
  rng.normals(out, -2.0, 0.0);
  for (const double x : out) {
    EXPECT_EQ(x, -2.0);
  }
  std::vector<float> fout(100);
  rng.fill_normal(fout, 0.25, 0.0);
  for (const float x : fout) {
    EXPECT_EQ(x, 0.25f);
  }
  EXPECT_EQ(rng.uniform(), untouched.uniform());
}

TEST(Rng, NormalsRejectNegativeStddev) {
  Rng rng(22);
  std::vector<double> out(4);
  EXPECT_THROW(rng.normals(out, 0.0, -1.0), std::invalid_argument);
}

// ---- stream guards ----------------------------------------------------------
//
// Golden digests of every Rng method's output on three seeds. They pin the
// seeded streams the whole reproduction is built on: a change to the
// generator, a distribution or a sampling helper that moves one bit of any
// draw fails here. Each digest ends with one uniform() draw, so a method
// that consumes a different number of engine outputs fails as well.

constexpr std::array<std::uint64_t, 3> kGuardSeeds{1, 42, 0x9e3779b97f4a7c15ULL};

struct GuardCase {
  std::string name;
  std::function<void(Rng&, StreamDigest&)> draw;
  std::array<std::uint64_t, 3> golden;  ///< one digest per kGuardSeeds entry
};

std::uint64_t guard_digest(const GuardCase& c, std::uint64_t seed) {
  Rng rng(seed);
  StreamDigest digest;
  c.draw(rng, digest);
  digest.add(rng.uniform());
  return digest.value();
}

std::vector<GuardCase> guard_cases() {
  return {
      {"uniform",
       [](Rng& rng, StreamDigest& d) {
         for (int i = 0; i < 2000; ++i) {
           d.add(rng.uniform());
         }
       },
       {10207587090830967492ULL, 4078442898005427824ULL,
        8717807190925902581ULL}},
      {"uniform(lo, hi)",
       [](Rng& rng, StreamDigest& d) {
         for (int i = 0; i < 2000; ++i) {
           d.add(rng.uniform(-3.5, 7.25));
         }
       },
       {6856482422340448312ULL, 16718542172403634358ULL,
        8556140338457416751ULL}},
      {"uniform_int",
       [](Rng& rng, StreamDigest& d) {
         constexpr Index kMin = std::numeric_limits<Index>::min();
         constexpr Index kMax = std::numeric_limits<Index>::max();
         const std::pair<Index, Index> ranges[] = {
             {0, 0}, {0, 1}, {3, 7}, {-100, 100}, {0, Index{1} << 40},
             {kMin, kMax}, {kMin, -1}};
         for (const auto& [lo, hi] : ranges) {
           for (int i = 0; i < 300; ++i) {
             d.add(rng.uniform_int(lo, hi));
           }
         }
       },
       {8948572510254647969ULL, 9233617177503472228ULL,
        17977700621904521830ULL}},
      {"normal",
       [](Rng& rng, StreamDigest& d) {
         for (int i = 0; i < 2000; ++i) {
           d.add(rng.normal());
         }
       },
       {10413574594361448568ULL, 2902213610741497024ULL,
        1115581480609939363ULL}},
      {"normal(mean, stddev)",
       [](Rng& rng, StreamDigest& d) {
         for (int i = 0; i < 1000; ++i) {
           d.add(rng.normal(2.0, 3.0));
         }
         for (int i = 0; i < 3; ++i) {
           d.add(rng.normal(5.0, 0.0));
         }
         for (int i = 0; i < 1000; ++i) {
           d.add(rng.normal(-1e-3, 1e-6));
         }
       },
       {566611285127705692ULL, 14175809993968594738ULL,
        18440910533132986648ULL}},
      {"fill_normal",
       [](Rng& rng, StreamDigest& d) {
         std::vector<float> out(1000);
         rng.fill_normal(out, -1.0, 0.5);
         d.add_all<float>(out);
         rng.fill_normal(out, 3.0, 0.0);
         d.add_all<float>(out);
       },
       {5931812267396540114ULL, 9317379381087743548ULL,
        18428166356205389391ULL}},
      {"unit_vector",
       [](Rng& rng, StreamDigest& d) {
         for (const Index dim : {1, 2, 7, 64, 128}) {
           d.add_all<float>(rng.unit_vector(dim));
         }
       },
       {15242536441540354272ULL, 18299799264259182040ULL,
        2657925586245012638ULL}},
      {"permutation",
       [](Rng& rng, StreamDigest& d) {
         for (const Index n : {0, 1, 2, 3, 17, 1000}) {
           d.add_all<Index>(rng.permutation(n));
         }
       },
       {16016435260426278660ULL, 6222880198794311224ULL,
        7653448760218636064ULL}},
      {"sample_without_replacement",
       [](Rng& rng, StreamDigest& d) {
         d.add_all<Index>(rng.sample_without_replacement(100, 30));
         d.add_all<Index>(rng.sample_without_replacement(10, 10));
         d.add_all<Index>(rng.sample_without_replacement(5000, 64));
       },
       {6808304211828195770ULL, 15284254039046770964ULL,
        6837413724598979582ULL}},
      {"weighted_choice",
       [](Rng& rng, StreamDigest& d) {
         const std::vector<double> w{1.0, 3.0, 0.0, 2.0};
         for (int i = 0; i < 1000; ++i) {
           d.add(rng.weighted_choice(w));
         }
       },
       {4723519322379957728ULL, 13721215370606866000ULL,
        14824844901057599692ULL}},
      {"bernoulli",
       [](Rng& rng, StreamDigest& d) {
         for (int i = 0; i < 1000; ++i) {
           d.add(rng.bernoulli(0.3));
         }
         d.add(rng.bernoulli(0.0));
         d.add(rng.bernoulli(1.0));
       },
       {8623028296738740126ULL, 4041665509539703622ULL,
        937374787668182841ULL}},
      {"fork",
       [](Rng& rng, StreamDigest& d) {
         Rng child = rng.fork("child");
         for (int i = 0; i < 10; ++i) {
           d.add(child.uniform());
         }
         Rng other = rng.fork("x");
         for (int i = 0; i < 10; ++i) {
           d.add(other.normal());
         }
       },
       {236643203777295566ULL, 7505541879063758943ULL,
        13762833446398241975ULL}},
  };
}

TEST(RngStreamGuard, EveryMethodMatchesGoldenDigests) {
  for (const GuardCase& c : guard_cases()) {
    for (std::size_t s = 0; s < kGuardSeeds.size(); ++s) {
      EXPECT_EQ(guard_digest(c, kGuardSeeds[s]), c.golden[s])
          << c.name << " on seed " << kGuardSeeds[s];
    }
  }
}

}  // namespace
}  // namespace ckv
